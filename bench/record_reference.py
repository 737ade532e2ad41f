"""Record the reference test LL and MSE(1) of every workload's trained model
for a range of seeds, into bench/reference.json.

    python3 bench/record_reference.py linear3d 0 100

The benchmark checks its outputs against these values (workloads.py).  Run
it only on a commit whose training is known to be right; the values must not
be re-recorded to make a check pass.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    name, lo, hi = argv[0], int(argv[1]), int(argv[2])
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from nestedflow.experiment import run_train

    from bench import workloads as wl

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(lo, hi):
            for key, cfg in wl.reference_configs(name, seed):
                report, _ = run_train(cfg, Path(tmp) / "run")
                table.setdefault(key, {})[str(seed)] = [
                    report.test_ll_nats, float(report.mse_curve[0])]
            print(name, seed, flush=True)
    # Merge into the file as it is now, so that workloads can be recorded
    # side by side.
    merged = json.loads(wl.REFERENCE_FILE.read_text()) \
        if wl.REFERENCE_FILE.exists() else {}
    for key, values in table.items():
        merged.setdefault(key, {}).update(values)
    wl.REFERENCE_FILE.write_text(json.dumps(merged, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
