"""Benchmark entry point.

    python3 bench/run.py --workload linear3d --seed 0 --seconds 55 --trace 0

Run from the repository root.  ``--trace 0`` drives the CLI untraced and
prints the end-to-end metrics: timings scaled to a reference machine speed
(``speed.py``), with the plain wall times beside them.  ``--trace 1`` runs
the traced replay and prints the per-layer metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
environment record, raw samples and check messages of every run are stored
under ``.bench_results/``; spans of a traced run go beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

# BLAS reads these when it loads, so they are set before numpy is imported;
# sweep workers and set-up interpreters inherit them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("linear3d", "multiscale16"))
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed, written into the generated configs")
    p.add_argument("--seconds", type=float, required=True,
                   help="time to measure; at least one round always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(load_at_start) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nestedflow_threads": os.environ.get("NESTEDFLOW_THREADS"),
        "git_commit": git_commit(),
        "loadavg_start": list(load_at_start),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nestedflow" / "__init__.py").is_file():
        print(f"error: no nestedflow sources under {SRC}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["NESTEDFLOW_THREADS"] = str(min(2, len(os.sched_getaffinity(0))))
    sys.path[:0] = [str(SRC), str(ROOT)]

    from bench import e2e, traced

    tag = f"{args.workload}-s{args.seed}-trace{args.trace}-{args.size}"
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            out = traced.run(args.workload, args.seed, args.seconds, args.size,
                             work, RESULTS / f"{tag}-{stamp}-spans.csv")
        else:
            out = e2e.run(args.workload, args.seed, args.seconds, args.size,
                          SRC, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(load_at_start)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "environment": env, **out}
    with open(RESULTS / f"{tag}-{stamp}.json", "w") as f:
        json.dump(record, f, indent=1)

    for msg in out["messages"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print("environment: " + json.dumps(env, sort_keys=True))
    wall = out.get("wall", {})
    for name, (value, unit) in out["metrics"].items():
        line = f"{name:<34} {value:>14.6g} {unit}"
        if name in wall:
            line += f"  (wall {wall[name][0]:.6g} {unit})"
        print(line)
    print(f"{'failed_frac':<34} {out['failed'] / max(out['attempted'], 1):>14.6g}"
          f" ratio  ({out['failed']} of {out['attempted']} commands)")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
