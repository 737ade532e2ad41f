"""The benchmark's reference recorder against the package it reads.

``bench/record_reference.py`` trains each reference config with
``run_train`` and records the report's test LL and MSE(1).  It runs only
when a reference is re-recorded, so this test runs it for one seed of a
tiny config, writing to a temporary reference file.
"""

import json
import os
import sys
from pathlib import Path

from nestedflow.experiment import run_train

ROOT = Path(__file__).resolve().parent.parent


def test_recorder_writes_the_reports_ll_and_mse1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", [str(ROOT), *sys.path])  # the recorder prepends too
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    from bench import record_reference, workloads

    cfg = workloads.experiment_config("linear3d", 3, "tiny")
    monkeypatch.setattr(workloads, "reference_configs", lambda name, seed: [(name, cfg)])
    monkeypatch.setattr(workloads, "REFERENCE_FILE", tmp_path / "reference.json")
    assert record_reference.main(["linear3d", "3", "4"]) == 0
    assert capsys.readouterr().out == "linear3d 3\n"

    report, _ = run_train(cfg, tmp_path / "run")
    recorded = json.loads((tmp_path / "reference.json").read_text())
    assert recorded == {"linear3d": {"3": [report.test_ll_nats, float(report.mse_curve[0])]}}
