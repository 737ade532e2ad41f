"""Seed stacks through ``run_sweep``: sweep children whose configs differ
only in seed and ``nd.lambda`` train as one stack, and each child writes the
bytes that a solo ``nestedflow train`` of its config writes."""

import csv
import json
from pathlib import Path

import pytest

from nestedflow import experiment
from nestedflow.cli import main
from nestedflow.evaluation import deterministic_report_bytes

LINEAR_DATA = {"generator": "synthetic-gaussian", "n_train": 48, "n_test": 16}
MODELS = {
    "qr": ({"kind": "qr-linear"}, LINEAR_DATA),
    "qr-offset": ({"kind": "qr-linear", "offset": True}, LINEAR_DATA),
    "lu": ({"kind": "lu-linear"}, LINEAR_DATA),
    "coupling": ({"kind": "coupling-multiscale", "levels": 2,
                  "couplings_per_level": 2, "hidden_width": 4},
                 {"generator": "toy-hierarchical", "dim": 8, "n": 40}),
}


def sweep(tmp_path, name, base, grid, seeds):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps({"base": base, "grid": grid, "seeds": seeds}))
    out = tmp_path / name
    assert main(["sweep", "--config", str(cfg_path), "--output", str(out)]) == 0
    with open(out / "aggregate.csv", newline="") as f:
        return list(csv.DictReader(f))


def assert_matches_solo_train(tmp_path, row):
    """The child's checkpoint, trace and report results equal, byte for
    byte, those of `nestedflow train` on its stored config."""
    child = tmp_path / row["run_dir"]
    solo = tmp_path / ("solo-" + child.name)
    assert main(["train", "--config", str(child / "config.json"),
                 "--output", str(solo)]) == 0
    for name in ("checkpoint.json", "trace.csv"):
        assert (child / name).read_bytes() == (solo / name).read_bytes(), name
    assert deterministic_report_bytes(child / "report.json") == \
        deterministic_report_bytes(solo / "report.json")


def train_seconds(row) -> float:
    with open(f"{row['run_dir']}/report.json") as f:
        return json.load(f)["timing"]["train_seconds"]


@pytest.mark.parametrize("n_seeds", [2, 3])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_stacked_children_match_solo_train_bytewise(tmp_path, monkeypatch, model,
                                                    n_seeds):
    monkeypatch.setenv("NESTEDFLOW_THREADS", "1")
    spec, data = MODELS[model]
    base = {"dataset": data, "model": spec,
            "train": {"iterations": 25, "batch_size": 8, "lr_initial": 0.01},
            "nd": {"lambda": 0.0, "p": 0.33},
            "eval": {"orders": ["identity", "reversed"]}}
    rows = sweep(tmp_path, "sweep", base, {"nd.lambda": [0.0, 0.5, 20.0]},
                 list(range(n_seeds)))
    assert [r["status"] for r in rows] == ["ok"] * (3 * n_seeds)
    # One stack per sweep column: every child reports the stack's training time.
    assert len({train_seconds(r) for r in rows}) == 1
    for row in rows:
        assert_matches_solo_train(tmp_path, row)


@pytest.mark.parametrize("kind, iterations, seeds, statuses", [
    # At this learning rate seed 4 diverges on its second step; 2 and 3 finish.
    ("qr-linear", 2, [2, 3, 4], ["ok", "ok", "failed"]),
    # Here every seed fails: two diverge, at different steps, and three
    # meet a singular LU factor; the stack fails and each seed fails alone.
    ("lu-linear", 6, [0, 1, 2, 3, 4], ["failed"] * 5),
])
def test_failing_seed_fails_alone_with_its_solo_error(tmp_path, monkeypatch, kind,
                                                      iterations, seeds, statuses):
    monkeypatch.setenv("NESTEDFLOW_THREADS", "1")
    base = {"dataset": {"generator": "synthetic-gaussian", "n_train": 16, "n_test": 8},
            "model": {"kind": kind},
            "train": {"iterations": iterations, "batch_size": 8, "lr_initial": 150.0},
            "nd": {"lambda": 20.0, "p": 0.33}}
    grid = {"train.iterations": [iterations]}
    rows = sweep(tmp_path, "stacked", base, grid, seeds)
    assert [r["status"] for r in rows] == statuses
    for row in rows:
        # A one-child sweep trains that child solo.
        (solo,) = sweep(tmp_path, f"solo{row['seed']}", base, grid, [int(row["seed"])])
        assert (row["status"], row["error"]) == (solo["status"], solo["error"])
        if row["status"] == "ok":
            assert_matches_solo_train(tmp_path, row)
    assert any("TrainDivergenceError: training diverged" in r["error"] for r in rows)


def test_a_job_writes_each_dataset_once(tmp_path, monkeypatch):
    """A job makes and writes each distinct (dataset spec, data seed) once
    and copies the files into its other children; every child's dataset and
    sidecar equal, byte for byte, `nestedflow generate` of its config."""
    monkeypatch.setenv("NESTEDFLOW_THREADS", "1")
    writers = []
    save_dataset = experiment.save_dataset

    def recording_save(data, path):
        writers.append(Path(path).parent.name)
        save_dataset(data, path)

    monkeypatch.setattr(experiment, "save_dataset", recording_save)
    base = {"dataset": LINEAR_DATA, "model": {"kind": "qr-linear"},
            "train": {"iterations": 3, "batch_size": 8, "lr_initial": 0.01},
            "nd": {"lambda": 0.0, "p": 0.33}}
    grid = {"model.kind": ["qr-linear", "lu-linear"], "nd.lambda": [0.0, 20.0]}
    rows = sweep(tmp_path, "sweep", base, grid, [0, 1])
    assert [r["status"] for r in rows] == ["ok"] * 8
    # One job per model kind; each writes its two seeds' data once.
    assert writers == [f"kind={kind}_lambda=0.0_s{seed}"
                       for kind in ("qr-linear", "lu-linear") for seed in (0, 1)]
    for row in rows:
        child = Path(row["run_dir"])
        generated = tmp_path / ("generate-" + child.name)
        assert main(["generate", "--config", str(child / "config.json"),
                     "--output", str(generated)]) == 0
        for name in ("dataset.csv", "dataset.csv.meta.json"):
            assert (child / name).read_bytes() == (generated / name).read_bytes(), name
