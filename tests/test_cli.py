import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nestedflow.checkpoint import model_to_dict
from nestedflow import experiment
from nestedflow.cli import main
from nestedflow.coupling import build_multiscale_flow
from nestedflow.datasets import gen_synthetic_gaussian, load_dataset
from nestedflow.evaluation import deterministic_report_bytes
from nestedflow.experiment import derive_seeds, run_train
from nestedflow.flows import build_lu_flow, build_qr_flow
from nestedflow.pca import pca_fit, pca_mse


def write_config(path, **overrides):
    cfg = {
        "dataset": {"generator": "synthetic-gaussian", "n_train": 48,
                    "n_test": 16},
        "model": {"kind": "qr-linear"},
        "train": {"iterations": 5, "batch_size": 8, "lr_initial": 0.01},
        "seed": 0,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def test_generate_writes_dataset(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg_path),
                 "--output", str(out)]) == 0
    assert (out / "dataset.csv").exists()
    assert (out / "dataset.csv.meta.json").exists()
    assert (out / "config.json").exists()
    printed = capsys.readouterr().out
    assert "64 rows x 3 columns" in printed
    assert "split train: rows [0, 48)" in printed


def test_generate_prints_statistics_of_the_written_file(tmp_path, capsys):
    """generate prints from the dataset it holds; %.17g round-trips, so
    that equals what the written CSV reads back as."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg_path), "--output", str(out)]) == 0
    data = load_dataset(out / "dataset.csv")
    printed = capsys.readouterr().out.splitlines()
    assert printed[1:3] == [
        "per-coordinate mean: " + np.array2string(data.points.mean(axis=0), precision=4),
        "per-coordinate variance: " + np.array2string(data.points.var(axis=0), precision=4),
    ]


def test_build_identifier_is_resolved_once_per_process(tmp_path, monkeypatch):
    git_calls = []
    run = subprocess.run

    def counting_run(args, *rest, **kwargs):
        if args[0] == "git":
            git_calls.append(args)
        return run(args, *rest, **kwargs)

    monkeypatch.setattr(experiment.subprocess, "run", counting_run)
    experiment.build_identifier.cache_clear()
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    for name in ("a", "b"):
        assert main(["train", "--config", str(cfg_path),
                     "--output", str(tmp_path / name)]) == 0
    assert len(git_calls) == 1
    assert (tmp_path / "a" / "run.json").read_bytes() == \
        (tmp_path / "b" / "run.json").read_bytes()


def test_generate_is_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--config", str(cfg_path), "--output", str(a)])
    main(["generate", "--config", str(cfg_path), "--output", str(b)])
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()


def test_seed_flag_changes_generated_data(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--config", str(cfg_path), "--output", str(a)])
    main(["generate", "--config", str(cfg_path), "--seed", "5",
          "--output", str(b)])
    assert (a / "dataset.csv").read_bytes() != (b / "dataset.csv").read_bytes()


def test_train_writes_run_artifacts(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path,
                 nd={"lambda": 1.0, "p": 0.5},
                 eval={"orders": ["identity", "reversed"]})
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path),
                 "--output", str(out)]) == 0
    for name in ("config.json", "run.json", "dataset.csv", "checkpoint.json",
                 "trace.csv", "report.json", "mse_curve_identity.csv",
                 "mse_curve_reversed.csv"):
        assert (out / name).exists(), name
    printed = capsys.readouterr().out
    assert "LL:" in printed and "MSE(1)=" in printed
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["seed"] == 0
    assert report["results"]["notes"]["mode"] == "nested-dropout"
    assert len(report["results"]["mse_curve"]) == 3
    assert list(report["timing"]) == ["train_seconds", "train_seconds_per_step",
                                      "eval_seconds", "eval_threads", "total_seconds"]
    run_meta = json.loads((out / "run.json").read_text())
    assert run_meta["seed"] == 0
    assert run_meta["build"]["package"] == "nestedflow"


def test_rerun_from_stored_config_is_reproducible(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, nd={"lambda": 1.0, "p": 0.5})
    first = tmp_path / "first"
    assert main(["train", "--config", str(cfg_path),
                 "--output", str(first)]) == 0
    second = tmp_path / "second"
    assert main(["train", "--config", str(first / "config.json"),
                 "--output", str(second)]) == 0
    assert deterministic_report_bytes(first / "report.json") == \
        deterministic_report_bytes(second / "report.json")
    assert (first / "checkpoint.json").read_bytes() == \
        (second / "checkpoint.json").read_bytes()
    assert (first / "trace.csv").read_bytes() == \
        (second / "trace.csv").read_bytes()


def test_train_on_stored_dataset(tmp_path):
    data_dir = tmp_path / "data"
    cfg_path = tmp_path / "gen.json"
    write_config(cfg_path)
    main(["generate", "--config", str(cfg_path), "--output", str(data_dir)])
    train_cfg = tmp_path / "train.json"
    write_config(train_cfg, dataset={"path": str(data_dir / "dataset.csv")})
    out = tmp_path / "run"
    assert main(["train", "--config", str(train_cfg),
                 "--output", str(out)]) == 0
    # the dataset already lives elsewhere, so the run dir holds no copy
    assert not (out / "dataset.csv").exists()


@pytest.mark.parametrize("splits", [
    {"train": "ab"}, {"train": [0.5, 10]}, {"train": 5}, {"train": [0, 10, 20]},
    [[0, 10]], {"test": [0, 10]}, {"train": [0, 100]},
    {"train": [0, 48], "test": [40, 64]}, {"train": [0, 48], "holdout": [48, 64]},
], ids=["string", "float-bound", "number", "triple", "splits-not-object",
        "no-train", "out-of-bounds", "overlap", "unknown-name"])
def test_train_on_malformed_sidecar_splits_exits_one(tmp_path, capsys, splits):
    data_dir = tmp_path / "data"
    cfg_path = tmp_path / "gen.json"
    write_config(cfg_path)
    main(["generate", "--config", str(cfg_path), "--output", str(data_dir)])
    meta_path = data_dir / "dataset.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["splits"] = splits
    meta_path.write_text(json.dumps(meta))
    train_cfg = tmp_path / "train.json"
    write_config(train_cfg, dataset={"path": str(data_dir / "dataset.csv")})
    capsys.readouterr()
    assert main(["train", "--config", str(train_cfg),
                 "--output", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error:") and "dataset.csv.meta.json" in err


@pytest.mark.parametrize("damage", [
    lambda raw: raw[:12], lambda raw: b"\xff" + raw,
], ids=["truncated", "not-utf8"])
def test_train_on_unreadable_sidecar_exits_one(tmp_path, capsys, damage):
    data_dir = tmp_path / "data"
    cfg_path = tmp_path / "gen.json"
    write_config(cfg_path)
    main(["generate", "--config", str(cfg_path), "--output", str(data_dir)])
    meta_path = data_dir / "dataset.csv.meta.json"
    meta_path.write_bytes(damage(meta_path.read_bytes()))
    train_cfg = tmp_path / "train.json"
    write_config(train_cfg, dataset={"path": str(data_dir / "dataset.csv")})
    capsys.readouterr()
    assert main(["train", "--config", str(train_cfg),
                 "--output", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error:") and str(meta_path) in err


@pytest.mark.parametrize("cell", ["nan", "-inf", "1e400"])
def test_train_on_csv_with_a_non_finite_cell_exits_one(tmp_path, capsys, cell):
    data_dir = tmp_path / "data"
    cfg_path = tmp_path / "gen.json"
    write_config(cfg_path)
    main(["generate", "--config", str(cfg_path), "--output", str(data_dir)])
    csv_path = data_dir / "dataset.csv"
    lines = csv_path.read_text().split("\n")
    lines[2] = f"0.5,{cell},0.25"
    csv_path.write_text("\n".join(lines))
    train_cfg = tmp_path / "train.json"
    write_config(train_cfg, dataset={"path": str(csv_path)})
    capsys.readouterr()
    assert main(["train", "--config", str(train_cfg),
                 "--output", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {csv_path}: non-finite cell at line 3\n"


def test_pca_eval_on_points_whose_covariance_overflows_exits_two(tmp_path, capsys):
    """Finite cells near the float limit overflow the PCA covariance: a
    numerical failure, whatever the LAPACK build would make of it."""
    data_dir = tmp_path / "data"
    write_config(tmp_path / "gen.json")
    main(["generate", "--config", str(tmp_path / "gen.json"), "--output", str(data_dir)])
    csv_path = data_dir / "dataset.csv"
    lines = csv_path.read_text().split("\n")
    lines[1] = "1.7976931348623157e308,0.5,0.25"
    lines[2] = "0.5,-1.7976931348623157e308,0.25"
    csv_path.write_text("\n".join(lines))
    eval_cfg = tmp_path / "eval.json"
    write_config(eval_cfg, dataset={"path": str(csv_path)})
    capsys.readouterr()
    assert main(["eval", "--config", str(eval_cfg), "--output", str(tmp_path / "ev")]) == 2
    assert capsys.readouterr().err == "numerical failure: PCA covariance is not finite\n"


def test_train_on_csv_without_sidecar_warns_in_one_line(tmp_path, capsys):
    data_dir = tmp_path / "data"
    cfg_path = tmp_path / "gen.json"
    write_config(cfg_path)
    main(["generate", "--config", str(cfg_path), "--output", str(data_dir)])
    (data_dir / "dataset.csv.meta.json").unlink()
    train_cfg = tmp_path / "train.json"
    write_config(train_cfg, dataset={"path": str(data_dir / "dataset.csv")})
    capsys.readouterr()
    assert main(["train", "--config", str(train_cfg),
                 "--output", str(tmp_path / "run")]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("warning: no sidecar"), err


def test_train_on_csv_that_is_not_utf8_exits_one(tmp_path, capsys):
    data_dir = tmp_path / "data"
    cfg_path = tmp_path / "gen.json"
    write_config(cfg_path)
    main(["generate", "--config", str(cfg_path), "--output", str(data_dir)])
    csv_path = data_dir / "dataset.csv"
    lines = csv_path.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    csv_path.write_bytes(b"\n".join(lines))
    train_cfg = tmp_path / "train.json"
    write_config(train_cfg, dataset={"path": str(csv_path)})
    capsys.readouterr()
    assert main(["train", "--config", str(train_cfg),
                 "--output", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error:") and f"{csv_path}: line 2" in err


def test_eval_pca_baseline(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = write_config(cfg_path)
    out = tmp_path / "run"
    assert main(["eval", "--config", str(cfg_path),
                 "--output", str(out)]) == 0
    assert "PCA baseline" in capsys.readouterr().out
    doc = json.loads((out / "report.json").read_text())
    assert doc["results"]["mode"] == "pca-oracle"
    seeds = derive_seeds(cfg["seed"])
    data = gen_synthetic_gaussian(48, 16, seeds["data"])
    fit = pca_fit(data.get_split("train"))
    want = [pca_mse(fit, data.get_split("test"), k) for k in (1, 2, 3)]
    assert_allclose(doc["results"]["mse_curve"], want, atol=1e-12)
    assert list(doc["timing"]) == ["eval_seconds", "eval_threads"]
    assert doc["timing"]["eval_seconds"] > 0 and doc["timing"]["eval_threads"] == 1


def test_eval_checkpoint(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    train_dir = tmp_path / "trained"
    main(["train", "--config", str(cfg_path), "--output", str(train_dir)])
    out = tmp_path / "reeval"
    assert main(["eval", "--config", str(cfg_path),
                 "--checkpoint", str(train_dir / "checkpoint.json"),
                 "--output", str(out)]) == 0
    assert "LL:" in capsys.readouterr().out
    trained = json.loads((train_dir / "report.json").read_text())
    reevaluated = json.loads((out / "report.json").read_text())
    assert reevaluated["results"]["test_ll_nats"] == \
        pytest.approx(trained["results"]["test_ll_nats"], abs=1e-12)
    assert list(reevaluated["timing"]) == ["eval_seconds", "eval_threads"]
    assert reevaluated["timing"]["eval_seconds"] > 0
    assert reevaluated["timing"]["eval_threads"] == experiment.worker_count()


INDEX_ORDERS = {"nd": {"lambda": 1.0, "p": 0.5, "order": [0, 2, 1]},
                "eval": {"orders": [[2, 1, 0], "identity", [1, 0, 2]]}}


def curve_files(run_dir):
    return sorted(p.name for p in run_dir.glob("mse_curve_*.csv"))


def test_train_reports_every_index_list_order(tmp_path):
    """The training order comes first and each eval order follows under
    its own label, an index list labelled by its indices."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **INDEX_ORDERS)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--output", str(out)]) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["drop_order"] == [0, 2, 1]
    assert results["notes"]["train_order"] == "0-2-1"
    assert list(results["curves"]) == ["2-1-0", "identity", "1-0-2"]
    assert curve_files(out) == ["mse_curve_0-2-1.csv", "mse_curve_1-0-2.csv",
                                "mse_curve_2-1-0.csv", "mse_curve_identity.csv"]
    rows = (out / "mse_curve_0-2-1.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == results["mse_curve"]


def test_eval_checkpoint_writes_one_curve_per_order(tmp_path):
    """The first eval order is primary and lands in its own file; no curve
    overwrites another."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **INDEX_ORDERS)
    train_dir, out = tmp_path / "trained", tmp_path / "eval"
    assert main(["train", "--config", str(cfg_path), "--output", str(train_dir)]) == 0
    assert main(["eval", "--config", str(cfg_path), "--checkpoint",
                 str(train_dir / "checkpoint.json"), "--output", str(out)]) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["drop_order"] == [2, 1, 0]
    assert list(results["curves"]) == ["identity", "1-0-2"]
    assert curve_files(out) == ["mse_curve_1-0-2.csv", "mse_curve_2-1-0.csv",
                                "mse_curve_identity.csv"]
    trained = json.loads((train_dir / "report.json").read_text())["results"]
    for label in ("2-1-0", "1-0-2"):
        assert (out / f"mse_curve_{label}.csv").read_bytes() == \
            (train_dir / f"mse_curve_{label}.csv").read_bytes()
    assert results["mse_curve"] == trained["curves"]["2-1-0"]["mse"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_repeated_order_is_reported_once(tmp_path, command):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, eval={"orders": ["identity", "identity", "reversed",
                                            "reversed"]})
    train_dir = tmp_path / "trained"
    assert main(["train", "--config", str(cfg_path), "--output", str(train_dir)]) == 0
    out = train_dir
    if command == "eval":
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg_path), "--checkpoint",
                     str(train_dir / "checkpoint.json"), "--output", str(out)]) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["drop_order"] == [0, 1, 2]
    assert list(results["curves"]) == ["reversed"]
    assert curve_files(out) == ["mse_curve_identity.csv", "mse_curve_reversed.csv"]


@pytest.mark.parametrize("overrides", [
    {"nd": {"lambda": 1.0, "p": 0.5, "order": "random"},
     "eval": {"orders": ["random", "reversed", [0, 2, 1]]}},
    {"dataset": {"generator": "toy-hierarchical", "dim": 4, "n": 60},
     "model": {"kind": "coupling-multiscale", "levels": 2,
               "couplings_per_level": 1, "hidden_width": 4},
     "nd": {"lambda": 1.0, "p": 0.5},
     "eval": {"orders": ["depth-reversed", "depth-forward", "random"]}},
], ids=["qr", "coupling"])
def test_eval_reproduces_train_bitwise(tmp_path, overrides):
    """eval --checkpoint on the checkpoint train just wrote, with the
    training order first, reproduces the train report's log likelihood and
    every curve bit for bit, and every curve file byte for byte."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **overrides)
    train_dir, out = tmp_path / "trained", tmp_path / "eval"
    assert main(["train", "--config", str(cfg_path), "--output", str(train_dir)]) == 0
    assert main(["eval", "--config", str(cfg_path), "--checkpoint",
                 str(train_dir / "checkpoint.json"), "--output", str(out)]) == 0
    trained = json.loads((train_dir / "report.json").read_text())["results"]
    reevaluated = json.loads((out / "report.json").read_text())["results"]
    assert len(trained["curves"]) == 2
    for key in ("test_ll_nats", "test_bpd", "drop_order", "mse_curve", "curves"):
        # repr round-trips every float, so equal text means equal bits
        assert json.dumps(reevaluated[key]) == json.dumps(trained[key]), key
    assert curve_files(out) == curve_files(train_dir)
    for name in curve_files(out):
        assert (out / name).read_bytes() == (train_dir / name).read_bytes()


def test_eval_zero_householder_vector_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    train_dir = tmp_path / "trained"
    main(["train", "--config", str(cfg_path), "--output", str(train_dir)])
    doc = json.loads((train_dir / "checkpoint.json").read_text())
    doc["transforms"][0]["params"]["v1"] = [0.0, 0.0, 0.0]
    bad = tmp_path / "zero_v.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(bad),
                 "--output", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "'v1'" in err and "zero" in err


def test_eval_dimension_mismatch_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    train_dir = tmp_path / "trained"
    main(["train", "--config", str(cfg_path), "--output", str(train_dir)])
    wide_cfg = tmp_path / "wide.json"
    write_config(wide_cfg, dataset={"generator": "toy-hierarchical",
                                    "dim": 4, "n": 50})
    assert main(["eval", "--config", str(wide_cfg),
                 "--checkpoint", str(train_dir / "checkpoint.json"),
                 "--output", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert "dimension 3" in err and "dimension 4" in err


def eval_checkpoint_doc(tmp_path, capsys, doc):
    """Exit code and stderr of `eval` on a 3-D config with checkpoint doc."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    path = tmp_path / "checkpoint.json"
    # json writes inf as Infinity; 1e400 is the spelling a file may carry
    path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    capsys.readouterr()
    code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(path),
                 "--output", str(tmp_path / "eval")])
    return code, capsys.readouterr().err


def test_eval_underflowing_diagonal_exits_two(tmp_path, capsys):
    doc = model_to_dict(build_qr_flow(3, np.random.default_rng(0)))
    # exp(-1000) underflows to 0: the triangular factor is singular
    doc["transforms"][0]["params"]["upper_logdiag"] = [-1000.0] * 3
    code, err = eval_checkpoint_doc(tmp_path, capsys, doc)
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("numerical failure:") and "zero diagonal" in err


def test_eval_lu_underflowing_diagonal_exits_two(tmp_path, capsys):
    doc = model_to_dict(build_lu_flow(3, np.random.default_rng(0), offset=True))
    doc["transforms"][1]["params"]["upper_logdiag"] = [0.0, -1000.0, 0.0]
    code, err = eval_checkpoint_doc(tmp_path, capsys, doc)
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("numerical failure:") and "zero diagonal" in err


@pytest.mark.parametrize("kind, logdiag", [
    ("qr", -745.0), ("lu", -700.0), ("lu", -745.0)])
def test_eval_subnormal_diagonal_exits_two(tmp_path, capsys, kind, logdiag):
    # every diagonal entry is nonzero, but inverting the map underflows
    doc = model_to_dict(CHECKPOINT_MODELS[kind](np.random.default_rng(0)))
    doc["transforms"][-1]["params"]["upper_logdiag"] = [logdiag] * 3
    with np.errstate(all="ignore"):
        code, err = eval_checkpoint_doc(tmp_path, capsys, doc)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("numerical failure:")


CHECKPOINT_MODELS = {
    "qr": lambda rng: build_qr_flow(3, rng),
    "lu": lambda rng: build_lu_flow(3, rng, offset=True),
    "coupling": lambda rng: build_multiscale_flow(4, 1, 2, rng, hidden_width=4),
    "coupling8": lambda rng: build_multiscale_flow(8, 2, 2, rng, hidden_width=4),
}


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


def _drop(pos, key):
    return lambda doc: doc["transforms"][pos].pop(key)


@pytest.mark.parametrize("kind, edit, names", [
    ("qr", _set("transforms", [1]), "transform 0"),
    ("qr", _set("transforms", {"type": "qr_linear"}), "'transforms'"),
    ("qr", _set("dimension", float("inf")), "dimension inf"),
    ("qr", _set("dimension", [3]), "dimension [3]"),
    ("qr", lambda doc: doc.pop("dimension"), "'dimension'"),
    ("lu", _drop(1, "dim"), "'dim'"),
    ("lu", _drop(1, "permutation"), "'permutation'"),
    ("qr", _drop(0, "n_householder"), "'n_householder'"),
    ("qr", lambda doc: doc["transforms"][0].__setitem__("n_householder", 1e400),
     "transform 0"),
    ("coupling", _drop(0, "identity_idx"), "'identity_idx'"),
    ("coupling", _drop(1, "transformed_idx"), "'transformed_idx'"),
    ("coupling", lambda doc: doc["multiscale"].pop("depth_rank"), "'depth_rank'"),
    ("coupling", _set("multiscale", [1]), "malformed checkpoint"),
    ("lu", lambda doc: doc["transforms"][1]["params"].__setitem__("lower", "x"),
     "transform 1"),
    # the seed-stack form of a permutation, one row per seed
    ("lu", lambda doc: doc["transforms"][1].__setitem__(
        "permutation", [doc["transforms"][1]["permutation"]] * 2),
     "transform 1 (lu_linear) has a seed axis"),
    ("qr", lambda doc: doc["transforms"][0].__setitem__("scale", 1.0),
     "transform 0 (qr_linear) has unknown field 'scale'"),
    ("coupling", lambda doc: doc["multiscale"].__setitem__("scale", 1.0), "'scale'"),
    # depth_rank and the level sizes must be the ones the couplings were built with
    ("coupling8", lambda doc: doc["multiscale"].__setitem__("depth_rank", [2] * 4 + [1] * 4),
     "multiscale field 'depth_rank'"),
    ("coupling8", lambda doc: doc["multiscale"].update(n_levels=5, couplings_per_level=7),
     "n_levels 5 x couplings_per_level 7"),
], ids=["transform-not-object", "transforms-not-list", "dimension-overflow",
        "dimension-not-number", "no-dimension", "no-dim", "no-permutation",
        "no-n_householder", "n_householder-overflow", "no-identity_idx",
        "no-transformed_idx", "no-depth_rank", "multiscale-not-object",
        "block-not-numbers", "lu-permutation-2d", "extra-transform-field",
        "extra-multiscale-field", "depth_rank-not-derived", "levels-not-the-couplings"])
def test_eval_malformed_checkpoint_exits_one(tmp_path, capsys, kind, edit, names):
    doc = model_to_dict(CHECKPOINT_MODELS[kind](np.random.default_rng(0)))
    edit(doc)
    code, err = eval_checkpoint_doc(tmp_path, capsys, doc)
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error:") and names in err


DEEP = "[" * 100_000


def test_deeply_nested_config_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(DEEP)
    assert main(["train", "--config", str(cfg_path),
                 "--output", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: {cfg_path}: invalid JSON")
    assert not (tmp_path / "run").exists()


def test_deeply_nested_checkpoint_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    path = tmp_path / "checkpoint.json"
    path.write_text(DEEP)
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(path),
                 "--output", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: {path}: invalid checkpoint JSON")


def test_deeply_nested_sidecar_exits_one(tmp_path, capsys):
    data_dir = tmp_path / "data"
    cfg_path = tmp_path / "gen.json"
    write_config(cfg_path)
    main(["generate", "--config", str(cfg_path), "--output", str(data_dir)])
    meta_path = data_dir / "dataset.csv.meta.json"
    meta_path.write_text(DEEP)
    train_cfg = tmp_path / "train.json"
    write_config(train_cfg, dataset={"path": str(data_dir / "dataset.csv")})
    capsys.readouterr()
    assert main(["train", "--config", str(train_cfg),
                 "--output", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: {meta_path}: not valid JSON")


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "absent.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_config_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"kind": "qr-linear"}}))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("token,shown", [("NaN", "nan"), ("Infinity", "inf"),
                                         ("1e400", "inf")])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_non_finite_config_number_exits_one(tmp_path, capsys, command, token,
                                             shown):
    """json reads NaN, Infinity and the overflowing 1e400; the config is
    rejected with the field's path before any run directory exists."""
    cfg = write_config(tmp_path / "base.json")
    if command == "train":
        cfg["train"]["lr_initial"] = "@"
        where = "config.train.lr_initial"
    else:
        cfg = {"base": cfg, "grid": {"train.lr_initial": [0.01, "@"]}}
        where = "config.grid['train.lr_initial'][1]"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg).replace('"@"', token))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg_path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {where}: non-finite number {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,key,where", [
    ("train", "iterations", "config.train.iterations"),
    ("train", "batch_size", "config.train.batch_size"),
    ("sweep", "batch_size", "config.grid['train.batch_size'][1]"),
])
def test_config_integer_outside_int64_exits_one(tmp_path, capsys, command, key,
                                                where):
    """An integer that no int64 holds is rejected with the field's path
    before any run directory exists."""
    cfg = write_config(tmp_path / "base.json")
    if command == "train":
        cfg["train"][key] = 10**30
    else:
        cfg = {"base": cfg, "grid": {f"train.{key}": [4, 2**63]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg_path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {where}: integer out of range [-2**63, 2**63 - 1]\n"
    assert not out.exists()


def test_missing_dataset_file_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, dataset={"path": str(tmp_path / "nope.csv")})
    assert main(["train", "--config", str(cfg_path),
                 "--output", str(tmp_path / "run")]) == 1
    assert "not found" in capsys.readouterr().err


def test_numerical_blowup_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path,
                 train={"iterations": 40, "batch_size": 8,
                        "lr_initial": 1e9})
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", str(cfg_path),
                     "--output", str(tmp_path / "run")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


OVERFLOWING_LR = 1.7976931348623157e308  # the Adam update overflows to inf


def run_cli_process(*argv, threads="1"):
    """The CLI in a fresh interpreter, where numpy warnings are not captured."""
    env = dict(os.environ, NESTEDFLOW_THREADS=threads,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "nestedflow.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_cold_cli_import_loads_only_numpy_and_the_standard_library():
    """Every command pays for what ``import nestedflow.cli`` loads: config
    validation needs no jsonschema, and only a pooled sweep imports the
    process pool."""
    code = ("import sys; before = set(sys.modules); import nestedflow.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "nestedflow.cli" in loaded
    assert not loaded & {"jsonschema", "concurrent.futures.process", "multiprocessing"}
    packages = {name.split(".")[0] for name in loaded}
    assert packages - set(sys.stdlib_module_names) == {"nestedflow", "numpy"}


def test_a_cold_command_loads_only_the_modules_it_runs(tmp_path):
    """``generate`` loads the config and data modules and no flow, training,
    evaluation or thread-pool code; the PCA ``eval`` loads no training,
    coupling or checkpoint code."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    code = ("import sys; from nestedflow.cli import main; code = main(sys.argv[1:]); "
            "print(*sorted(sys.modules)); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    loaded = {}
    for command in ("generate", "eval"):
        proc = subprocess.run([sys.executable, "-c", code, command, "--config", str(cfg_path),
                               "--output", str(tmp_path / command)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded[command] = set(proc.stdout.splitlines()[-1].split())
    assert {m for m in loaded["generate"] if m.startswith("nestedflow")} == {
        "nestedflow", "nestedflow.cli", "nestedflow.config", "nestedflow.experiment",
        "nestedflow.datasets", "nestedflow.linalg"}
    assert "concurrent.futures" not in loaded["generate"]
    assert not loaded["eval"] & {"nestedflow.optim", "nestedflow.coupling",
                                 "nestedflow.checkpoint"}
    assert "nestedflow.pca" in loaded["eval"]


def test_overflowing_update_exits_two_with_one_line(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path,
                 dataset={"generator": "synthetic-gaussian", "n_train": 16, "n_test": 8},
                 train={"iterations": 5, "batch_size": 8, "lr_initial": OVERFLOWING_LR},
                 nd={"lambda": 20.0, "p": 0.33})
    proc = run_cli_process("train", "--config", str(cfg_path),
                           "--output", str(tmp_path / "run"))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "numerical failure: training diverged at iteration 0: the Adam step "
        "made the parameters non-finite"]


def test_parallel_sweep_with_a_diverging_stack_prints_no_warning(tmp_path):
    base = {"dataset": {"generator": "synthetic-gaussian", "n_train": 16, "n_test": 8},
            "model": {"kind": "qr-linear"},
            "train": {"iterations": 5, "batch_size": 8, "lr_initial": 0.01},
            "nd": {"lambda": 20.0, "p": 0.33}}
    sweep = {"base": base, "grid": {"train.lr_initial": [0.01, OVERFLOWING_LR]},
             "seeds": [0, 1]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep))
    out = tmp_path / "sweep"
    proc = run_cli_process("sweep", "--config", str(cfg_path), "--output", str(out),
                           threads="2")
    assert proc.returncode == 0
    assert proc.stderr == ""
    with open(out / "aggregate.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["status"] for r in rows] == ["ok", "ok", "failed", "failed"]
    assert all("iteration 0" in r["error"] for r in rows[2:])


def test_sweep_workers_warn_in_one_line_under_forkserver(tmp_path):
    """Pool workers that do not fork from the CLI's process print a warning
    in the CLI's one-line format too."""
    data_dir = tmp_path / "data"
    write_config(tmp_path / "gen.json")
    main(["generate", "--config", str(tmp_path / "gen.json"), "--output", str(data_dir)])
    (data_dir / "dataset.csv.meta.json").unlink()
    base = write_config(tmp_path / "base.json", dataset={"path": str(data_dir / "dataset.csv")})
    sweep = {"base": base, "grid": {"train.iterations": [2]}, "seeds": [0, 1]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep))
    code = ("import multiprocessing, sys; multiprocessing.set_start_method('forkserver'); "
            "from nestedflow.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, NESTEDFLOW_THREADS="2",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code, "sweep", "--config", str(cfg_path),
                           "--output", str(tmp_path / "sweep")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("warning: no sidecar") for line in lines), lines


def test_a_warning_is_one_write(monkeypatch):
    """Each warning line reaches stderr in one write, so that the lines of
    concurrent pool workers sharing the stream cannot interleave."""
    import warnings
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(warnings, "showwarning", warnings.showwarning)
    monkeypatch.setattr(sys, "stderr", Recorder())
    experiment.one_line_warnings()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.warn("no sidecar")
    assert writes == ["warning: no sidecar\n"]


def unstable_qr_config(path, lr, seed=1):
    """A 3-D qr run whose learning rate breaks the flow within 30 steps."""
    return write_config(path,
                        dataset={"generator": "synthetic-gaussian", "n_train": 16, "n_test": 8},
                        train={"iterations": 30, "batch_size": 8, "lr_initial": lr},
                        nd={"lambda": 20.0, "p": 0.33}, seed=seed)


def test_inexact_full_rank_reconstruction_exits_two_with_one_line(tmp_path):
    """A run that trains to an ill-conditioned flow fails its report's
    full-rank check: a numerical failure."""
    unstable_qr_config(tmp_path / "cfg.json", 20.0)
    proc = run_cli_process("train", "--config", str(tmp_path / "cfg.json"),
                           "--output", str(tmp_path / "run"))
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith("numerical failure: full-rank reconstruction MSE ")
    assert line.endswith(" exceeds 1e-8")


def test_singular_factor_in_training_names_iteration_and_transform(tmp_path):
    """A singular factor met in a training step is a divergence at that
    iteration, naming the transform, solo and in a seed stack alike."""
    unstable_qr_config(tmp_path / "cfg.json", 150.0)
    proc = run_cli_process("train", "--config", str(tmp_path / "cfg.json"),
                           "--output", str(tmp_path / "run"))
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    prefix = "numerical failure: "
    assert re.fullmatch(r"numerical failure: training diverged at iteration \d+: inverse "
                        r"of transform 0 \(qr_linear\): singular qr_linear matrix; "
                        r"last finite terms: .*", line)
    base = unstable_qr_config(tmp_path / "base.json", 150.0)
    sweep = {"base": base, "grid": {"train.iterations": [30]}, "seeds": [0, 1, 2]}
    (tmp_path / "sweep.json").write_text(json.dumps(sweep))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(tmp_path / "sweep.json"),
                 "--output", str(out)]) == 0
    with open(out / "aggregate.csv", newline="") as f:
        errors = {r["seed"]: r["error"] for r in csv.DictReader(f)}
    assert errors["1"] == "TrainDivergenceError: " + \
        line[len(prefix):].replace(",", ";")


def test_argparse_failures_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["train"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_sweep_aggregates_runs_and_records_failures(tmp_path, capsys):
    base = {
        "dataset": {"generator": "synthetic-gaussian", "n_train": 48,
                    "n_test": 16},
        "model": {"kind": "qr-linear"},
        "train": {"iterations": 20, "batch_size": 8, "lr_initial": 0.01},
    }
    sweep = {"base": base,
             "grid": {"train.lr_initial": [0.01, 1e9]},
             "seeds": [0, 1]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep))
    out = tmp_path / "sweep"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["sweep", "--config", str(cfg_path),
                     "--output", str(out)]) == 0
    assert "aggregate table" in capsys.readouterr().out
    lines = (out / "aggregate.csv").read_text().splitlines()
    assert lines[0] == ("train.lr_initial,seed,status,test_ll_nats,"
                       "mse_1,mse_2,error,run_dir")
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r) == 8 for r in rows)
    statuses = [r[2] for r in rows]
    assert statuses.count("ok") == 2
    assert statuses.count("failed") == 2
    for r in rows:
        if r[2] == "ok":
            assert (Path(r[7]) / "report.json").exists()
        else:
            assert "TrainDivergenceError" in r[6]


def test_sweep_seed_flag_replaces_seeds(tmp_path):
    base = write_config(tmp_path / "base.json", seed=3)
    sweep = {"base": base, "grid": {"train.iterations": [1]}, "seeds": [0, 1]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--seed", "5",
                 "--output", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == \
        ["iterations=1_s5"]
    lines = (out / "aggregate.csv").read_text().splitlines()
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["seed"] == "5" and row["status"] == "ok"


def test_sweep_rejects_colliding_child_names(tmp_path, capsys):
    base = json.loads(json.dumps(write_config(tmp_path / "base.json")))
    base["nd"] = {"lambda": 0.0, "p": 0.5}
    # str(1) == "1" twice: two children would write lambda=1_s0
    sweep = {"base": base, "grid": {"nd.lambda": [1, 1.0, 1]}, "seeds": [0]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path),
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'lambda=1_s0'" in err
    assert not out.exists()  # rejected before any child ran


@pytest.mark.parametrize("key, values, hint", [
    ("seed", [1, 2], '"seeds"'),
    ("output_dir", ["a", "b"], 'the sweep\'s "output_dir"'),
], ids=["seed", "output_dir"])
def test_sweep_rejects_grid_keys_it_sets_itself(tmp_path, capsys, key, values, hint):
    """A grid over ``seed`` or ``output_dir`` would be overwritten in every
    child, so each child would train and write what the others do."""
    sweep = {"base": write_config(tmp_path / "base.json"), "grid": {key: values}}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: config.grid.{key}: ") and hint in err
    assert not out.exists()


@pytest.mark.parametrize("base_edit, grid, message", [
    ({}, {"nd.lambda": [0, 1]},
     "sweep child {'nd.lambda': 0} seed 0: config.nd: 'p' is a required property"),
    ({"nd": {"lambda": 0.0, "p": 0.5}}, {"train.batch_size": [8, 2.0]},
     "sweep child {'train.batch_size': 2.0} seed 0: config.train.batch_size: "
     "2.0 is not of type 'integer'"),
    ({"dataset": {"generator": "toy-hierarchical", "dim": 8, "n": 30}},
     {"dataset.dim": [6, 8]},
     "sweep child {'dataset.dim': 6} seed 0: config.dataset.dim: "
     "6 is not a multiple of 4"),
    ({"nd": {"lambda": 0.0, "p": 0.5}}, {"nd.order": ["identity", "depth-reversed"]},
     "sweep child {'nd.order': 'depth-reversed'} seed 0: "
     "order 'depth-reversed' needs a multi-scale model, got qr_linear"),
    ({"nd": {"lambda": 0.0, "p": 0.5}}, {"nd.order": [[0, 1, 2], [0, 1]]},
     "sweep child {'nd.order': [0, 1]} seed 0: drop order must be a permutation of 0..2"),
    ({"dataset": {"generator": "toy-hierarchical", "dim": 4, "n": 30},
      "model": {"kind": "coupling-multiscale", "levels": 1, "couplings_per_level": 1,
                "hidden_width": 3}},
     {"model.levels": [2, 3]},
     "sweep child {'model.levels': 3} seed 0: "
     "level 2 has 1 active variables; dimension 4 cannot support 3 levels"),
], ids=["nd-without-p", "float-batch-size", "toy-dim-not-a-multiple-of-4",
        "depth-order-on-a-linear-model", "wrong-length-order", "too-deep-levels"])
def test_sweep_rejects_an_invalid_child_before_any_runs(tmp_path, capsys, base_edit,
                                                        grid, message):
    """Every child's config is validated, and a child with an inline dataset
    is set up as ``train`` sets it up, before the sweep directory exists:
    one line naming the grid point, the seed and ``train``'s message, and
    exit 1."""
    base = {**write_config(tmp_path / "base.json"), **base_edit}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"base": base, "grid": grid, "seeds": [0, 1]}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, through", [
    ("train.iterations.x", "config.train.iterations"),
    ("dataset.generator.x", "config.dataset.generator"),
    ("eval.orders.x.y", "config.eval.orders"),
])
def test_sweep_rejects_a_grid_key_through_a_value(tmp_path, capsys, key, through):
    """A grid key that passes through a number, a string or a list cannot
    be set: one line naming the grid key, exit 1, and no sweep directory."""
    base = write_config(tmp_path / "base.json", eval={"orders": ["identity"]})
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"base": base, "grid": {key: [1]}}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: config.grid['{key}']: {through} is not an object\n"
    assert not out.exists()


def test_sweep_child_names_drop_path_separators(tmp_path):
    from nestedflow.experiment import run_sweep
    base = write_config(tmp_path / "base.json")
    missing = str(tmp_path / "data" / "points.csv")
    sweep = {"base": base, "grid": {"dataset": [{"path": missing}]},
             "seeds": [0]}
    out = run_sweep(sweep, tmp_path / "sweep")
    lines = (out / "aggregate.csv").read_text().splitlines()
    run_dir = Path(lines[1].split(",")[-1])
    assert run_dir.parent == out
    assert "/" not in run_dir.name and "failed" in lines[1]
    # list values are joined with "-"
    base["train"]["iterations"] = 1
    base["nd"] = {"lambda": 1.0, "p": 0.5}
    sweep = {"base": base, "grid": {"nd.order": [[0, 2, 1], [2, 1, 0]]},
             "seeds": [0]}
    out = run_sweep(sweep, tmp_path / "orders")
    rows = [line.split(",") for line in
            (out / "aggregate.csv").read_text().splitlines()[1:]]
    assert [Path(r[-1]).name for r in rows] == ["order=0-2-1_s0", "order=2-1-0_s0"]
    assert all((out / Path(r[-1]).name / "report.json").exists() for r in rows)


def test_sweep_aggregate_quotes_list_values(tmp_path):
    from nestedflow.experiment import run_sweep
    base = write_config(tmp_path / "base.json")
    base["train"]["iterations"] = 1
    base["nd"] = {"lambda": 1.0, "p": 0.5}
    sweep = {"base": base, "grid": {"nd.order": [[0, 2, 1], [2, 1, 0]]},
             "seeds": [0]}
    out = run_sweep(sweep, tmp_path / "orders")
    with open(out / "aggregate.csv", newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    assert len(rows) == 2
    for row, order in zip(rows, [[0, 2, 1], [2, 1, 0]]):
        assert None not in row and len(row) == len(reader.fieldnames)
        assert json.loads(row["nd.order"]) == order
        assert row["status"] == "ok"


def test_sweep_worker_env(tmp_path, monkeypatch):
    monkeypatch.setenv("NESTEDFLOW_THREADS", "2")
    base = {
        "dataset": {"generator": "synthetic-gaussian", "n_train": 32,
                    "n_test": 8},
        "model": {"kind": "qr-linear"},
        "train": {"iterations": 2, "batch_size": 4, "lr_initial": 0.01},
    }
    sweep = {"base": base, "grid": {"train.iterations": [1, 2]}}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path),
                 "--output", str(out)]) == 0
    lines = (out / "aggregate.csv").read_text().splitlines()
    assert len(lines) == 3


def patch_cpus(monkeypatch, n):
    """Make this process look as if it may run on ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def test_parallel_sweep_matches_serial(tmp_path, monkeypatch):
    """A sweep run by two worker processes, with one or two evaluation
    threads each, writes every child's files and the aggregate table byte
    for byte as a serial sweep does.  Each worker evaluates on its share of
    ``NESTEDFLOW_THREADS``, capped at the CPUs: 4 threads on 2 CPUs are 2."""
    base = write_config(tmp_path / "base.json",
                        train={"iterations": 60, "batch_size": 16,
                               "lr_initial": 0.01},
                        nd={"lambda": 0.0, "p": 0.33})
    # runs: (NESTEDFLOW_THREADS, CPUs, evaluation threads per worker)
    for seeds, lambdas, runs in (([0, 1], [0.0, 20.0], [("2", 2, 1), ("4", 2, 1)]),
                                 ([0], [0.0], [("4", 4, 2), ("4", 2, 1)])):
        sweep = {"base": base, "seeds": seeds,
                 "grid": {"model.kind": ["qr-linear", "lu-linear"], "nd.lambda": lambdas}}
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(sweep))
        outs = []
        for threads, cpus, share in [("1", 2, 1), *runs]:
            monkeypatch.setenv("NESTEDFLOW_THREADS", threads)
            patch_cpus(monkeypatch, cpus)
            out = tmp_path / f"{len(seeds)}seeds_threads{threads}_cpus{cpus}"
            assert main(["sweep", "--config", str(cfg_path), "--output", str(out)]) == 0
            outs.append((out, share))
        serial = outs[0][0]
        children = sorted(p.name for p in serial.iterdir() if p.is_dir())
        assert len(children) == 2 * len(seeds) * len(lambdas)  # 8, then 2
        for parallel, share in outs:
            assert children == sorted(p.name for p in parallel.iterdir() if p.is_dir())
            for name in children:
                for file in ("checkpoint.json", "trace.csv"):
                    assert (serial / name / file).read_bytes() == \
                        (parallel / name / file).read_bytes()
                assert deterministic_report_bytes(serial / name / "report.json") == \
                    deterministic_report_bytes(parallel / name / "report.json")
                report = json.loads((parallel / name / "report.json").read_text())
                assert report["timing"]["eval_threads"] == share
            aggregate = [(out / "aggregate.csv").read_text().replace(str(out), "")
                         for out in (serial, parallel)]
            assert aggregate[0] == aggregate[1]
        assert aggregate[0].count(",ok,") == len(children)


def test_sweep_pool_is_bounded_by_children(tmp_path, monkeypatch):
    """The pool never has more workers than children (or CPUs); a
    one-child sweep runs serially whatever NESTEDFLOW_THREADS says.  The
    build identifier and the run modules are loaded before the pool starts,
    so forked workers inherit them: none runs git again or compiles a module."""
    import concurrent.futures
    sizes = []

    class RecordingPool:  # runs the children in this process
        def __init__(self, max_workers, initializer):
            assert experiment.build_identifier.cache_info().currsize == 1
            assert {"nestedflow.optim", "nestedflow.evaluation",
                    "nestedflow.checkpoint"} <= set(sys.modules)
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("NESTEDFLOW_THREADS", "5")
    patch_cpus(monkeypatch, 4)
    base = write_config(tmp_path / "base.json")
    for n_children in (1, 2):
        sizes.clear()
        experiment.build_identifier.cache_clear()
        sweep = {"base": base, "grid": {"train.iterations": [2, 3][:n_children]}}
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(sweep))
        out = tmp_path / f"sweep{n_children}"
        assert main(["sweep", "--config", str(cfg_path), "--output", str(out)]) == 0
        assert (out / "aggregate.csv").read_text().count(",ok,") == n_children
        assert sizes == ([2] if n_children == 2 else [])


def test_invalid_worker_env(monkeypatch):
    from nestedflow.experiment import worker_count
    patch_cpus(monkeypatch, 8)
    monkeypatch.setenv("NESTEDFLOW_THREADS", "many")
    with pytest.raises(ValueError, match="NESTEDFLOW_THREADS"):
        worker_count()
    monkeypatch.setenv("NESTEDFLOW_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.delenv("NESTEDFLOW_THREADS")
    assert worker_count() == 1


def test_threads_are_capped_at_the_cpus(tmp_path, monkeypatch):
    """NESTEDFLOW_THREADS above the CPUs this process may run on does not
    oversubscribe a solo command: ``train`` and ``eval --checkpoint``
    evaluate on one thread per CPU, and their reports say so."""
    from nestedflow.experiment import worker_count
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    for threads, cpus in (("3", 1), ("4", 2)):
        monkeypatch.setenv("NESTEDFLOW_THREADS", threads)
        patch_cpus(monkeypatch, cpus)
        assert worker_count() == cpus
        out = tmp_path / f"threads{threads}"
        assert main(["train", "--config", str(cfg_path), "--output", str(out)]) == 0
        evaluated = tmp_path / f"eval{threads}"
        assert main(["eval", "--config", str(cfg_path), "--output", str(evaluated),
                     "--checkpoint", str(out / "checkpoint.json")]) == 0
        for run in (out, evaluated):
            report = json.loads((run / "report.json").read_text())
            assert report["timing"]["eval_threads"] == cpus


def test_default_output_dir_derives_from_hash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json")
    report, out_dir = run_train(cfg)
    assert out_dir.parts[0] == "runs"
    assert out_dir.name.endswith("-s0")
    assert (out_dir / "report.json").exists()
