import json
import re

import pytest

from nestedflow.config import (
    ConfigError,
    SWEEP_SCHEMA,
    config_hash,
    load_config,
    resolve_config,
    validate_config,
)


def minimal_config():
    return {
        "dataset": {"generator": "synthetic-gaussian", "n_train": 10,
                    "n_test": 5},
        "model": {"kind": "qr-linear"},
        "train": {"iterations": 1, "batch_size": 4, "lr_initial": 0.01},
    }


def test_minimal_config_validates():
    assert validate_config(minimal_config()) is not None


def test_full_config_validates():
    cfg = minimal_config()
    cfg["nd"] = {"lambda": 20.0, "p": 0.33, "order": "identity"}
    cfg["eval"] = {"orders": ["identity", "reversed", [2, 0, 1]]}
    cfg["seed"] = 3
    cfg["output_dir"] = "runs/demo"
    validate_config(cfg)


@pytest.mark.parametrize("mutate,needle", [
    (lambda c: c.pop("train"), "train"),
    (lambda c: c.update(extra=1), "extra"),
    (lambda c: c["model"].update(kind="glow"), "model"),
    (lambda c: c["train"].update(lr_initial=0), "lr_initial"),
    (lambda c: c["train"].update(batch_size=0), "batch_size"),
    (lambda c: c["dataset"].pop("n_test"), "dataset"),
    (lambda c: c.update(seed=-1), "seed"),
])
def test_schema_rejections_name_the_field(mutate, needle):
    cfg = minimal_config()
    mutate(cfg)
    with pytest.raises(ConfigError, match=needle):
        validate_config(cfg)


def test_nd_section_bounds():
    cfg = minimal_config()
    cfg["nd"] = {"lambda": 1.0, "p": 0.0}
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg["nd"] = {"lambda": -1.0, "p": 0.5}
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg["nd"] = {"p": 0.5}
    with pytest.raises(ConfigError, match="lambda"):
        validate_config(cfg)
    cfg["nd"] = {"lambda": 1.0, "p": 0.5, "order": "sideways"}
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_eval_orders_must_be_nonempty():
    cfg = minimal_config()
    cfg["eval"] = {"orders": []}
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_coupling_model_requires_layout():
    cfg = minimal_config()
    cfg["model"] = {"kind": "coupling-multiscale"}
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg["model"] = {"kind": "coupling-multiscale", "levels": 2,
                    "couplings_per_level": 2}
    validate_config(cfg)


def test_dataset_path_variant():
    cfg = minimal_config()
    cfg["dataset"] = {"path": "points.csv"}
    validate_config(cfg)
    cfg["dataset"] = {"path": "points.csv", "generator": "synthetic-gaussian"}
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_resolve_fills_defaults():
    out = resolve_config(minimal_config())
    assert out["seed"] == 0
    assert out["train"]["lr_schedule"] == "constant"
    assert "hidden_width" not in out["model"]


def test_resolve_overrides_win():
    cfg = minimal_config()
    cfg["seed"] = 9
    cfg["output_dir"] = "elsewhere"
    cfg["train"]["lr_schedule"] = "cosine-to-zero"
    out = resolve_config(cfg)
    assert out["seed"] == 9
    assert out["output_dir"] == "elsewhere"
    assert out["train"]["lr_schedule"] == "cosine-to-zero"


def test_resolve_coupling_defaults():
    cfg = minimal_config()
    cfg["model"] = {"kind": "coupling-multiscale", "levels": 2,
                    "couplings_per_level": 1}
    out = resolve_config(cfg)
    assert out["model"]["hidden_width"] == 32
    assert out["model"]["log_scale_bound"] == 2.0


def test_resolve_does_not_mutate_input():
    cfg = minimal_config()
    resolve_config(cfg)
    assert "seed" not in cfg
    assert "lr_schedule" not in cfg["train"]


def test_hash_ignores_output_dir_only():
    a = resolve_config(minimal_config())
    b = dict(a, output_dir="elsewhere")
    assert config_hash(a) == config_hash(b)
    c = dict(a, seed=1)
    assert config_hash(a) != config_hash(c)


def test_hash_is_order_insensitive():
    cfg = resolve_config(minimal_config())
    reordered = json.loads(json.dumps(cfg))
    reordered = {k: reordered[k] for k in sorted(reordered, reverse=True)}
    assert config_hash(cfg) == config_hash(reordered)


def test_load_config_reports_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


@pytest.mark.parametrize("content", [b'{"seed": ' + b"9" * 5000 + b"}",
                                     b'{"output_dir": "\xff"}'],
                         ids=["integer-too-long-to-parse", "not-utf8"])
def test_load_config_names_the_file_when_json_cannot_be_read(tmp_path, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: invalid JSON")):
        load_config(path)


@pytest.mark.parametrize("depth", [990, 100_000])
def test_load_config_names_the_file_when_nesting_is_too_deep(tmp_path, depth):
    """Too deep to parse, or parsed but too deep to validate: one
    ConfigError naming the file either way."""
    path = tmp_path / "deep.json"
    text = json.dumps(dict(minimal_config(), eval={"orders": "deep"}))
    path.write_text(text.replace('"deep"', "[" * depth + "]" * depth))
    with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: ")):
        load_config(path)


@pytest.mark.parametrize("section,key,where", [
    ("train", "iterations", "config.train.iterations: 2.0 is not of type"),
    ("train", "batch_size", "config.train.batch_size: 2.0 is not of type"),
    (None, "seed", "config.seed: 2.0 is not of type"),
    ("dataset", "n_train", "config.dataset"),
    ("model", "n_householder", "config.model"),
])
def test_integral_floats_are_not_integers(section, key, where):
    """2.0 is an integer to JSON Schema, but range() and array shapes
    reject it, so integer fields take JSON integers only."""
    cfg = minimal_config()
    (cfg[section] if section else cfg)[key] = 2.0
    with pytest.raises(ConfigError, match=re.escape(where)):
        validate_config(cfg)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(minimal_config()))
    assert load_config(path) == minimal_config()


def test_sweep_schema():
    base = minimal_config()
    validate_config({"base": base, "grid": {"nd.lambda": [0, 20]},
                     "seeds": [0, 1]}, SWEEP_SCHEMA)
    with pytest.raises(ConfigError):
        validate_config({"base": base}, SWEEP_SCHEMA)
    with pytest.raises(ConfigError):
        validate_config({"base": base, "grid": {}}, SWEEP_SCHEMA)
    with pytest.raises(ConfigError):
        validate_config({"base": base, "grid": {"nd.lambda": []}},
                        SWEEP_SCHEMA)
    with pytest.raises(ConfigError):
        validate_config({"base": base, "grid": {"nd.lambda": [1]},
                         "seeds": []}, SWEEP_SCHEMA)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_numbers_name_the_field(value):
    shown = f"non-finite number {value}$"
    cfg = minimal_config()
    cfg["nd"] = {"lambda": value, "p": 0.5}
    with pytest.raises(ConfigError, match=r"^config\.nd\.lambda: " + shown):
        validate_config(cfg)
    cfg = minimal_config()
    cfg["model"] = {"kind": "coupling-multiscale", "levels": 1,
                    "couplings_per_level": 1, "log_scale_bound": value}
    with pytest.raises(ConfigError,
                       match=r"^config\.model\.log_scale_bound: " + shown):
        validate_config(cfg)
    base = minimal_config()
    sweep = {"base": base, "grid": {"nd.lambda": [0.0, value]}}
    with pytest.raises(ConfigError,
                       match=r"^config\.grid\['nd\.lambda'\]\[1\]: " + shown):
        validate_config(sweep, SWEEP_SCHEMA)
    base["train"]["lr_initial"] = value
    sweep["grid"]["nd.lambda"] = [0.0]
    with pytest.raises(ConfigError,
                       match=r"^config\.base\.train\.lr_initial: " + shown):
        validate_config(sweep, SWEEP_SCHEMA)
