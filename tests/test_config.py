import copy
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestedflow.config import (
    ConfigError,
    EXPERIMENT_SCHEMA,
    SWEEP_SCHEMA,
    config_hash,
    load_config,
    resolve_config,
    validate_config,
)


def exactly(message):
    return "^" + re.escape(message) + "$"


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
    # A oneOf value is checked against the branch its "generator" or "kind"
    # names, and its errors come from that branch.
    (lambda c: c["dataset"].pop("n_test"),
     exactly("config.dataset: 'n_test' is a required property")),
    (lambda c: c["dataset"].update(n_train=2.0),
     exactly("config.dataset.n_train: 2.0 is not of type 'integer'")),
    (lambda c: c["dataset"].update(path="points.csv"),
     exactly("config.dataset: Additional properties are not allowed "
             "('path' was unexpected)")),
    (lambda c: c["dataset"].update(generator="mnist"),
     exactly("config.dataset.generator: 'mnist' is not one of "
             "['synthetic-gaussian', 'toy-hierarchical']")),
    (lambda c: c["model"].update(kind="glow"),
     exactly("config.model.kind: 'glow' is not one of "
             "['qr-linear', 'lu-linear', 'coupling-multiscale']")),
    (lambda c: c["model"].pop("kind"),
     exactly("config.model: 'kind' is a required property")),
    (lambda c: c["model"].update(levels=2),
     exactly("config.model: Additional properties are not allowed "
             "('levels' was unexpected)")),
    (lambda c: c["model"].update(n_householder=2.0),
     exactly("config.model.n_householder: 2.0 is not of type 'integer'")),
    (lambda c: c.update(nd={"lambda": 1.0, "p": 0.5, "order": 3}),
     exactly("config.nd.order: 3 is not of type 'string', 'array'")),
    (lambda c: c.update(dataset={"generator": "toy-hierarchical", "dim": 6, "n": 5}),
     exactly("config.dataset.dim: 6 is not a multiple of 4")),
    (lambda c: c.update(nd={"lambda": 1.0, "p": 0.5, "order": "sideways"}),
     exactly("config.nd.order: 'sideways' is not one of ['identity', 'reversed', "
             "'random', 'depth-reversed', 'depth-forward']")),
    # Of several errors, the deepest is reported.
    (lambda c: (c.pop("model"), c["train"].update(lr_initial=0)),
     exactly("config.train.lr_initial: 0 is less than or equal to the minimum of 0")),
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


# The differential test: mutants of valid configs are accepted exactly when
# a draft 2020-12 validator (with ``integer`` meaning a JSON integer) accepts
# them.  Mutations drop a key or item, add a key (known to some schema, or
# unknown) or an item, or replace a value, one to three times.  Values cover
# every JSON type, numbers at the schemas' bounds and pieces of valid
# configs, so mutants also reach the other branches of each oneOf.
def _valid_experiments():
    qr = minimal_config()
    qr.update(nd={"lambda": 20.0, "p": 0.33, "order": [2, 0, 1]},
              eval={"orders": ["identity", [1, 0, 2]]}, seed=3, output_dir="runs/x")
    qr["model"].update(n_householder=2, offset=True)
    qr["train"]["lr_schedule"] = "cosine-to-zero"
    lu = dict(minimal_config(), model={"kind": "lu-linear", "offset": False},
              dataset={"path": "points.csv"})
    coupling = dict(minimal_config(),
                    dataset={"generator": "toy-hierarchical", "dim": 4, "n": 5},
                    model={"kind": "coupling-multiscale", "levels": 2,
                           "couplings_per_level": 1, "hidden_width": 3,
                           "log_scale_bound": 2.0},
                    nd={"lambda": 0, "p": 1, "order": "depth-reversed"})
    return [qr, lu, coupling]


EXPERIMENTS = _valid_experiments()
VALID = {
    "experiment": EXPERIMENTS,
    "sweep": [{"base": EXPERIMENTS[0], "grid": {"nd.lambda": [0, 20]}},
              {"base": EXPERIMENTS[2], "grid": {"model.levels": [1, 2], "x": [[]]},
               "seeds": [0, 1], "output_dir": "runs/sweep"}],
}
SCHEMAS = {"experiment": EXPERIMENT_SCHEMA, "sweep": SWEEP_SCHEMA}


def _property_names(schema):
    if isinstance(schema, dict):
        yield from schema.get("properties", {})
        for value in schema.values():
            yield from _property_names(value)
    elif isinstance(schema, list):
        for value in schema:
            yield from _property_names(value)


KEYS = sorted(set(_property_names(SWEEP_SCHEMA))) + ["extra", "nd.lambda", ""]
VALUES = [None, True, False, 0, 1, -1, 2, 3, 4, 5, 64, 65, 2.0, 0.0, 0.5, 1.0,
          1.5, -0.5, 1e300, "", "x", "points.csv", "identity", "depth-forward",
          "constant", "cosine-to-zero", "qr-linear", "lu-linear",
          "coupling-multiscale", "synthetic-gaussian", "toy-hierarchical", [],
          [0], [2, 0, 1], [-1], [1.0], ["reversed"], [[0]], ["identity", [0]],
          {}, {"a": 1}, {"path": "points.csv"}, {"kind": "lu-linear"},
          {"generator": "synthetic-gaussian", "n_train": 1, "n_test": 1},
          {"lambda": 1, "p": 0.5}, {"orders": ["random"]}, {"nd.p": [0.5]},
          *EXPERIMENTS]


def _paths(doc, path=()):
    """Every path to a value in a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutants(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(doc) if isinstance(_at(doc, p), (dict, list))]
        if not paths:
            break
        node = _at(doc, draw(st.sampled_from(paths)))
        action = draw(st.sampled_from(["drop", "add", "replace"]))
        value = copy.deepcopy(draw(st.sampled_from(VALUES)))
        slots = sorted(node) if isinstance(node, dict) else range(len(node))
        if action == "add" or not slots:
            if isinstance(node, dict):
                node[draw(st.sampled_from(KEYS))] = value
            else:
                node.append(value)
        elif action == "drop":
            del node[draw(st.sampled_from(slots))]
        else:
            node[draw(st.sampled_from(slots))] = value
    return doc


def _accepts(doc, name):
    try:
        validate_config(doc, SCHEMAS[name])
    except ConfigError as e:
        assert str(e).startswith("config")
        return False
    return True


@pytest.fixture(scope="module")
def reference_class():
    """jsonschema's draft 2020-12 validator, with integer meaning int."""
    jsonschema = pytest.importorskip("jsonschema")
    draft = jsonschema.Draft202012Validator
    return jsonschema.validators.extend(draft, type_checker=draft.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)))


@pytest.mark.parametrize("schema,value", [
    ({"type": "integer"}, 2.0),
    ({"type": "number"}, True),
    ({"type": "object", "required": ["a", "b", "c"]}, {"b": 1}),
    ({"additionalProperties": False, "properties": {"a": {}}}, {"a": 1, "c": 2, "b": 3}),
    ({"additionalProperties": False}, {"x": 1}),
    ({"minimum": 1}, 0),
    ({"exclusiveMinimum": 0}, 0.0),
    ({"maximum": 1}, 1.5),
    ({"minItems": 1}, []),
    ({"minProperties": 1}, {}),
    ({"const": "y"}, "x"),
    ({"enum": ["a", "b"]}, "c"),
    ({"properties": {"it's.key": {"items": {"type": "string"}}}}, {"it's.key": ["a", 1]}),
    ({"multipleOf": 4}, 6),
])
def test_messages_match_jsonschema(reference_class, schema, value):
    """Outside a oneOf, each keyword words its error as jsonschema does."""
    from jsonschema.exceptions import best_match
    error = best_match(reference_class(schema).iter_errors(value))
    with pytest.raises(ConfigError) as caught:
        validate_config(value, schema)
    assert str(caught.value) == \
        f"{error.json_path.replace('$', 'config', 1)}: {error.message}"


@pytest.fixture(scope="module")
def reference_validators(reference_class):
    cls = reference_class
    # A subschema with its own "$schema" is checked by that dialect's stock
    # validator, which counts 2.0 as an integer, so the sweep's base drops it.
    base = {k: v for k, v in EXPERIMENT_SCHEMA.items() if k != "$schema"}
    sweep = dict(SWEEP_SCHEMA, properties=dict(SWEEP_SCHEMA["properties"], base=base))
    return {"experiment": cls(EXPERIMENT_SCHEMA), "sweep": cls(sweep)}


def test_validator_accepts_what_jsonschema_accepts_one_edit_away(reference_validators):
    """Every value of every valid config replaced by each of VALUES, and
    every key and item dropped: the bounds are met exactly here."""
    drop = object()
    disagree = []
    for name, docs in VALID.items():
        for doc, path in ((d, p) for d in docs for p in _paths(d) if p):
            for edit in [drop, *VALUES]:
                mutant = copy.deepcopy(doc)
                parent = _at(mutant, path[:-1])
                if edit is drop:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = copy.deepcopy(edit)
                if _accepts(mutant, name) != reference_validators[name].is_valid(mutant):
                    disagree.append(mutant)
    assert not disagree, disagree[:3]


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(data=st.data())
def test_validator_accepts_what_jsonschema_accepts(reference_validators, data):
    name = data.draw(st.sampled_from(sorted(SCHEMAS)))
    doc = data.draw(mutants(data.draw(st.sampled_from(VALID[name]))))
    assert _accepts(doc, name) == reference_validators[name].is_valid(doc), doc
