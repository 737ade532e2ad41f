"""Experiment configuration: JSON documents under a strict schema.

Unknown keys are rejected everywhere so that stored run configs stay
unambiguous, and so are non-finite numbers (``NaN``, ``Infinity``,
``1e400``), integers outside int64 and integral floats such as ``2.0`` in
integer fields, which no setting accepts.
``load_config``/``validate_config`` raise ConfigError with the JSON path of
the first offending field.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math

import jsonschema

ORDER_NAMES = ("identity", "reversed", "random", "depth-reversed", "depth-forward")

_ORDER = {
    "oneOf": [
        {"enum": list(ORDER_NAMES)},
        {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
    ]
}

_DATASET = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["generator", "n_train", "n_test"],
            "properties": {
                "generator": {"const": "synthetic-gaussian"},
                "n_train": {"type": "integer", "minimum": 1},
                "n_test": {"type": "integer", "minimum": 1},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["generator", "dim", "n"],
            "properties": {
                "generator": {"const": "toy-hierarchical"},
                "dim": {"type": "integer", "minimum": 4, "maximum": 64},
                "n": {"type": "integer", "minimum": 5},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["path"],
            "properties": {"path": {"type": "string"}},
        },
    ]
}

_MODEL = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"const": "qr-linear"},
                "n_householder": {"type": "integer", "minimum": 1},
                "offset": {"type": "boolean"},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"const": "lu-linear"},
                "offset": {"type": "boolean"},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "levels", "couplings_per_level"],
            "properties": {
                "kind": {"const": "coupling-multiscale"},
                "levels": {"type": "integer", "minimum": 1},
                "couplings_per_level": {"type": "integer", "minimum": 1},
                "hidden_width": {"type": "integer", "minimum": 1},
                "log_scale_bound": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    ]
}

_TRAIN = {
    "type": "object",
    "additionalProperties": False,
    "required": ["iterations", "batch_size", "lr_initial"],
    "properties": {
        "iterations": {"type": "integer", "minimum": 0},
        "batch_size": {"type": "integer", "minimum": 1},
        "lr_initial": {"type": "number", "exclusiveMinimum": 0},
        "lr_schedule": {"enum": ["constant", "cosine-to-zero"]},
    },
}

_ND = {
    "type": "object",
    "additionalProperties": False,
    "required": ["lambda", "p"],
    "properties": {
        "lambda": {"type": "number", "minimum": 0},
        "p": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "order": _ORDER,
    },
}

_EVAL = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "orders": {"type": "array", "items": _ORDER, "minItems": 1},
    },
}

EXPERIMENT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["dataset", "model", "train"],
    "properties": {
        "dataset": _DATASET,
        "model": _MODEL,
        "train": _TRAIN,
        "nd": _ND,
        "eval": _EVAL,
        "output_dir": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
    },
}

SWEEP_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["base", "grid"],
    "properties": {
        "base": EXPERIMENT_SCHEMA,
        "grid": {
            "type": "object",
            "minProperties": 1,
            "patternProperties": {"^.+$": {"type": "array", "minItems": 1}},
        },
        "seeds": {"type": "array", "items": {"type": "integer", "minimum": 0},
                  "minItems": 1},
        "output_dir": {"type": "string"},
    },
}


# JSON Schema counts 2.0 as an integer; range() and array shapes do not.
_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)))


class ConfigError(ValueError):
    """Invalid configuration document; message names the offending field."""


def _where(path) -> str:
    """A path into the document as messages name it: config.train.lr_initial."""
    json_path = jsonschema.exceptions.ValidationError("", path=path).json_path
    return json_path.replace("$", "config", 1)


def _reject_unrepresentable(doc, path=()):
    if isinstance(doc, float) and not math.isfinite(doc):
        raise ConfigError(f"{_where(path)}: non-finite number {doc}")
    if isinstance(doc, int) and not -2**63 <= doc < 2**63:
        raise ConfigError(f"{_where(path)}: integer out of range [-2**63, 2**63 - 1]")
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        _reject_unrepresentable(value, path + (key,))


def validate_config(doc: dict, schema: dict = EXPERIMENT_SCHEMA) -> dict:
    _reject_unrepresentable(doc)
    validator = _VALIDATOR(schema)
    errors = sorted(validator.iter_errors(doc), key=lambda e: len(e.absolute_path),
                    reverse=True)
    best = jsonschema.exceptions.best_match(errors)
    if best is not None:
        raise ConfigError(f"{_where(best.absolute_path)}: {best.message}")
    return doc


def load_config(path, schema: dict = EXPERIMENT_SCHEMA) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (ValueError, RecursionError) as e:
        # also bytes that are not UTF-8, over-long integers, deep nesting
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    try:
        return validate_config(doc, schema)
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None


def resolve_config(doc: dict) -> dict:
    """Fill defaults; returns a new document."""
    out = copy.deepcopy(doc)
    out.setdefault("seed", 0)
    train = out["train"]
    train.setdefault("lr_schedule", "constant")
    if out["model"]["kind"] == "coupling-multiscale":
        out["model"].setdefault("hidden_width", 32)
        out["model"].setdefault("log_scale_bound", 2.0)
    return out


def config_hash(doc: dict) -> str:
    """Hash of the scientific content (everything except output_dir)."""
    content = {k: v for k, v in doc.items() if k != "output_dir"}
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
