"""Experiment configuration: JSON documents under a strict schema.

Unknown keys are rejected everywhere so that stored run configs stay
unambiguous, and so are non-finite numbers (``NaN``, ``Infinity``,
``1e400``), integers outside int64 and integral floats such as ``2.0`` in
integer fields, which no setting accepts.
``load_config``/``validate_config`` raise ConfigError with the JSON path of
the offending field, as in ``config.train.lr_initial: 0 is less than or
equal to the minimum of 0``; of several errors the deepest is reported.

The schemas are JSON Schema (draft 2020-12) dicts, checked by a walker
that knows the keywords they use: ``type``, ``const``, ``enum``,
``oneOf``, ``required``, ``properties``, ``additionalProperties: false``,
``patternProperties``, ``minimum``, ``maximum``, ``exclusiveMinimum``,
``multipleOf`` (of integers), ``items``, ``minItems`` and
``minProperties`` (``$schema`` is ignored).
It accepts what a draft 2020-12 validator accepts, with ``integer``
meaning a JSON integer.  The branches of a ``oneOf`` differ in ``type`` or
in the ``const`` of one property (``generator``, ``kind``), which picks
the branch whose errors are reported.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import operator
import re

ORDER_NAMES = ("identity", "reversed", "random", "depth-reversed", "depth-forward")

_ORDER = {
    "oneOf": [
        {"type": "string", "enum": list(ORDER_NAMES)},
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
                "dim": {"type": "integer", "minimum": 4, "maximum": 64, "multipleOf": 4},
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


class ConfigError(ValueError):
    """Invalid configuration document; message names the offending field."""


_NAME = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _where(path) -> str:
    """A path into the document as messages name it: config.train.lr_initial,
    config.grid['nd.lambda'][1]."""
    out = "config"
    for key in path:
        if isinstance(key, int):
            out += f"[{key}]"
        elif _NAME.match(key):
            out += "." + key
        else:
            out += "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']"
    return out


def _reject_unrepresentable(doc, path=()):
    if isinstance(doc, float) and not math.isfinite(doc):
        raise ConfigError(f"{_where(path)}: non-finite number {doc}")
    if isinstance(doc, int) and not -2**63 <= doc < 2**63:
        raise ConfigError(f"{_where(path)}: integer out of range [-2**63, 2**63 - 1]")
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        _reject_unrepresentable(value, path + (key,))


# JSON types as Python types.  A bool is an int to Python but not to JSON,
# and JSON Schema's integer 2.0 is not one to range() or array shapes.
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": int}
_BOUNDS = (("minimum", operator.lt, "is less than the minimum of"),
           ("exclusiveMinimum", operator.le, "is less than or equal to the minimum of"),
           ("maximum", operator.gt, "is greater than the maximum of"),
           ("multipleOf", operator.mod, "is not a multiple of"))


def _is(value, kind: str) -> bool:
    return isinstance(value, _TYPES[kind]) and isinstance(value, bool) == (kind == "boolean")


def _one_of(value, branches: list, path: tuple, errors: list):
    """The branch of a ``oneOf`` that ``value`` is meant for: the one of its
    type, else the one whose ``const`` property it matches, else the one
    without that property.  None, with the reason in ``errors``, if none is."""
    typed = [b for b in branches if _is(value, b["type"])]
    if not typed:
        types = ", ".join(dict.fromkeys(repr(b["type"]) for b in branches))
        errors.append((path, f"{value!r} is not of type {types}"))
        return None
    if len(typed) == 1:
        return typed[0]
    key = next(k for b in typed for k, s in b["properties"].items() if "const" in s)
    named = [b for b in typed if key in b["properties"]]
    if key not in value:
        rest = [b for b in typed if b not in named]
        if not rest:
            errors.append((path, f"{key!r} is a required property"))
        return rest[0] if rest else None
    consts = [b["properties"][key]["const"] for b in named]
    if value[key] in consts:
        return named[consts.index(value[key])]
    errors.append((path + (key,), f"{value[key]!r} is not one of {consts!r}"))
    return None


def _check(value, schema: dict, path: tuple, errors: list) -> None:
    """Append (path, message) for each way ``value`` breaks ``schema``."""
    if "oneOf" in schema:
        schema = _one_of(value, schema["oneOf"], path, errors)
        if schema is None:
            return
    if "type" in schema and not _is(value, schema["type"]):
        errors.append((path, f"{value!r} is not of type {schema['type']!r}"))
        return
    if "const" in schema and value != schema["const"]:
        errors.append((path, f"{schema['const']!r} was expected"))
    if "enum" in schema and value not in schema["enum"]:
        errors.append((path, f"{value!r} is not one of {schema['enum']!r}"))
    if isinstance(value, dict):
        props = schema.get("properties", {})
        patterns = schema.get("patternProperties", {})
        if schema.get("additionalProperties") is False:
            extra = [repr(k) for k in sorted(value) if k not in props
                     and not any(re.search(p, k) for p in patterns)]
            if extra:
                verb = "was" if len(extra) == 1 else "were"
                errors.append((path, "Additional properties are not allowed "
                                     f"({', '.join(extra)} {verb} unexpected)"))
        errors += [(path, f"{k!r} is a required property")
                   for k in schema.get("required", ()) if k not in value]
        if len(value) < schema.get("minProperties", 0):
            errors.append((path, f"{value!r} should be non-empty"))
        for k, v in value.items():
            if k in props:
                _check(v, props[k], path + (k,), errors)
            for p, sub in patterns.items():
                if re.search(p, k):
                    _check(v, sub, path + (k,), errors)
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append((path, f"{value!r} should be non-empty"))
        if "items" in schema:
            for i, v in enumerate(value):
                _check(v, schema["items"], path + (i,), errors)
    elif _is(value, "number"):
        errors += [(path, f"{value!r} {text} {schema[word]!r}")
                   for word, broken, text in _BOUNDS
                   if word in schema and broken(value, schema[word])]


def validate_config(doc: dict, schema: dict = EXPERIMENT_SCHEMA) -> dict:
    _reject_unrepresentable(doc)
    errors = []
    _check(doc, schema, (), errors)
    if errors:
        path, message = max(errors, key=lambda e: len(e[0]))  # the first deepest
        raise ConfigError(f"{_where(path)}: {message}")
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
