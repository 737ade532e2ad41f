"""JSON checkpoints for flow models.

One document per model: schema version, dimension, the transform list with
named parameter blocks as decimal arrays, and the seed the model was built
from.  Floats are written in the shortest decimal form that parses back to
the identical float64, so save/load round trips are bit-exact.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json

import numpy as np

from .coupling import AffineCouplingTransform, MultiScaleFlow
from .flows import (FlowModel, LULinearTransform, OffsetTransform, QRLinearTransform,
                    split_blocks, transform_fields)

SCHEMA_VERSION = 1

_TRANSFORM_TYPES = {
    t.kind: t
    for t in (LULinearTransform, QRLinearTransform, OffsetTransform,
              AffineCouplingTransform)
}


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint document."""


def model_to_dict(m: FlowModel, rng_seed: int | None = None) -> dict:
    transforms = []
    for t, (lo, hi) in zip(m.transforms, m.spans):
        blocks = split_blocks(t, m.params.values[lo:hi])
        params = {name: block.tolist() for (name, _), block in zip(t.param_blocks, blocks)}
        transforms.append({"type": t.kind, **transform_fields(t), "params": params})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dimension": m.dim,
        "rng_seed": rng_seed,
        "transforms": transforms,
    }
    if isinstance(m, MultiScaleFlow):
        doc["multiscale"] = {
            "n_levels": m.n_levels,
            "couplings_per_level": m.couplings_per_level,
            "depth_rank": m.depth_rank.tolist(),
        }
    return doc


@contextlib.contextmanager
def _malformed(what: str):
    """Re-raise a failure to read ``what`` as a one-line CheckpointError."""
    try:
        yield
    except CheckpointError:
        raise
    except KeyError as e:
        raise CheckpointError(f"{what} missing field {e.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as e:
        raise CheckpointError(f"malformed {what}: {e}") from None


def model_from_dict(doc: dict) -> FlowModel:
    """Rebuild a model; any malformed field raises a one-line CheckpointError."""
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointError(f"unsupported checkpoint schema version {version!r}")
    with _malformed("checkpoint"):
        dim = doc["dimension"]
        entries = doc["transforms"]
    if not isinstance(dim, int):
        raise CheckpointError(f"checkpoint dimension {dim!r} is not an integer")
    if not isinstance(entries, list):
        raise CheckpointError("checkpoint field 'transforms' must be a list")
    transforms = []
    params = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CheckpointError(f"transform {pos} must be a JSON object")
        with _malformed(f"transform {pos}"):
            kind = entry.get("type")
            cls = _TRANSFORM_TYPES.get(kind)
            if cls is None:
                raise CheckpointError(
                    f"unknown transform type {kind!r} at position {pos}")
            names = [f.name for f in dataclasses.fields(cls)]
            unknown = [k for k in entry if k not in ("type", *names, "params")]
            if unknown:
                raise CheckpointError(f"transform {pos} ({kind}) has unknown field {unknown[0]!r}")
            for f in dataclasses.fields(cls):  # every field but a float holds integers
                values = np.asarray(entry[f.name])
                if f.type != "float" and values.size and values.dtype.kind not in "iu":
                    raise CheckpointError(f"transform {pos} ({kind}) field {f.name!r} must "
                                          "hold JSON integers")
            t = cls(**{name: entry[name] for name in names})
            blocks = entry.get("params", {})
            for name, size in t.param_blocks:
                if name not in blocks:
                    raise CheckpointError(
                        f"transform {pos} ({kind}) missing parameter block {name!r}")
                block = np.asarray(blocks[name], dtype=np.float64)
                if block.shape != (size,):
                    raise CheckpointError(
                        f"transform {pos} ({kind}) block {name!r} has shape "
                        f"{block.shape}, expected size {size}")
                if kind == QRLinearTransform.kind and name[0] == "v" \
                        and float(block @ block) == 0.0:
                    raise CheckpointError(
                        f"transform {pos} ({kind}) Householder vector {name!r} "
                        f"is zero")
                params.append(block)
        transforms.append(t)
    flat = np.concatenate(params) if params else np.zeros(0)
    with _malformed("checkpoint"):
        if "multiscale" not in doc:
            return FlowModel(dim, transforms, flat)
        fields = {**doc["multiscale"]}
        depth_rank = fields.pop("depth_rank")
        m = MultiScaleFlow(dim, transforms, flat, **fields)
    if m.depth_rank.tolist() != depth_rank:
        raise CheckpointError(f"checkpoint multiscale field 'depth_rank' does not match "
                              f"n_levels {m.n_levels}: expected {m.depth_rank.tolist()}")
    return m


def save_model(m: FlowModel, path, rng_seed: int | None = None):
    with open(path, "w") as f:
        json.dump(model_to_dict(m, rng_seed), f, indent=1)
        f.write("\n")


def load_model(path) -> FlowModel:
    with open(path) as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as e:
            raise CheckpointError(f"{path}: invalid checkpoint JSON ({e})") from None
    return model_from_dict(doc)
