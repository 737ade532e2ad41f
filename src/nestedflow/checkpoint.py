"""JSON checkpoints for flow models.

One document per model: schema version, dimension, the transform list with
named parameter blocks as decimal arrays, and the seed the model was built
from.  Floats are written in the shortest decimal form that parses back to
the identical float64, so save/load round trips are bit-exact.
"""

from __future__ import annotations

import json

import numpy as np

from .coupling import AffineCouplingTransform, MultiScaleFlow
from .flows import FlowModel, LULinearTransform, OffsetTransform, QRLinearTransform

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
    for i, t in enumerate(m.transforms):
        entry = {"type": t.kind}
        entry.update(t.config())
        entry["params"] = {
            name: m.params.block(f"t{i}.{name}").tolist()
            for name, _ in t.param_blocks
        }
        transforms.append(entry)
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


def model_from_dict(doc: dict) -> FlowModel:
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointError(f"unsupported checkpoint schema version {version!r}")
    try:
        dim = int(doc["dimension"])
        entries = doc["transforms"]
    except KeyError as e:
        raise CheckpointError(f"checkpoint missing field {e.args[0]!r}") from None
    transforms = []
    params = []
    for pos, entry in enumerate(entries):
        kind = entry.get("type")
        cls = _TRANSFORM_TYPES.get(kind)
        if cls is None:
            raise CheckpointError(f"unknown transform type {kind!r} at position {pos}")
        cfg = {k: v for k, v in entry.items() if k not in ("type", "params")}
        t = cls.from_config(cfg)
        blocks = entry.get("params", {})
        for name, size in t.param_blocks:
            if name not in blocks:
                raise CheckpointError(
                    f"transform {pos} ({kind}) missing parameter block {name!r}")
            block = np.asarray(blocks[name], dtype=np.float64)
            if block.size != size:
                raise CheckpointError(
                    f"transform {pos} ({kind}) block {name!r} has size "
                    f"{block.size}, expected {size}")
            if kind == QRLinearTransform.kind and name[0] == "v" \
                    and float(block @ block) == 0.0:
                raise CheckpointError(
                    f"transform {pos} ({kind}) Householder vector {name!r} "
                    f"is zero")
            params.append(block)
        transforms.append(t)
    flat = np.concatenate(params) if params else np.zeros(0)
    if "multiscale" in doc:
        ms = doc["multiscale"]
        return MultiScaleFlow(dim, transforms, flat, ms["depth_rank"],
                              ms["n_levels"], ms["couplings_per_level"])
    return FlowModel(dim, transforms, flat)


def save_model(m: FlowModel, path, rng_seed: int | None = None):
    with open(path, "w") as f:
        json.dump(model_to_dict(m, rng_seed), f, indent=1)
        f.write("\n")


def load_model(path) -> FlowModel:
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise CheckpointError(f"invalid checkpoint JSON: {e}") from None
    return model_from_dict(doc)
