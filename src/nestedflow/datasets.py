"""Dataset generation, splits, and CSV round trips.

Two generators: the 3-D Gaussian whose covariance has eigenvalues
(1, 0.1, 0.01) under a seed-derived rotation, and a higher-dimensional
"toy hierarchical" Gaussian with a geometrically decaying spectrum
(ratio 0.6) under a rotation, giving compact but non-axis-aligned
structure at any D.

On disk a dataset is a headerless CSV (one row per point, 17 significant
digits) plus a ``<path>.meta.json`` sidecar holding generator provenance
and split ranges.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import random_rotation

SPLIT_NAMES = ("train", "val", "test")
_SAVE_BLOCK_ROWS = 256


class DatasetFormatError(ValueError):
    """Unreadable dataset file or sidecar; the message names the offending
    line or split."""


@dataclass(frozen=True)
class Dataset:
    """Immutable N x D point table with named half-open split ranges."""

    points: np.ndarray
    split: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D table")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        n = pts.shape[0]
        used = []
        for name, (start, stop) in self.split.items():
            if name not in SPLIT_NAMES:
                raise ValueError(f"unknown split name {name!r}")
            if not (0 <= start <= stop <= n):
                raise ValueError(f"split {name!r} range ({start}, {stop}) out of bounds")
            used.append((start, stop))
        used.sort()
        for (_, stop_a), (start_b, _) in zip(used, used[1:]):
            if start_b < stop_a:
                raise ValueError("split ranges overlap")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def get_split(self, name: str) -> np.ndarray:
        start, stop = self.split[name]
        return self.points[start:stop]

    def has_split(self, name: str) -> bool:
        start, stop = self.split.get(name, (0, 0))
        return stop > start


def gen_synthetic_gaussian(n_train: int, n_test: int, seed: int) -> Dataset:
    """Centered 3-D Gaussian with covariance eigenvalues (1, 0.1, 0.01)
    under a seed-derived uniformly random rotation (det +1)."""
    if n_train < 1 or n_test < 1:
        raise ValueError("split sizes must be at least 1")
    eigenvalues = np.array([1.0, 0.1, 0.01])
    rng = np.random.default_rng(seed)
    rotation = random_rotation(3, rng)
    n = n_train + n_test
    points = (rng.standard_normal((n, 3)) * np.sqrt(eigenvalues)) @ rotation.T
    return Dataset(
        points=points,
        split={"train": (0, n_train), "test": (n_train, n)},
        provenance={
            "generator": "synthetic-gaussian",
            "seed": int(seed),
            "parameters": {
                "n_train": n_train,
                "n_test": n_test,
                "eigenvalues": eigenvalues.tolist(),
                "rotation": rotation.tolist(),
            },
        },
    )


def gen_toy_hierarchical(dim: int, n: int, seed: int) -> Dataset:
    """Rotated Gaussian with spectrum 0.6**i, split 80/20 train/test."""
    if dim % 4 != 0 or not 4 <= dim <= 64:
        raise ValueError("dim must be a multiple of 4, at most 64")
    if n < 5:
        raise ValueError("need at least 5 points for an 80/20 split")
    eigenvalues = 0.6 ** np.arange(dim)
    rng = np.random.default_rng(seed)
    rotation = random_rotation(dim, rng)
    points = (rng.standard_normal((n, dim)) * np.sqrt(eigenvalues)) @ rotation.T
    n_train = (4 * n) // 5
    return Dataset(
        points=points,
        split={"train": (0, n_train), "test": (n_train, n)},
        provenance={
            "generator": "toy-hierarchical",
            "seed": int(seed),
            "parameters": {
                "dim": dim,
                "n": n,
                "spectrum_ratio": 0.6,
                "rotation": rotation.tolist(),
            },
        },
    )


def save_dataset(d: Dataset, path):
    path = Path(path)
    row_format = ",".join(["%.17g"] * d.dim) + "\n"
    with open(path, "w") as f:
        # One format call per block of rows: a whole-table tolist() costs
        # memory, and one call per row costs time.
        for start in range(0, d.points.shape[0], _SAVE_BLOCK_ROWS):
            block = d.points[start : start + _SAVE_BLOCK_ROWS]
            f.write((row_format * block.shape[0]) % tuple(block.ravel().tolist()))
    meta = {
        "generator": d.provenance.get("generator"),
        "seed": d.provenance.get("seed"),
        "parameters": d.provenance.get("parameters", {}),
        "splits": {name: list(rng) for name, rng in d.split.items()},
    }
    with open(path.with_name(path.name + ".meta.json"), "w") as f:
        json.dump(meta, f, indent=1)
        f.write("\n")


def load_dataset(path) -> Dataset:
    path = Path(path)
    rows = []
    width = None
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise DatasetFormatError(
                    f"{path}: line {lineno} is not UTF-8 ({e.reason})") from None
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DatasetFormatError(
                    f"{path}: line {lineno} has {len(cells)} columns, expected {width}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: non-numeric cell at line {lineno}") from None
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    points = np.array(rows)
    meta_path = path.with_name(path.name + ".meta.json")
    if not meta_path.exists():
        warnings.warn(f"no sidecar {meta_path.name}; loading with empty provenance")
        return Dataset(points=points, split={"train": (0, len(points))})
    with open(meta_path) as f:
        try:
            meta = json.load(f)
        except (ValueError, RecursionError) as e:
            raise DatasetFormatError(f"{meta_path}: not valid JSON ({e})") from None
    splits = meta.get("splits", {}) if isinstance(meta, dict) else None
    if not isinstance(splits, dict):
        raise DatasetFormatError(
            f"{meta_path}: the sidecar and its \"splits\" must be JSON objects")
    for name, rng in splits.items():
        if not (isinstance(rng, list) and len(rng) == 2
                and all(type(i) is int for i in rng)):
            raise DatasetFormatError(f"{meta_path}: split {name!r} must be a "
                                     f"[start, stop] integer pair, got {rng!r}")
    if "train" not in splits:
        raise DatasetFormatError(f"{meta_path}: no \"train\" split")
    split = {name: tuple(rng) for name, rng in splits.items()}
    provenance = {k: meta.get(k) for k in ("generator", "seed", "parameters")}
    return Dataset(points=points, split=split, provenance=provenance)
