"""Dataset generation, splits, and CSV round trips.

Two generators: the 3-D Gaussian whose covariance has eigenvalues
(1, 0.1, 0.01) under a seed-derived rotation, and a higher-dimensional
"toy hierarchical" Gaussian with a geometrically decaying spectrum
(ratio 0.6) under a rotation, giving compact but non-axis-aligned
structure at any D.

On disk a dataset is a headerless CSV (one row per point, 17 significant
digits) plus a ``<path>.meta.json`` sidecar holding generator provenance
and split ranges; this module alone reads, writes and copies the pair.

Every CSV goes through :func:`write_csv`, as ``format(v, ".17g")`` per value:
for zeros and 1e-11 < |v| < 1e14 it finds dtoa's correctly rounded 17-digit
significand exactly in 128-bit integers and lays it out by the rules of ``%g``
in array operations; blocks under 256 values or with other values use ``%``.
"""

from __future__ import annotations

import json
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import random_rotation

SPLIT_NAMES = ("train", "val", "test")
_SIDECAR = ".meta.json"  # a dataset CSV's provenance and splits are at its path + _SIDECAR
_BLOCK_VALUES = 2**12  # per CSV block: its working set stays under 1 MB
GAUSSIAN_EIGENVALUES = (1.0, 0.1, 0.01)  # of the synthetic-gaussian covariance


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
        for name, (start, stop) in self.split.items():
            if name not in SPLIT_NAMES:
                raise ValueError(f"unknown split name {name!r}")
            if not (0 <= start <= stop <= len(pts)):
                raise ValueError(f"split {name!r} range ({start}, {stop}) out of bounds")
        used = sorted(self.split.values())
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


def _rotated_gaussian(generator, eigenvalues, n, n_train, seed, parameters) -> Dataset:
    """n points of a centered Gaussian with covariance eigenvalues
    ``eigenvalues`` under a seed-derived uniformly random rotation (det +1);
    the first n_train are the train split and the rest the test split."""
    rng = np.random.default_rng(seed)
    rotation = random_rotation(len(eigenvalues), rng)
    points = (rng.standard_normal((n, len(eigenvalues))) * np.sqrt(eigenvalues)) @ rotation.T
    return Dataset(points, split={"train": (0, n_train), "test": (n_train, n)},
                   provenance={"generator": generator, "seed": int(seed),
                               "parameters": {**parameters, "rotation": rotation.tolist()}})


def gen_synthetic_gaussian(n_train: int, n_test: int, seed: int) -> Dataset:
    """Rotated 3-D Gaussian with covariance eigenvalues (1, 0.1, 0.01)."""
    if n_train < 1 or n_test < 1:
        raise ValueError("split sizes must be at least 1")
    eigenvalues = list(GAUSSIAN_EIGENVALUES)
    return _rotated_gaussian("synthetic-gaussian", eigenvalues, n_train + n_test, n_train, seed,
                             {"n_train": n_train, "n_test": n_test, "eigenvalues": eigenvalues})


def gen_toy_hierarchical(dim: int, n: int, seed: int) -> Dataset:
    """Rotated Gaussian with spectrum 0.6**i, split 80/20 train/test."""
    if dim % 4 != 0 or not 4 <= dim <= 64:
        raise ValueError("dim must be a multiple of 4, at most 64")
    if n < 5:
        raise ValueError("need at least 5 points for an 80/20 split")
    return _rotated_gaussian("toy-hierarchical", 0.6 ** np.arange(dim), n, (4 * n) // 5, seed,
                             {"dim": dim, "n": n, "spectrum_ratio": 0.6})


def spec_dim(spec: dict) -> int | None:
    """The dimension of a valid inline config dataset spec; None for a ``path`` one."""
    if "path" in spec:
        return None
    return spec["dim"] if spec["generator"] == "toy-hierarchical" else len(GAUSSIAN_EIGENVALUES)


def _layout_tables():
    """A value's 32-byte text row: 7 '0's and 17 digits in bytes 0-23, the dot at
    8 + X (8 if X < -4), e-XX at 25-28.  By X + 11: word masks of the bytes kept
    and moved one right, constant bytes; by 2 * (17 * (X + 11) + digits - 1) +
    negative: the bytes that are text.  The separator goes in byte 31."""
    x = np.arange(26).reshape(26, 1, 1, 1) - 11
    nd, neg, col = np.arange(1, 18).reshape(17, 1, 1), np.arange(2).reshape(2, 1), np.arange(32)
    xp = np.where(x < -4, 0, x)  # digits before the dot, less one
    start, dot = 7 + np.minimum(xp, 0), 8 + xp
    end = np.where(nd > xp + 1, 8 + nd, 8 + xp)  # trailing zeros and a bare dot dropped
    text = (col >= start - neg) & (col < end) | (x < -4) & (col >= 25) & (col < 29) | (col == 31)
    const = np.where(col == dot, ord("."), np.where(col == start - 1, ord("-"), 0))
    const[:7, 0, 0, 25:29] = [list(b"e-%02d" % -e) for e in range(-11, -4)]
    keep, shift = (col < dot) & (col != start - 1), (col > dot) & (col < 25)
    return (*(np.ascontiguousarray(b.reshape(26, 32), np.uint8).view("<u4")
              for b in (keep * 255, shift * 255, const)), text.reshape(-1, 32))


_KEEP, _SHIFT, _CONST, _TEXT = _layout_tables()
_POW5 = 5 ** np.arange(28, dtype=np.uint64)
_N4 = np.arange(10**4, dtype=np.int16)  # 4-digit groups: text, last nonzero digit (1-4)
_DIGITS4 = (_N4[:, None] // np.int16([1000, 100, 10, 1]) % 10 + 48).astype("u1").view("<u4").ravel()
_LAST4 = np.where(_N4 == 0, -99, 4 - sum(_N4 % 10**j == 0 for j in (1, 2, 3))).astype(np.int8)


def _encode_block(block):
    rows, dim = block.shape
    v = block.ravel()
    a = np.abs(v)
    zero = a == 0.0
    # % is faster below 256 values; the double 1e-11 lies below 10**-11
    if v.size < 256 or not np.all(zero | (a > 1e-11) & (a < 1e14)):
        return ((",".join(["%.17g"] * dim) + "\n") * rows % tuple(v.tolist())).encode()
    a[zero] = 1.0
    frac, e2 = np.frexp(a)
    m, e2 = np.ldexp(frac, 53).astype(np.uint64), e2 - 53
    e10 = np.clip(np.floor(np.log10(a)).astype(np.int64), -11, 13)
    for _ in range(2):  # a second pass when log10 is one off near 10**E
        # t = floor(m * 2**e2 * 10**k), m * 5**k a 128-bit (hi, lo) pair of 32-bit
        # limb products shifted right by s bits: k <= 27, 1 <= s <= 63 in range
        s, p = (e10 - 16 - e2).astype(np.uint64), _POW5[16 - e10]
        m0, m1, p0, p1 = m & 0xFFFFFFFF, m >> 32, p & 0xFFFFFFFF, p >> 32
        low, mid = m0 * p0, m0 * p1 + m1 * p0
        carry = (low >> 32) + (mid & 0xFFFFFFFF)
        lo = (low & 0xFFFFFFFF) | (carry << 32)
        t = ((m1 * p1 + (mid >> 32) + (carry >> 32)) << (64 - s)) | (lo >> s)
        off = (t < 10**16).astype(np.int64) - (t >= 10**17)
        if not off.any():
            break
        e10 -= off
    rest = lo & ((1 << s) - 1)  # rounds up past half, or at half to even
    q = t + ((rest + (1 << (s - 1)) - 1 + (t & 1)) >> s)
    del m, frac, e2, s, p, m0, m1, p0, p1, low, mid, carry, lo, t, rest  # halves the peak memory
    q[zero] = 0  # q < 10**17: no double in range is within 1/2 digit below 10**n
    groups = np.array([q // 10**j for j in (16, 12, 8, 4, 0)], np.intp)
    groups[1:] -= groups[:-1] * 10**4  # the leading digit, then 4 groups of 4
    words = np.full((v.size, 8), _DIGITS4[0], "<u4")
    nd = np.ones(v.size, np.int8)
    for j, g in enumerate(groups):
        words[:, j + 1] = _DIGITS4[g]
        np.maximum(nd, _LAST4[g] + (4 * j - 3), out=nd)
    shifted = words << 8
    shifted.ravel()[1:] |= words.ravel()[:-1] >> 24  # carry bytes across words
    xi = e10 + 11
    # np.take copies whole table rows; fancy indexing goes element by element
    words &= np.take(_KEEP, xi, axis=0)
    words |= shifted & np.take(_SHIFT, xi, axis=0)
    words |= np.take(_CONST, xi, axis=0)
    text = words.view(np.uint8)
    text.reshape(rows, dim, 32)[:, :, 31] = list(b"," * (dim - 1) + b"\n")
    return text[np.take(_TEXT, 2 * (17 * xi + nd - 1) + np.signbit(v), axis=0)]


def write_csv(path, table, header=""):
    """Write ``header``, then a 2-D table's rows, each value as format(v, ".17g")."""
    table = np.asarray(table, dtype=np.float64)
    step = max(1, _BLOCK_VALUES // table.shape[1])
    with open(path, "wb") as f:
        f.write(header.encode())
        for start in range(0, table.shape[0], step):
            f.write(_encode_block(table[start : start + step]))


def save_dataset(d: Dataset, path):
    write_csv(path, d.points)
    meta = {
        "generator": d.provenance.get("generator"),
        "seed": d.provenance.get("seed"),
        "parameters": d.provenance.get("parameters", {}),
        "splits": {name: list(rng) for name, rng in d.split.items()},
    }
    Path(f"{path}{_SIDECAR}").write_text(json.dumps(meta, indent=1) + "\n")


def copy_dataset(src, dst):
    """Copy the dataset CSV at ``src`` and its sidecar to ``dst``."""
    shutil.copyfile(src, dst)
    shutil.copyfile(f"{src}{_SIDECAR}", f"{dst}{_SIDECAR}")


def load_dataset(path) -> Dataset:
    """A dataset CSV (UTF-8 lines split on "\\n", stripped, blank ones skipped,
    cells read by ``float``) and its sidecar; errors name the file and line."""
    path = Path(path)
    rows, linenos = [], []
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
            width = width or len(cells)
            if len(cells) != width:
                raise DatasetFormatError(
                    f"{path}: line {lineno} has {len(cells)} columns, expected {width}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise DatasetFormatError(f"{path}: non-numeric cell at line {lineno}") from None
            linenos.append(lineno)
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    points = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise DatasetFormatError(f"{path}: non-finite cell at line {linenos[bad[0]]}")
    meta_path = Path(f"{path}{_SIDECAR}")
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
    try:
        return Dataset(points=points, split=split, provenance=provenance)
    except ValueError as e:  # a split out of bounds, overlapping or unknown
        raise DatasetFormatError(f"{meta_path}: {e}") from None
