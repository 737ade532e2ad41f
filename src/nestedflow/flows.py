"""Invertible transforms, the standard-normal base density, and flow models.

Transforms are pure structure: they describe parameter block layouts and how
to apply/invert themselves given a view of the flat parameter vector.  The
:class:`FlowModel` owns the actual parameter values.  The transforms here are
written against the :mod:`nestedflow.autodiff` primitives and the affine
coupling records one fused node per application; either way
:func:`nestedflow.autodiff.record` decides what is taped, so one code path
maps plain arrays and, under gradient evaluation, tape nodes.

Batches are row-major: ``X`` has shape ``(N, D)``.  Per-point column vectors
``z = W x`` become ``Z = X W^T`` on batches.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterVector, Var

LOG_TWO_PI = math.log(2.0 * math.pi)


class FlowEvalError(ArithmeticError):
    """A transform produced a non-finite intermediate value."""


class BlockView:
    """Named access to a transform's parameter blocks within a flat vector.

    ``theta`` is the flat vector (array or tape node) and ``ranges`` maps
    block names to half-open index ranges in it.
    """

    def __init__(self, theta, ranges):
        self.theta = theta
        self.ranges = ranges

    def __getitem__(self, name):
        start, stop = self.ranges[name]
        return ad.slice_1d(self.theta, start, stop)


class LULinearTransform:
    """Invertible linear map ``z = P L U x``.

    ``P`` is a fixed (never trained) permutation; ``L`` is unit-lower
    triangular with free strictly-lower entries; ``U`` is upper triangular
    with free strictly-upper entries and ``diag(U) = exp(s)``, so the map is
    invertible for every parameter value and ``log|det| = sum(s)``.
    """

    kind = "lu_linear"

    def __init__(self, dim: int, permutation):
        self.dim = dim
        self.permutation = np.asarray(permutation, dtype=np.int64)
        if sorted(self.permutation.tolist()) != list(range(dim)):
            raise ValueError("permutation must be a bijection on 0..D-1")
        self._inv_permutation = np.argsort(self.permutation)
        self._low = np.tril_indices(dim, k=-1)
        self._up = np.triu_indices(dim, k=1)
        self._diag = np.arange(dim)
        n_off = dim * (dim - 1) // 2
        self.param_blocks = [
            ("lower", n_off),
            ("upper_offdiag", n_off),
            ("upper_logdiag", dim),
        ]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        n = sum(size for _, size in self.param_blocks)
        return 1e-2 * rng.standard_normal(n)

    def _factors(self, p: BlockView):
        d = self.dim
        lower = ad.matrix_from_entries(np.eye(d), self._low[0], self._low[1], p["lower"])
        entries = ad.concat_1d([p["upper_offdiag"], ad.exp(p["upper_logdiag"])])
        rows = np.concatenate([self._up[0], self._diag])
        cols = np.concatenate([self._up[1], self._diag])
        upper = ad.matrix_from_entries(np.zeros((d, d)), rows, cols, entries)
        return lower, upper

    def forward(self, p: BlockView, x):
        lower, upper = self._factors(p)
        y = ad.matmul(ad.matmul(x, ad.transpose(upper)), ad.transpose(lower))
        z = ad.gather_cols(y, self._inv_permutation)
        return z, ad.vsum(p["upper_logdiag"])

    def inverse(self, p: BlockView, z):
        lower, upper = self._factors(p)
        y = ad.gather_cols(z, self.permutation)
        w = ad.solve_triangular_rows(y, ad.transpose(lower), lower=False)
        return ad.solve_triangular_rows(w, ad.transpose(upper), lower=True)

    def config(self):
        return {"dim": self.dim, "permutation": self.permutation.tolist()}

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg["dim"], cfg["permutation"])


class QRLinearTransform:
    """Invertible linear map ``z = Q R x``.

    ``Q`` is the product of Householder reflections given by free vectors
    ``v_0 .. v_{H-1}`` (applied ``v_0`` first); ``R`` is upper triangular with
    ``diag(R) = exp(s)``.  ``log|det| = sum(s)`` since reflections have unit
    absolute determinant.
    """

    kind = "qr_linear"

    def __init__(self, dim: int, n_householder: int | None = None):
        self.dim = dim
        self.n_householder = dim if n_householder is None else n_householder
        if self.n_householder < 1:
            raise ValueError("need at least one Householder vector")
        self._up = np.triu_indices(dim, k=1)
        self._diag = np.arange(dim)
        n_off = dim * (dim - 1) // 2
        self.param_blocks = [(f"v{h}", dim) for h in range(self.n_householder)]
        self.param_blocks += [("upper_offdiag", n_off), ("upper_logdiag", dim)]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        parts = []
        for _ in range(self.n_householder):
            v = rng.standard_normal(self.dim)
            parts.append(v / np.sqrt(v @ v))
        n_off = self.dim * (self.dim - 1) // 2
        parts.append(1e-2 * rng.standard_normal(n_off))
        parts.append(1e-2 * rng.standard_normal(self.dim))
        return np.concatenate(parts)

    def _upper(self, p: BlockView):
        d = self.dim
        entries = ad.concat_1d([p["upper_offdiag"], ad.exp(p["upper_logdiag"])])
        rows = np.concatenate([self._up[0], self._diag])
        cols = np.concatenate([self._up[1], self._diag])
        return ad.matrix_from_entries(np.zeros((d, d)), rows, cols, entries)

    def forward(self, p: BlockView, x):
        r = self._upper(p)
        y = ad.matmul(x, ad.transpose(r))
        for h in range(self.n_householder):
            y = ad.householder_rows(p[f"v{h}"], y)
        return y, ad.vsum(p["upper_logdiag"])

    def inverse(self, p: BlockView, z):
        y = z
        for h in range(self.n_householder - 1, -1, -1):
            y = ad.householder_rows(p[f"v{h}"], y)
        r = self._upper(p)
        return ad.solve_triangular_rows(y, ad.transpose(r), lower=True)

    def config(self):
        return {"dim": self.dim, "n_householder": self.n_householder}

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg["dim"], cfg["n_householder"])


class OffsetTransform:
    """Additive offset ``z = x + b`` (zero log-determinant)."""

    kind = "offset"

    def __init__(self, dim: int):
        self.dim = dim
        self.param_blocks = [("offset", dim)]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.dim)

    def forward(self, p: BlockView, x):
        return ad.add(x, p["offset"]), 0.0

    def inverse(self, p: BlockView, z):
        return ad.sub(z, p["offset"])

    def config(self):
        return {"dim": self.dim}

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg["dim"])


def standard_normal_logpdf_rows(z):
    """Per-row log density; accepts arrays or tape nodes of shape (N, D)."""
    d = np.shape(ad._val(z))[1]
    sq = ad.vsum(ad.square(z), axis=1)
    return ad.add(ad.mul(sq, -0.5), -0.5 * d * LOG_TWO_PI)


class FlowModel:
    """An ordered composition of invertible transforms over a standard-normal
    base distribution in ``D`` dimensions.  Owns the flat trainable
    parameter vector; transforms hold structure only."""

    def __init__(self, dim: int, transforms, params: np.ndarray):
        self.dim = dim
        self.transforms = list(transforms)
        for t in self.transforms:
            if t.dim != dim:
                raise ValueError("all transforms must share the model dimension")
        registry = {}
        offset = 0
        self._ranges = []  # per-transform {block: (start, stop)} in flat coords
        for i, t in enumerate(self.transforms):
            ranges = {}
            for name, size in t.param_blocks:
                registry[f"t{i}.{name}"] = (offset, offset + size)
                ranges[name] = (offset, offset + size)
                offset += size
            self._ranges.append(ranges)
        params = np.asarray(params, dtype=np.float64)
        if params.size != offset:
            raise ValueError(f"expected {offset} parameters, got {params.size}")
        self.params = ParameterVector(params, registry)

    @property
    def n_params(self) -> int:
        return len(self.params)

    def set_params(self, values: np.ndarray):
        self.params = self.params.with_values(np.asarray(values, dtype=np.float64))

    def _theta(self, theta):
        return self.params.values if theta is None else theta

    def _view(self, theta, i) -> BlockView:
        return BlockView(theta, self._ranges[i])

    def forward_batch(self, x, theta=None):
        """Map data rows to latent rows; returns ``(Z, log_abs_det)`` where
        the log-determinant is a scalar or per-row vector."""
        theta = self._theta(theta)
        tracked = isinstance(theta, Var) or isinstance(x, Var)
        z = x
        logdet = 0.0
        for i, t in enumerate(self.transforms):
            z, ld = t.forward(self._view(theta, i), z)
            logdet = ad.add(logdet, ld)
            if not tracked and not np.all(np.isfinite(ad._val(z))):
                raise FlowEvalError(f"non-finite output of transform {i} ({t.kind})")
        return z, logdet

    def inverse_batch(self, z, theta=None):
        """Map latent rows back to data rows."""
        theta = self._theta(theta)
        tracked = isinstance(theta, Var) or isinstance(z, Var)
        x = z
        for i in range(len(self.transforms) - 1, -1, -1):
            x = self.transforms[i].inverse(self._view(theta, i), x)
            if not tracked and not np.all(np.isfinite(ad._val(x))):
                raise FlowEvalError(
                    f"non-finite output of inverse transform {i} ({self.transforms[i].kind})"
                )
        return x

    def log_likelihood_batch(self, x, theta=None):
        """Per-row log likelihood under the flow (nats)."""
        z, logdet = self.forward_batch(x, theta)
        return ad.add(standard_normal_logpdf_rows(z), logdet)

    def sample_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((n, self.dim))
        return self.inverse_batch(z)


def build_lu_flow(dim: int, rng: np.random.Generator, offset: bool = False) -> FlowModel:
    """Single LU-parameterized linear flow; the permutation is drawn from
    ``rng`` and then frozen."""
    transforms = []
    if offset:
        transforms.append(OffsetTransform(dim))
    transforms.append(LULinearTransform(dim, rng.permutation(dim)))
    params = np.concatenate([t.init_params(rng) for t in transforms])
    return FlowModel(dim, transforms, params)


def build_qr_flow(dim: int, rng: np.random.Generator,
                  n_householder: int | None = None, offset: bool = False) -> FlowModel:
    """Single QR-parameterized linear flow (default: D Householder vectors)."""
    transforms = []
    if offset:
        transforms.append(OffsetTransform(dim))
    transforms.append(QRLinearTransform(dim, n_householder))
    params = np.concatenate([t.init_params(rng) for t in transforms])
    return FlowModel(dim, transforms, params)
