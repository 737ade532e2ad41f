"""Invertible transforms, the standard-normal base density, and flow models.

Transforms are pure structure: they describe parameter block layouts and how
to apply/invert themselves given a view of the flat parameter vector.  The
:class:`FlowModel` owns the actual parameter values.  The QR and LU linear
layers build their D×D matrix from its factors and apply it to the batch
with one matmul; they and the affine coupling compute in numpy and register
each application as one fused node through :meth:`BlockView.fuse`, while
the offset is written in :mod:`nestedflow.autodiff` primitives.  Either way
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

    @property
    def span(self):
        """Half-open range of all the transform's blocks, which lie
        contiguously in ``ranges`` order."""
        ranges = list(self.ranges.values())
        return ranges[0][0], ranges[-1][1]

    def array(self, name) -> np.ndarray:
        """The block's values as a plain array, never a tape node."""
        start, stop = self.ranges[name]
        return ad._val(self.theta)[start:stop]

    def fuse(self, x, out, op, backward):
        """Record ``out`` as one tape node over the parameter vector and the
        input ``x`` (a constant ``x``, such as None, is no parent).

        ``backward(g)`` returns the gradients of the transform's parameter
        :attr:`span` and of ``x``; it runs once per backward pass and serves
        both parents.
        """
        start, stop = self.span
        n_theta = np.shape(ad._val(self.theta))[0]
        cache = []

        def both(g):
            if not cache:
                cache.append(backward(g))
            return cache[0]

        def vjp_theta(g):
            full = np.zeros(n_theta)
            full[start:stop] = both(g)[0]
            return full

        return ad.record(out, ((self.theta, vjp_theta), (x, lambda g: both(g)[1])), op)


class _LinearTransform:
    """A linear map ``z = x @ A`` whose D×D matrix ``A`` is built from
    factors, among them an upper triangular matrix with free strictly-upper
    entries (block ``upper_offdiag``) and ``diag = exp(s)`` (block
    ``upper_logdiag``), so ``log|det| = sum(s)``.

    Subclasses define ``_map(p) -> (A, diag, vjp)``, where ``vjp`` turns
    ``dL/dA`` into the gradient of the layer's parameter span.  Forward and
    inverse each apply ``A`` or ``A^-1`` to the batch with one matmul and,
    under gradient recording, become one tape node; the log-determinant is
    one more.
    """

    def _upper(self, p: BlockView):
        """The upper triangular factor and its diagonal ``exp(s)``."""
        diag = np.exp(p.array("upper_logdiag"))
        u = np.diag(diag)
        u[self._up] = p.array("upper_offdiag")
        return u, diag

    def _upper_grad(self, gu, diag):
        """Gradients of the upper_offdiag and upper_logdiag blocks."""
        return [gu[self._up], np.diagonal(gu) * diag]

    def forward(self, p: BlockView, x):
        a, _, vjp = self._map(p)
        xv = ad._val(x)
        z = p.fuse(x, np.matmul(xv, a), f"{self.kind}_forward",
                   lambda g: (vjp(np.matmul(xv.T, g)), np.matmul(g, a.T)))
        return z, self._logdet(p)

    def _logdet(self, p: BlockView):
        start, stop = p.span
        lo, hi = p.ranges["upper_logdiag"]

        def backward(g):
            out = np.zeros(stop - start)
            out[lo - start : hi - start] = g
            return out, None

        return p.fuse(None, np.sum(p.array("upper_logdiag")), f"{self.kind}_logdet",
                      backward)

    def inverse(self, p: BlockView, z):
        a, diag, vjp = self._map(p)
        zero = np.flatnonzero(diag == 0.0)
        if zero.size:
            raise ZeroDivisionError(f"zero diagonal entry at index {zero[0]}")
        try:
            b = np.linalg.inv(a)
        except np.linalg.LinAlgError:  # a pivot underflowed to 0: numerical
            raise ZeroDivisionError(f"singular {self.kind} matrix") from None
        zv = ad._val(z)

        def backward(g):
            # x = z @ B with B = A^-1, and dB = -B dA B.
            ga = -np.matmul(np.matmul(b.T, np.matmul(zv.T, g)), b.T)
            return vjp(ga), np.matmul(g, b.T)

        return p.fuse(z, np.matmul(zv, b), f"{self.kind}_inverse", backward)


class LULinearTransform(_LinearTransform):
    """Invertible linear map ``z = P L U x``.

    ``P`` is a fixed (never trained) permutation; ``L`` is unit-lower
    triangular with free strictly-lower entries; ``U`` is upper triangular
    with free strictly-upper entries and ``diag(U) = exp(s)``, so the map is
    invertible for every parameter value and ``log|det| = sum(s)``.  On
    row batches ``A = (U^T L^T)[:, P^-1]``.
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
        n_off = dim * (dim - 1) // 2
        self.param_blocks = [
            ("lower", n_off),
            ("upper_offdiag", n_off),
            ("upper_logdiag", dim),
        ]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        n = sum(size for _, size in self.param_blocks)
        return 1e-2 * rng.standard_normal(n)

    def _map(self, p: BlockView):
        lower = np.eye(self.dim)
        lower[self._low] = p.array("lower")
        upper, diag = self._upper(p)
        a = np.matmul(upper.T, lower.T)[:, self._inv_permutation]

        def vjp(ga):
            gc = ga[:, self.permutation]  # undo the column permutation
            return np.concatenate([np.matmul(gc.T, upper.T)[self._low],
                                   *self._upper_grad(np.matmul(lower.T, gc.T), diag)])

        return a, diag, vjp

    def config(self):
        return {"dim": self.dim, "permutation": self.permutation.tolist()}

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg["dim"], cfg["permutation"])


class QRLinearTransform(_LinearTransform):
    """Invertible linear map ``z = Q R x``.

    ``Q`` is the product of Householder reflections given by free vectors
    ``v_0 .. v_{H-1}`` (applied ``v_0`` first); ``R`` is upper triangular with
    ``diag(R) = exp(s)``.  ``log|det| = sum(s)`` since reflections have unit
    absolute determinant.  On row batches ``A = R^T H_0 .. H_{H-1}``: the
    reflections act on the D×D matrix, not on the batch.
    """

    kind = "qr_linear"

    def __init__(self, dim: int, n_householder: int | None = None):
        self.dim = dim
        self.n_householder = dim if n_householder is None else n_householder
        if self.n_householder < 1:
            raise ValueError("need at least one Householder vector")
        self._up = np.triu_indices(dim, k=1)
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

    def _map(self, p: BlockView):
        upper, diag = self._upper(p)
        a = upper.T
        steps = []  # (v, v.v, the matrix m that v reflects, m @ v)
        for h in range(self.n_householder):
            v = p.array(f"v{h}")
            s = float(v @ v)
            if s == 0.0:
                raise ZeroDivisionError("Householder vector must be nonzero")
            u = a @ v
            steps.append((v, s, a, u))
            a = a - ((2.0 / s) * u)[:, None] * v

        def vjp(ga):
            g_vs = []
            for v, s, m, u in reversed(steps):
                c = 2.0 / s
                gv = ga @ v
                g_vs.append((-c) * (m.T @ gv + ga.T @ u) + (2.0 * c / s) * float(u @ gv) * v)
                ga = ga - (c * gv)[:, None] * v
            return np.concatenate([*reversed(g_vs), *self._upper_grad(ga.T, diag)])

        return a, diag, vjp

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
