"""Invertible transforms, the standard-normal base density, and flow models.

Transforms are pure structure: they describe their parameter blocks and how
to apply and invert themselves given the plain array of their span of the
flat parameter vector.  The :class:`FlowModel` owns the parameter values.
A transform's protocol, all in numpy:

- ``weights(p)`` turns its span ``p`` into the form its arithmetic uses,
  once per evaluation (the QR and LU layers build their D×D matrix from its
  factors here);
- ``forward(w, x)`` returns ``(z, log|det|, back)`` and ``inverse(w, z)``
  returns ``(x, back)``, where the ``back`` closure maps the output's
  gradient (with the log-det's, forward) to the weights' gradient and the
  input's;
- ``weights_vjp(w, gw)`` maps the weights' gradient, summed over the
  forward and the inverse application, to the span's gradient.

:meth:`FlowModel.forward_pass` and :meth:`FlowModel.inverse_pass` collect
the ``back`` closures when asked, and :meth:`FlowModel.inverse_vjp` and
:meth:`FlowModel.forward_vjp` run them in reverse: the explicit
sweep that differentiates the nested-dropout loss.  Both passes check
every transform's output, in training as in evaluation, and raise
:class:`FlowEvalError` naming the transform index, kind and direction.

Batches are row-major: ``X`` has shape ``(N, D)``.  Per-point column vectors
``z = W x`` become ``Z = X W^T`` on batches.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import ParameterVector

LOG_TWO_PI = math.log(2.0 * math.pi)


class FlowEvalError(ArithmeticError):
    """A transform produced a non-finite intermediate value."""


def split_blocks(t, p) -> list:
    """Views of the transform's parameter blocks, in ``param_blocks``
    order, within its span ``p``."""
    blocks, start = [], 0
    for _, size in t.param_blocks:
        blocks.append(p[start : start + size])
        start += size
    return blocks


class _LinearTransform:
    """A linear map ``z = x @ A`` whose D×D matrix ``A`` is built from
    factors, among them an upper triangular matrix with free strictly-upper
    entries (block ``upper_offdiag``) and ``diag = exp(s)`` (block
    ``upper_logdiag``, the last), so ``log|det| = sum(s)``.

    Subclasses define ``_map(blocks) -> (A, diag, vjp)``, where ``vjp``
    turns ``dL/dA`` into the gradient of the layer's span.  The weights
    gradient is ``dL/dA`` with ``dL/d log|det|`` appended as a last row, so
    the forward and inverse contributions add up before ``vjp`` runs once.
    """

    def _upper(self, off, logdiag):
        """The upper triangular factor and its diagonal ``exp(s)``."""
        diag = np.exp(logdiag)
        u = np.diag(diag)
        u[self._up] = off
        return u, diag

    def _upper_grad(self, gu, diag):
        """Gradients of the upper_offdiag and upper_logdiag blocks."""
        return [gu[self._up], np.diagonal(gu) * diag]

    def weights(self, p):
        """``(A, diag, vjp, log|det|)``."""
        blocks = split_blocks(self, p)
        return (*self._map(blocks), np.sum(blocks[-1]))

    def weights_vjp(self, w, gw):
        g = w[2](gw[:-1])  # the factor VJP of dL/dA
        g[-self.dim :] += gw[-1]  # d log|det| / ds = 1 for every s
        return g

    def forward(self, w, x):
        a, _, _, logdet = w

        def back(g, g_logdet):
            ga = np.vstack([np.matmul(x.T, g), np.full(self.dim, np.sum(g_logdet))])
            return ga, np.matmul(g, a.T)

        return np.matmul(x, a), logdet, back

    def inverse(self, w, z):
        a, diag, _, _ = w
        zero = np.flatnonzero(diag == 0.0)
        if zero.size:
            raise ZeroDivisionError(f"zero diagonal entry at index {zero[0]}")
        try:
            b = np.linalg.inv(a)
        except np.linalg.LinAlgError:  # a pivot underflowed to 0: numerical
            raise ZeroDivisionError(f"singular {self.kind} matrix") from None

        def back(g):
            # x = z @ B with B = A^-1, and dB = -B dA B.
            ga = -np.matmul(np.matmul(b.T, np.matmul(z.T, g)), b.T)
            return np.vstack([ga, np.zeros(self.dim)]), np.matmul(g, b.T)

        return np.matmul(z, b), back


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

    def _map(self, blocks):
        low, off, logdiag = blocks
        lower = np.eye(self.dim)
        lower[self._low] = low
        upper, diag = self._upper(off, logdiag)
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

    def _map(self, blocks):
        *vs, off, logdiag = blocks
        upper, diag = self._upper(off, logdiag)
        a = upper.T
        steps = []  # (v, v.v, the matrix m that v reflects, m @ v)
        for v in vs:
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

    def weights(self, p):
        return p

    def weights_vjp(self, w, gw):
        return gw

    def forward(self, b, x):
        return np.add(x, b), 0.0, lambda g, g_logdet: (g.sum(axis=0), g)

    def inverse(self, b, z):
        return np.subtract(z, b), lambda g: (-g.sum(axis=0), g)

    def config(self):
        return {"dim": self.dim}

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg["dim"])


def standard_normal_logpdf_rows(z):
    """Per-row log density of an (N, D) array."""
    sq = np.sum(np.square(z), axis=1)
    return np.add(np.multiply(sq, -0.5), -0.5 * z.shape[1] * LOG_TWO_PI)


class FlowModel:
    """An ordered composition of invertible transforms over a standard-normal
    base distribution in ``D`` dimensions.  Owns the flat trainable
    parameter vector; transforms hold structure only.  ``spans[i]`` is the
    half-open range of transform i's blocks in it."""

    def __init__(self, dim: int, transforms, params: np.ndarray):
        self.dim = dim
        self.transforms = list(transforms)
        for t in self.transforms:
            if t.dim != dim:
                raise ValueError("all transforms must share the model dimension")
        self.spans = []
        offset = 0
        for t in self.transforms:
            size = sum(size for _, size in t.param_blocks)
            self.spans.append((offset, offset + size))
            offset += size
        params = np.asarray(params, dtype=np.float64)
        if params.size != offset:
            raise ValueError(f"expected {offset} parameters, got {params.size}")
        self.params = ParameterVector(params)

    @property
    def n_params(self) -> int:
        return len(self.params)

    def set_params(self, values: np.ndarray):
        self.params = ParameterVector(values)

    def weights(self, theta=None) -> list:
        """Each transform's weights on its span of the plain parameter array
        ``theta`` (default: the model's own)."""
        theta = self.params.values if theta is None else theta
        return [t.weights(theta[lo:hi]) for t, (lo, hi) in zip(self.transforms, self.spans)]

    def _check(self, out, i, direction):
        if not np.all(np.isfinite(out)):
            raise FlowEvalError(f"non-finite {direction} output of transform {i} "
                                f"({self.transforms[i].kind})")

    def forward_pass(self, ws, x, backs=None):
        """Map data rows to latent rows with weights ``ws``; returns ``(Z,
        log_abs_det)``, the log-determinant a scalar or per-row vector.
        ``backs``, when given, receives each transform's ``back`` closure."""
        z = x
        logdet = 0.0
        for i, (t, w) in enumerate(zip(self.transforms, ws)):
            z, ld, back = t.forward(w, z)
            logdet = np.add(logdet, ld)
            self._check(z, i, "forward")
            if backs is not None:
                backs.append(back)
            del back  # frees an uncollected cache before the next layer runs
        return z, logdet

    def inverse_pass(self, ws, z, backs=None):
        """Map latent rows back to data rows with weights ``ws``; ``backs``,
        when given, receives the ``back`` closures in transform order."""
        x = z
        for i in range(len(self.transforms) - 1, -1, -1):
            x, back = self.transforms[i].inverse(ws[i], x)
            self._check(x, i, "inverse")
            if backs is not None:
                backs.insert(0, back)
            del back  # frees an uncollected cache before the next layer runs
        return x

    def inverse_vjp(self, backs, g):
        """Back through an inverse pass from the gradient of its output:
        returns each transform's weights gradient and the gradient of the
        pass's input."""
        gws = []
        for back in backs:  # transform 0 produced the output
            gw, g = back(g)
            gws.append(gw)
        return gws, g

    def forward_vjp(self, ws, backs, g_z, g_logdet, inverse_gws=None):
        """Back through a forward pass from the gradients of its latents and
        of its per-row log-determinants, adding each transform's weights
        gradient from ``inverse_gws``; returns the flat parameter gradient,
        each transform writing its own span."""
        grad = np.empty(self.n_params)
        for i in range(len(self.transforms) - 1, -1, -1):
            gw, g_z = backs[i](g_z, g_logdet)
            if inverse_gws is not None:
                gw = inverse_gws[i] + gw
            lo, hi = self.spans[i]
            grad[lo:hi] = self.transforms[i].weights_vjp(ws[i], gw)
        return grad

    def forward_batch(self, x):
        """Map data rows to latent rows; returns ``(Z, log_abs_det)``."""
        return self.forward_pass(self.weights(), x)

    def inverse_batch(self, z):
        """Map latent rows back to data rows."""
        return self.inverse_pass(self.weights(), z)


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
