"""Invertible transforms, the standard-normal base density, and flow models.

Transforms are pure structure: they describe their parameter blocks and how
to apply and invert themselves given the plain array of their span of the
flat parameter vector.  The :class:`FlowModel` owns the parameter values.
A transform is a dataclass whose fields are its checkpoint entry, in order:
:func:`transform_fields` writes them as JSON values, and ``cls(**fields)``
rebuilds the transform; ``__post_init__`` derives the rest.
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
:class:`FlowEvalError` naming the transform index, kind and direction; the
inverse pass raises one too for a QR/LU layer's singular factor.

Batches are row-major: ``X`` has shape ``(N, D)``.  Per-point column vectors
``z = W x`` become ``Z = X W^T`` on batches.

Every array may carry a leading seed axis: :func:`stack_models` joins S
models of one architecture into a seed stack whose parameters are ``(S,
P)`` and whose batches are ``(S, N, D)``; its one caller is
:func:`nestedflow.optim.train_seeds`.  The arithmetic indexes from the
end (``x[..., idx]``, ``np.matmul``, ``swapaxes(-1, -2)``, sums over
``axis=-2``), so a solo model runs on its 2-D arrays as before, and each
slice of a stack computes bit for bit what its solo model computes:
stacked ``matmul``, ``np.linalg.inv`` and row sums equal their per-slice
calls.  Where the stacked form of an operation differs from the solo one
(a vector product, a column gather), a helper takes the solo form for a
solo model and, for a stack, a form that equals it in every slice.  A
check fails for the whole stack when one slice fails it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .autodiff import ParameterVector

LOG_TWO_PI = math.log(2.0 * math.pi)


class FlowEvalError(ArithmeticError):
    """A non-finite or singular transform, or a report that fails a check."""


def split_blocks(t, p) -> list:
    """Views of the transform's parameter blocks, in ``param_blocks``
    order, within its span ``p``."""
    blocks, start = [], 0
    for _, size in t.param_blocks:
        blocks.append(p[..., start : start + size])
        start += size
    return blocks


def _dot(u, v):
    """``u @ v`` over the last axis, kept as a column for a stack, so that
    it scales each slice's vectors; a stack makes it a (1, D) @ (D, 1)
    matmul per slice, bit for bit the 1-D product."""
    if u.ndim == 1:
        return u @ v
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0]


def _mv(a, v):
    """The matrix-vector product ``a @ v`` of each slice."""
    if v.ndim == 1:
        return a @ v
    return np.matmul(a, v[..., None])[..., 0]


def take_columns(x, idx):
    """``x[..., idx]``, column-major within each slice as a solo gather
    leaves it: which BLAS kernel a product calls, and the order of a row
    sum, depend on that layout, and with them the last bits."""
    if x.ndim == 2:
        return x[:, idx]
    out = np.empty((*x.shape[:-2], idx.size, x.shape[-2])).swapaxes(-1, -2)
    out[...] = x[..., idx]
    return out


def _rows(order):
    """An index that takes the rows of a matrix in ``order``, or those of
    each matrix in a stack in its own row of ``order``."""
    if order.ndim == 1:
        return order
    s, d = order.shape
    return np.arange(s)[:, None, None], order[:, :, None], np.arange(d)


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

    def _square(self, values, idx, diag):
        """Matrices holding ``values`` at the index pair ``idx``, ``diag`` on
        the diagonal and zeros elsewhere."""
        out = np.zeros((*values.shape[:-1], self.dim, self.dim))
        out[..., idx[0], idx[1]] = values
        out[..., self._diag[0], self._diag[1]] = diag
        return out

    def _upper(self, off, logdiag):
        """The upper triangular factor and its diagonal ``exp(s)``."""
        diag = np.exp(logdiag)
        return self._square(off, self._up, diag), diag

    def _upper_grad(self, gu, diag):
        """Gradients of the upper_offdiag and upper_logdiag blocks."""
        return [gu[..., self._up[0], self._up[1]],
                np.diagonal(gu, axis1=-2, axis2=-1) * diag]

    def weights(self, p):
        """``(A, diag, vjp, log|det|)``; a stack's log-determinants form a
        column, one row per seed, so that they add to per-row terms."""
        blocks = split_blocks(self, p)
        logdet = np.sum(blocks[-1], axis=-1)
        return (*self._map(blocks), logdet[..., None] if logdet.ndim else logdet)

    def weights_vjp(self, w, gw):
        g = w[2](gw[..., :-1, :])  # the factor VJP of dL/dA
        g[..., -self.dim :] += gw[..., -1, :]  # d log|det| / ds = 1 for every s
        return g

    def forward(self, w, x):
        a, _, _, logdet = w

        def back(g, g_logdet):
            ga = np.empty((*a.shape[:-2], self.dim + 1, self.dim))
            ga[..., :-1, :] = np.matmul(x.swapaxes(-1, -2), g)
            ga[..., -1, :] = np.sum(g_logdet, axis=-1)[..., None]
            return ga, np.matmul(g, a.swapaxes(-1, -2))

        return np.matmul(x, a), logdet, back

    def inverse(self, w, z):
        a, diag, _, _ = w
        zero = np.nonzero(diag == 0.0)[-1]
        if zero.size:
            raise ZeroDivisionError(f"zero diagonal entry at index {zero[0]}")
        try:
            b = np.linalg.inv(a)
        except np.linalg.LinAlgError:  # a pivot underflowed to 0: numerical
            raise ZeroDivisionError(f"singular {self.kind} matrix") from None
        bt = b.swapaxes(-1, -2)

        def back(g):
            # x = z @ B with B = A^-1, and dB = -B dA B.
            ga = np.zeros((*b.shape[:-2], self.dim + 1, self.dim))
            ga[..., :-1, :] = -np.matmul(np.matmul(bt, np.matmul(z.swapaxes(-1, -2), g)), bt)
            return ga, np.matmul(g, bt)

        return np.matmul(z, b), back


@dataclasses.dataclass(eq=False)
class LULinearTransform(_LinearTransform):
    """Invertible linear map ``z = P L U x``.

    ``P`` is a fixed (never trained) permutation; ``L`` is unit-lower
    triangular with free strictly-lower entries; ``U`` is upper triangular
    with free strictly-upper entries and ``diag(U) = exp(s)``, so the map is
    invertible for every parameter value and ``log|det| = sum(s)``.  On
    row batches ``A = (U^T L^T)[:, P^-1]``.  In a seed stack the
    permutation is (S, D), one row per seed.
    """

    dim: int
    permutation: np.ndarray

    kind = "lu_linear"
    seed_fields = ("permutation",)  # drawn from each seed's init rng

    def __post_init__(self):
        self.permutation = np.asarray(self.permutation, dtype=np.int64)
        if self.permutation.ndim not in (1, 2) or any(
                sorted(row) != list(range(self.dim))
                for row in np.atleast_2d(self.permutation).tolist()):
            raise ValueError("permutation must be a bijection on 0..D-1")
        self._permute = _rows(self.permutation)
        self._unpermute = _rows(np.argsort(self.permutation))
        self._low = np.tril_indices(self.dim, k=-1)
        self._up = np.triu_indices(self.dim, k=1)
        self._diag = np.diag_indices(self.dim)
        n_off = self.dim * (self.dim - 1) // 2
        self.param_blocks = [
            ("lower", n_off),
            ("upper_offdiag", n_off),
            ("upper_logdiag", self.dim),
        ]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        n = sum(size for _, size in self.param_blocks)
        return 1e-2 * rng.standard_normal(n)

    def _map(self, blocks):
        low, off, logdiag = blocks
        lower = self._square(low, self._low, 1.0)
        upper, diag = self._upper(off, logdiag)
        upper_t, lower_t = upper.swapaxes(-1, -2), lower.swapaxes(-1, -2)
        # Permuting the columns as rows of the transpose keeps A column-major
        # in every slice, as a solo column gather leaves it.
        a = np.matmul(upper_t, lower_t).swapaxes(-1, -2)[self._unpermute].swapaxes(-1, -2)

        def vjp(ga):
            gct = ga.swapaxes(-1, -2)[self._permute]  # undo the column permutation
            return np.concatenate([np.matmul(gct, upper_t)[..., self._low[0], self._low[1]],
                                   *self._upper_grad(np.matmul(lower_t, gct), diag)],
                                  axis=-1)

        return a, diag, vjp


@dataclasses.dataclass(eq=False)
class QRLinearTransform(_LinearTransform):
    """Invertible linear map ``z = Q R x``.

    ``Q`` is the product of Householder reflections given by free vectors
    ``v_0 .. v_{H-1}`` (applied ``v_0`` first); ``R`` is upper triangular with
    ``diag(R) = exp(s)``.  ``log|det| = sum(s)`` since reflections have unit
    absolute determinant.  On row batches ``A = R^T H_0 .. H_{H-1}``: the
    reflections act on the D×D matrix, not on the batch.
    """

    dim: int
    n_householder: int

    kind = "qr_linear"

    def __post_init__(self):
        if self.n_householder < 1:
            raise ValueError("need at least one Householder vector")
        if self.n_householder > self.dim:
            # D reflections already reach every orthogonal D×D matrix
            # (Cartan–Dieudonné); check before anything is sized by it.
            raise ValueError(f"n_householder {self.n_householder} exceeds the dimension "
                             f"{self.dim}")
        self._up = np.triu_indices(self.dim, k=1)
        self._diag = np.diag_indices(self.dim)
        n_off = self.dim * (self.dim - 1) // 2
        self.param_blocks = [(f"v{h}", self.dim) for h in range(self.n_householder)]
        self.param_blocks += [("upper_offdiag", n_off), ("upper_logdiag", self.dim)]

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
        a = upper.swapaxes(-1, -2)
        steps = []  # (v, c = 2 / v.v, 2 c / v.v, the matrix m that v reflects, m @ v)
        for v in vs:
            s = _dot(v, v)
            if (s == 0.0).any():
                raise ZeroDivisionError("Householder vector must be nonzero")
            c = 2.0 / s
            u = _mv(a, v)
            steps.append((v, c, 2.0 * c / s, a, u))
            a = a - (c * u)[..., :, None] * v[..., None, :]

        def vjp(ga):
            g_vs = []
            for v, c, k, m, u in reversed(steps):
                gv = _mv(ga, v)
                g_vs.append((-c) * (_mv(m.swapaxes(-1, -2), gv) + _mv(ga.swapaxes(-1, -2), u))
                            + (k * _dot(u, gv)) * v)
                ga = ga - (c * gv)[..., :, None] * v[..., None, :]
            return np.concatenate([*reversed(g_vs),
                                   *self._upper_grad(ga.swapaxes(-1, -2), diag)], axis=-1)

        return a, diag, vjp


@dataclasses.dataclass(eq=False)
class OffsetTransform:
    """Additive offset ``z = x + b`` (zero log-determinant)."""

    dim: int

    kind = "offset"

    def __post_init__(self):
        self.param_blocks = [("offset", self.dim)]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.dim)

    def weights(self, p):
        return p[..., None, :]  # a row, broadcast over the batch

    def weights_vjp(self, w, gw):
        return gw

    def forward(self, b, x):
        return np.add(x, b), 0.0, lambda g, g_logdet: (g.sum(axis=-2), g)

    def inverse(self, b, z):
        return np.subtract(z, b), lambda g: (-g.sum(axis=-2), g)


def transform_fields(t) -> dict:
    """A transform's fields in order, as its checkpoint entry holds them:
    JSON numbers and lists."""
    return {f.name: np.asarray(getattr(t, f.name)).tolist() for f in dataclasses.fields(t)}


def standard_normal_logpdf_rows(z):
    """Per-row log density of an (N, D) array."""
    sq = np.sum(np.square(z), axis=-1)
    return np.add(np.multiply(sq, -0.5), -0.5 * z.shape[-1] * LOG_TWO_PI)


class FlowModel:
    """An ordered composition of invertible transforms over a standard-normal
    base distribution in ``D`` dimensions.  Owns the flat trainable
    parameter vector; transforms hold structure only.  ``spans[i]`` is the
    half-open range of transform i's blocks in it.  A model whose
    parameters are (S, P), one row per seed, is a seed stack (see
    :func:`stack_models`)."""

    def __init__(self, dim: int, transforms, params: np.ndarray):
        self.dim = dim
        self.transforms = list(transforms)
        self.spans = []
        params = np.asarray(params, dtype=np.float64)
        offset = 0
        for i, t in enumerate(self.transforms):
            if t.dim != dim:
                raise ValueError("all transforms must share the model dimension")
            seed_axis = any(np.ndim(getattr(t, f)) > 1 for f in getattr(t, "seed_fields", ()))
            if seed_axis and params.ndim != 2:  # a seed field holds one row per seed
                raise ValueError(f"transform {i} ({t.kind}) has a seed axis outside a seed stack")
            size = sum(size for _, size in t.param_blocks)
            self.spans.append((offset, offset + size))
            offset += size
        if params.shape[-1:] != (offset,):
            raise ValueError(f"expected {offset} parameters, got {params.size}")
        self.set_params(params)

    @property
    def n_params(self) -> int:
        """Parameters per seed."""
        return len(self.params)

    def set_params(self, values: np.ndarray):
        self.params = ParameterVector(values)

    def weights(self, theta=None) -> list:
        """Each transform's weights on its span of the plain parameter array
        ``theta`` (default: the model's own)."""
        theta = self.params.values if theta is None else theta
        ws = []
        for i, (t, (lo, hi)) in enumerate(zip(self.transforms, self.spans)):
            try:
                ws.append(t.weights(theta[..., lo:hi]))
            except ZeroDivisionError as e:  # a QR layer's zero Householder vector
                raise FlowEvalError(f"weights of transform {i} ({t.kind}): {e}") from e
        return ws

    def _check(self, out, i, direction):
        if not np.isfinite(out).all():
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
            try:
                x, back = self.transforms[i].inverse(ws[i], x)
            except ZeroDivisionError as e:  # a QR/LU layer's singular factor
                raise FlowEvalError(f"inverse of transform {i} "
                                    f"({self.transforms[i].kind}): {e}") from e
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
        grad = np.empty((*g_z.shape[:-2], self.n_params))
        for i in range(len(self.transforms) - 1, -1, -1):
            gw, g_z = backs[i](g_z, g_logdet)
            if inverse_gws is not None:
                gw = inverse_gws[i] + gw
            lo, hi = self.spans[i]
            grad[..., lo:hi] = self.transforms[i].weights_vjp(ws[i], gw)
        return grad

    def forward_batch(self, x):
        """Map data rows to latent rows; returns ``(Z, log_abs_det)``."""
        return self.forward_pass(self.weights(), x)

    def inverse_batch(self, z):
        """Map latent rows back to data rows."""
        return self.inverse_pass(self.weights(), z)


def stack_models(models) -> FlowModel:
    """One seed stack of same-architecture models: their parameters are the
    rows of one (S, P) array.  Each transform is shared, except that one
    with per-seed frozen structure (its ``seed_fields``, such as the LU
    permutation) is rebuilt with that structure stacked."""
    transforms = []
    for ts in zip(*(m.transforms for m in models), strict=True):
        seed = getattr(ts[0], "seed_fields", ())
        fields = [transform_fields(t) for t in ts]
        shared = [{k: v for k, v in f.items() if k not in seed} for f in fields]
        if any(type(t) is not type(ts[0]) or f != shared[0] for t, f in zip(ts, shared)):
            raise ValueError("a seed stack needs models of one architecture")
        transforms.append(type(ts[0])(
            **{**fields[0], **{k: [f[k] for f in fields] for k in seed}}) if seed else ts[0])
    return FlowModel(models[0].dim, transforms, np.stack([m.params.values for m in models]))


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
    transforms.append(QRLinearTransform(dim, dim if n_householder is None else n_householder))
    params = np.concatenate([t.init_params(rng) for t in transforms])
    return FlowModel(dim, transforms, params)
