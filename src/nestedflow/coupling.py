"""Affine coupling transforms and multi-scale flows on flat coordinates.

Each coupling leaves an identity set A untouched and maps the complement B
through an elementwise affine transform whose shift and log-scale come from
a small dense network over the A coordinates.  The log-scale is bounded by
``c = 2`` through tanh, so the map is invertible for every parameter value
and safe early in training.  Final conditioner layers start at zero, making
a freshly built flow the exact identity.

The multi-scale builder stacks couplings in levels; at the end of every
level the first half of the active variables is set aside and never
transformed again.  Variables that survive to deeper levels pass through
more transforms, which induces the depth ordering used as a drop order.

Couplings follow the transform protocol of :mod:`nestedflow.flows`: plain
numpy forward and inverse maps, each returning a ``back`` closure that the
loss's reverse sweep calls once, with the same optional leading seed axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flows import FlowModel, split_blocks, take_columns


@dataclass(eq=False)
class AffineCouplingTransform:
    """z_A = x_A;  z_B = x_B * exp(s(x_A)) + t(x_A).

    The conditioner is a two-hidden-layer tanh network (width
    ``hidden_width``) from the A coordinates to ``(s_raw, t)``; the applied
    log-scale is ``bound * tanh(s_raw)``.

    Both directions compute in numpy; the ``back`` closure each returns
    back-propagates the conditioner once, so training and evaluation run
    the same arithmetic.  The weights are the six blocks in the
    conditioner's shapes, so their gradient is the span's.
    """

    dim: int
    identity_idx: np.ndarray
    transformed_idx: np.ndarray
    hidden_width: int = 32
    log_scale_bound: float = 2.0

    kind = "affine_coupling"

    def __post_init__(self):
        self.identity_idx = np.asarray(self.identity_idx, dtype=np.int64)
        self.transformed_idx = np.asarray(self.transformed_idx, dtype=np.int64)
        a, b = self.identity_idx, self.transformed_idx
        if a.size == 0 or b.size == 0:
            raise ValueError("identity and transformed sets must be nonempty")
        if sorted(np.concatenate([a, b]).tolist()) != list(range(self.dim)):
            raise ValueError("identity and transformed sets must partition 0..D-1")
        self.log_scale_bound = float(self.log_scale_bound)
        self._s_cols = np.arange(b.size)
        na, nb, h = a.size, b.size, self.hidden_width
        self._shapes = [(na, h), (h,), (h, h), (h,), (h, 2 * nb), (2 * nb,)]
        self.param_blocks = [(name, math.prod(shape)) for name, shape
                             in zip(("w1", "b1", "w2", "b2", "w3", "b3"), self._shapes)]

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        na, nb, h = self.identity_idx.size, self.transformed_idx.size, self.hidden_width
        return np.concatenate([
            rng.standard_normal(na * h) / np.sqrt(na),
            np.zeros(h),
            rng.standard_normal(h * h) / np.sqrt(h),
            np.zeros(h),
            np.zeros(h * 2 * nb),  # zero final layer: identity transform at init
            np.zeros(2 * nb),
        ])

    def weights(self, p):
        """Views of the six blocks in the conditioner's shapes."""
        return [b.reshape(*b.shape[:-1], *shape)
                for b, shape in zip(split_blocks(self, p), self._shapes)]

    def weights_vjp(self, w, gw):
        return gw

    def _conditioner(self, w, xa):
        """Hidden activations, tanh(s_raw), log-scale s and shift t."""
        w1, b1, w2, b2, w3, b3 = w
        h1 = np.matmul(xa, w1)
        np.tanh(np.add(h1, b1[..., None, :], out=h1), out=h1)
        h2 = np.matmul(h1, w2)
        np.tanh(np.add(h2, b2[..., None, :], out=h2), out=h2)
        out = np.matmul(h2, w3)
        np.add(out, b3[..., None, :], out=out)
        # Gather (not slice) the s columns: that makes s column-major, and
        # row sums over that layout reproduce recorded log-determinants
        # bit for bit.
        ts = take_columns(out, self._s_cols)
        np.tanh(ts, out=ts)
        return h1, h2, ts, np.multiply(ts, self.log_scale_bound), out[..., ts.shape[-1]:]

    def _conditioner_vjp(self, w, xa, h1, h2, ts, g_s, g_t):
        """Back-propagate gradients of (s, t) through the conditioner: the
        gradients of the coupling's parameter span and of xa."""
        w1, b1, w2, b2, w3, b3 = w
        nb = ts.shape[-1]
        g_out = np.empty((*ts.shape[:-1], 2 * nb))  # row-major, unlike its parts
        g_out[..., :nb] = np.multiply(np.multiply(g_s, self.log_scale_bound), 1.0 - ts * ts)
        g_out[..., nb:] = g_t
        g_pre2 = np.matmul(g_out, w3.swapaxes(-1, -2)) * (1.0 - h2 * h2)
        g_pre1 = np.matmul(g_pre2, w2.swapaxes(-1, -2)) * (1.0 - h1 * h1)
        lead = ts.shape[:-2]
        g_local = np.concatenate([
            np.matmul(xa.swapaxes(-1, -2), g_pre1).reshape(*lead, -1), g_pre1.sum(axis=-2),
            np.matmul(h1.swapaxes(-1, -2), g_pre2).reshape(*lead, -1), g_pre2.sum(axis=-2),
            np.matmul(h2.swapaxes(-1, -2), g_out).reshape(*lead, -1), g_out.sum(axis=-2),
        ], axis=-1)
        return g_local, np.matmul(g_pre1, w1.swapaxes(-1, -2))

    def forward(self, w, x):
        xa, xb = take_columns(x, self.identity_idx), x[..., self.transformed_idx]
        h1, h2, ts, s, t = self._conditioner(w, xa)
        es = np.exp(s)
        z = x.copy()  # the A columns pass through
        z[..., self.transformed_idx] = np.add(np.multiply(xb, es), t)

        def back(gz, g_logdet):
            gzb = gz[..., self.transformed_idx]
            g_s = g_logdet[..., None] + np.multiply(np.multiply(gzb, xb), es)
            g_local, g_xa = self._conditioner_vjp(w, xa, h1, h2, ts, g_s, gzb)
            gx = gz.copy()
            gx[..., self.identity_idx] += g_xa
            gx[..., self.transformed_idx] = np.multiply(gzb, es)
            return g_local, gx

        return z, np.sum(s, axis=-1), back

    def inverse(self, w, z):
        za, zb = take_columns(z, self.identity_idx), z[..., self.transformed_idx]
        h1, h2, ts, s, t = self._conditioner(w, za)
        d = np.subtract(zb, t)
        e = np.exp(np.multiply(s, -1.0))
        x = z.copy()  # the A columns pass through
        x[..., self.transformed_idx] = np.multiply(d, e)

        def back(g):
            gxb = g[..., self.transformed_idx]
            g_d = np.multiply(gxb, e)
            g_s = np.multiply(np.multiply(np.multiply(gxb, d), e), -1.0)
            g_local, g_za = self._conditioner_vjp(w, za, h1, h2, ts, g_s, -g_d)
            gz = g.copy()
            gz[..., self.identity_idx] += g_za
            gz[..., self.transformed_idx] = g_d
            return g_local, gz

        return x, back


class MultiScaleFlow(FlowModel):
    """Flow of levelled couplings with variables set aside between levels.

    ``depth_rank[v]`` counts the levels variable v participated in, as
    :func:`split_schedule` sets them aside; higher means deeper.
    """

    def __init__(self, dim, transforms, params, n_levels: int, couplings_per_level: int):
        super().__init__(dim, transforms, params)
        if not 1 <= n_levels * couplings_per_level == len(transforms):
            raise ValueError(f"n_levels {n_levels} x couplings_per_level {couplings_per_level} "
                             f"must be the number of couplings, {len(transforms)}, and at least 1")
        self.depth_rank = np.zeros(dim, dtype=np.int64)
        for active in split_schedule(dim, n_levels):
            self.depth_rank[active] += 1
        self.n_levels = n_levels
        self.couplings_per_level = couplings_per_level


def split_schedule(dim: int, n_levels: int) -> list[np.ndarray]:
    """Active variable indices per level: the first half of the active set
    is retired at the end of each level."""
    if n_levels < 1:
        raise ValueError("need at least one level")
    active = np.arange(dim, dtype=np.int64)
    levels = []
    for level in range(n_levels):
        if active.size < 2:
            raise ValueError(
                f"level {level} has {active.size} active variables; "
                f"dimension {dim} cannot support {n_levels} levels"
            )
        levels.append(active.copy())
        if level < n_levels - 1:
            active = active[active.size // 2 :]
    return levels


def build_multiscale_flow(dim: int, n_levels: int, couplings_per_level: int,
                          rng: np.random.Generator, hidden_width: int = 32,
                          log_scale_bound: float = 2.0) -> MultiScaleFlow:
    """Assemble the levelled coupling stack with alternating masks.

    Within a level the active variables are split positionally in half;
    consecutive couplings swap which half is transformed, so every active
    variable is updated at least once per pair of couplings.  Set-aside
    variables join the identity set of all later couplings.
    """
    levels = split_schedule(dim, n_levels)
    all_idx = np.arange(dim, dtype=np.int64)
    transforms = []
    for active in levels:
        inactive = np.setdiff1d(all_idx, active)
        first, second = active[: active.size // 2], active[active.size // 2 :]
        for j in range(couplings_per_level):
            if j % 2 == 0:
                a, b = np.concatenate([inactive, first]), second
            else:
                a, b = np.concatenate([inactive, second]), first
            transforms.append(AffineCouplingTransform(
                dim, np.sort(a), np.sort(b), hidden_width, log_scale_bound))
    params = np.concatenate([t.init_params(rng) for t in transforms])
    return MultiScaleFlow(dim, transforms, params, n_levels, couplings_per_level)


def multiscale_depth_order(m: MultiScaleFlow) -> np.ndarray:
    """Drop order ranking variables by descending depth (deepest kept
    longest), ties broken by ascending variable index."""
    return np.lexsort((np.arange(m.dim), -m.depth_rank)).astype(np.int64)


def depth_forward_order(m: MultiScaleFlow) -> np.ndarray:
    """The opposing order: shallowest variables ranked most important."""
    return np.lexsort((np.arange(m.dim), m.depth_rank)).astype(np.int64)
