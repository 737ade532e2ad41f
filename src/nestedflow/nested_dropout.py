"""Nested-dropout training machinery for flows.

A truncation index k is drawn per datapoint from a geometric distribution
clamped at the latent dimension K; latent coordinates whose ordering rank
exceeds k are zeroed before inverting the flow, and the squared
reconstruction error joins the negative log likelihood in one objective:

    loss = (1/N) sum_n [ -log p(x_n) + lambda * d(x_n, x_rec(x_n, k_n)) ]

with d the per-dimension mean squared error and x_rec(x, k) the inverse
image of the latent of x truncated to k coordinates.  Orders are
permutations mapping ordering rank (0-based) to latent coordinate index;
rank 0 is the most important, always-kept coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .flows import FlowModel, standard_normal_logpdf_rows


@dataclass(frozen=True)
class GeometricSchedule:
    """Truncation-index distribution: geometric(p) with all tail mass
    beyond K collapsed onto k = K."""

    p: float
    K: int

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ValueError("p must lie in (0, 1]")
        if self.K < 1:
            raise ValueError("K must be at least 1")

    def pmf(self) -> np.ndarray:
        """Probabilities of k = 1..K (index 0 holds P(k=1))."""
        k = np.arange(1, self.K + 1)
        out = (1.0 - self.p) ** (k - 1) * self.p
        out[-1] = (1.0 - self.p) ** (self.K - 1)
        return out

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """The truncation index of each uniform draw in ``u``; needs p < 1.
        The geometric index is clamped to K while still a float, so the
        tail mass goes to K however far a tiny p sends it."""
        with np.errstate(over="ignore"):  # a subnormal p: the ratio is inf, so K
            k = np.floor(np.log1p(-u) / math.log1p(-self.p))
        return np.minimum(k, self.K - 1).astype(np.int64) + 1


def sample_ks(s: GeometricSchedule, rng: np.random.Generator, n: int) -> np.ndarray:
    """n truncation indices via inverse-CDF sampling; p = 1 draws nothing.
    The one truncation sampler: training calls it once per iteration for
    each seed with λ > 0, solo or in a stack, with that seed's schedule."""
    if s.p == 1.0:
        return np.ones(n, dtype=np.int64)
    return s.inverse_cdf(rng.random(n))


def identity_order(K: int) -> np.ndarray:
    return np.arange(K, dtype=np.int64)

def reversed_order(K: int) -> np.ndarray:
    return np.arange(K - 1, -1, -1, dtype=np.int64)


def as_order(order, K: int) -> np.ndarray:
    """Validate and normalize a drop order (permutation of 0..K-1)."""
    out = np.asarray(order, dtype=np.int64)
    if sorted(out.tolist()) != list(range(K)):
        raise ValueError(f"drop order must be a permutation of 0..{K - 1}")
    return out


@dataclass(frozen=True)
class NestedDropoutConfig:
    """Reconstruction-penalty settings: weight, index distribution, order.
    A seed stack's step config (see :mod:`nestedflow.optim`) holds an (S,)
    array of weights and an (S, K) array of orders, one row per seed."""

    lam: float | np.ndarray
    schedule: GeometricSchedule
    drop_order: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=np.float64)
        if (lam < 0.0).any():
            raise ValueError("lambda must be nonnegative")
        if lam.ndim:
            object.__setattr__(self, "lam", lam)
        K = self.schedule.K
        order = identity_order(K) if self.drop_order is None else np.asarray(self.drop_order)
        order = np.stack([as_order(row, K) for row in order]) if order.ndim == 2 \
            else as_order(order, K)
        object.__setattr__(self, "drop_order", order)


def keep_mask(ks, order, K: int) -> np.ndarray:
    """Boolean (N, K) mask, True where the latent coordinate's ordering rank
    is below the row's truncation index; (S, N, K) for (S, N) indices, with
    one order for all seeds or an (S, K) array, one per seed."""
    ks = np.atleast_1d(np.asarray(ks, dtype=np.int64))
    if ((ks < 1) | (ks > K)).any():
        raise ValueError(f"truncation index out of range [1, {K}]")
    rank = np.argsort(order, axis=-1)  # exact: the inverse permutation
    return rank[..., None, :] < ks[..., None]


def loss_terms(m: FlowModel, x: np.ndarray, ks, cfg: NestedDropoutConfig | None,
               theta=None):
    """Per-batch objective pieces given fixed truncation indices.

    Returns ``(total, nll_mean, recon_mean)``, the last two as floats.  The
    truncation mask is a constant of the evaluation, so dropped coordinates
    contribute exactly zero gradient.  With ``cfg`` None or every ``lam``
    0 the reconstruction pass is skipped entirely and the total is exactly
    the mean NLL.

    For a seed stack ``m``, ``x`` is (S, N, D) and ``ks`` (S, N), ``lam``
    and the drop order are one for all seeds or one per seed, and each
    returned term is an array with one value per seed (``recon_mean``
    stays 0.0 when the reconstruction pass is skipped).  When only some
    seeds have ``lam`` > 0 the pass runs for all: a ``lam`` 0 seed, given
    ``ks`` of K, adds its reconstruction with weight 0 and its
    ``recon_mean`` reads 0.0.  Each seed's values and gradient row are bit
    for bit those of its solo model.

    Everything runs in numpy, at ``theta`` (a plain array, an
    :class:`~nestedflow.autodiff.Var` or None for the model's parameters).
    When ``theta`` is a ``Var``, ``total`` is a ``Var`` over it whose VJP is
    the explicit reverse sweep: the loss terms, then the inverse pass
    backwards, then the forward pass backwards, each transform writing its
    span of the gradient.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape[-2:]
    ws = m.weights(theta.value if isinstance(theta, ad.Var) else theta)
    forward_backs, inverse_backs = [], []
    z, logdet = m.forward_pass(ws, x, forward_backs)
    ll = np.add(standard_normal_logpdf_rows(z), logdet)
    nll_mean = np.multiply(np.sum(ll, axis=-1), -1.0 / n)
    total, recon_mean = nll_mean, 0.0
    lam = np.asarray(0.0 if cfg is None else cfg.lam)
    penalised = lam.any()
    if penalised:
        mask = keep_mask(ks, cfg.drop_order, d).astype(np.float64)
        diff = np.subtract(m.inverse_pass(ws, np.multiply(z, mask), inverse_backs), x)
        recon_mean = np.multiply(np.sum(np.square(diff), axis=(-2, -1)), 1.0 / (n * d))
        recon_mean = np.where(lam != 0.0, recon_mean, 0.0)
        total = np.add(nll_mean, np.multiply(recon_mean, lam))

    def sweep(g):
        g_rows = g * (-1.0 / n)  # dL/d(each row's log likelihood)
        g_z = np.multiply(g_rows * -0.5, 2.0 * z)
        inverse_gws = None
        if penalised:
            scale = g * lam * (1.0 / (n * d))
            g_rec = np.multiply(scale[..., None, None], 2.0 * diff)
            inverse_gws, g_masked = m.inverse_vjp(inverse_backs, g_rec)
            g_z = g_z + np.multiply(g_masked, mask)
        return m.forward_vjp(ws, forward_backs, g_z, np.full(n, g_rows),
                             inverse_gws)

    if isinstance(theta, ad.Var):
        total = ad.Var(total, ((theta, sweep),))
    if np.ndim(nll_mean):
        return total, nll_mean, recon_mean
    return total, float(nll_mean), float(recon_mean)
