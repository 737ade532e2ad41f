"""Exact PCA baseline: fit, project, reconstruction error.

The covariance uses denominator N.  On the fitting set the per-dimension
reconstruction MSE at k components equals the sum of the trailing D-k
eigenvalues divided by D, which the tests use as an identity check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PCAModel:
    """Sample mean plus eigendecomposition of the sample covariance.

    ``components`` rows are principal directions in descending eigenvalue
    order.
    """

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        d = self.mean.size
        v = self.components
        if v.shape != (d, d):
            raise ValueError("components must be square and match the mean")
        if np.max(np.abs(v @ v.T - np.eye(d))) > 1e-8:
            raise ValueError("components must be orthonormal")
        w = self.eigenvalues
        if np.any(w < 0.0) or np.any(np.diff(w) > 0.0):
            raise ValueError("eigenvalues must be nonnegative and descending")


def pca_fit(x: np.ndarray) -> PCAModel:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("PCA needs at least two points")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = (centered.T @ centered) / x.shape[0]
    if not np.all(np.isfinite(cov)):  # finite points near the float limit: numerical
        raise FloatingPointError("PCA covariance is not finite")
    w, v = np.linalg.eigh(cov)
    w, v = w[::-1], v[:, ::-1]  # descending
    # Deterministic signs: each eigenvector's largest-magnitude entry is
    # positive.
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v = v * np.where(top < 0.0, -1.0, 1.0)
    # Round-off can push a zero eigenvalue a hair negative.
    w = np.maximum(w, 0.0)
    return PCAModel(mean=mean, components=v.T, eigenvalues=w)


def pca_project(m: PCAModel, x: np.ndarray, k: int) -> np.ndarray:
    """Reconstruction of x from its first k principal components."""
    _check_k(m, k)
    x = np.asarray(x, dtype=np.float64)
    top = m.components[:k]
    return m.mean + (x - m.mean) @ top.T @ top


def pca_mse(m: PCAModel, x: np.ndarray, k: int) -> float:
    """Mean over points of the per-dimension squared reconstruction error."""
    _check_k(m, k)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    diff = x - pca_project(m, x, k)
    return float(np.mean(np.sum(diff * diff, axis=1)) / m.mean.size)


def _check_k(m: PCAModel, k: int):
    if not 1 <= k <= m.mean.size:
        raise ValueError(f"k must lie in [1, {m.mean.size}], got {k}")
