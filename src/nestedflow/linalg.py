"""Random rotations for the rotated-Gaussian dataset generators."""

from __future__ import annotations

import numpy as np

__all__ = ["random_rotation"]


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random rotation matrix (orthogonal, det +1).

    The Q factor of a Gaussian matrix's QR factorization, made unique by a
    positive diagonal of R, with the last column negated when det(Q) < 0.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    if np.linalg.det(q) < 0.0:
        q[:, -1] = -q[:, -1]
    return q
