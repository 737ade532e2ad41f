"""Dense linear algebra: random rotations, the Householder reflections and
triangular factors the QR/LU linear layers build their matrix from, and the
covariance eigendecomposition of the PCA baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nestedflow.flows import FlowEvalError, FlowModel, LULinearTransform, QRLinearTransform
from nestedflow.linalg import random_rotation
from nestedflow.pca import pca_fit


def reflection_layer(vs):
    """A QR layer with the Householder vectors vs and R = I: z = x H_0 .. H_k."""
    vs = np.atleast_2d(np.asarray(vs, dtype=np.float64))
    h, d = vs.shape
    params = np.concatenate([vs.ravel(), np.zeros(d * (d - 1) // 2 + d)])
    return FlowModel(d, [QRLinearTransform(d, h)], params)


def reflect(v, x):
    """The reflection through the hyperplane orthogonal to v, applied to x."""
    z, _ = reflection_layer(v).forward_batch(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    return z[0]


def test_householder_reflects_its_vector():
    v = np.array([1.0, 2.0, -1.0])
    assert_allclose(reflect(v, v), -v, atol=1e-12)


def test_householder_fixes_orthogonal_complement():
    v = np.array([1.0, 0.0, 0.0])
    x = np.array([0.0, 3.0, -2.0])
    assert_allclose(reflect(v, x), x, atol=1e-14)


def test_householder_zero_vector_rejected():
    m = reflection_layer([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    message = r"weights of transform 0 \(qr_linear\): Householder vector must be nonzero"
    with pytest.raises(FlowEvalError, match=message):
        m.forward_batch(np.ones((1, 3)))
    with pytest.raises(FlowEvalError, match=message):
        m.inverse_batch(np.ones((1, 3)))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_householder_involution_and_isometry(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    if np.sqrt(v @ v) < 1e-6:
        v[0] += 1.0
    x = rng.standard_normal(dim)
    y = reflect(v, x)
    assert_allclose(reflect(v, y), x, atol=1e-10)
    assert np.dot(y, y) == pytest.approx(np.dot(x, x), rel=1e-12)


def test_householder_matrix_orthogonal():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(5)
    h = reflection_layer(v).forward_batch(np.eye(5))[0]  # rows of I: the matrix
    assert_allclose(h, h.T, atol=1e-15)
    assert_allclose(h @ h.T, np.eye(5), atol=1e-12)
    assert np.linalg.det(h) == pytest.approx(-1.0, abs=1e-10)
    # Q of several reflections is orthogonal with determinant (-1)^H
    q = reflection_layer(rng.standard_normal((4, 5))).forward_batch(np.eye(5))[0]
    assert_allclose(q @ q.T, np.eye(5), atol=1e-12)
    assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-10)


def triangular_layer(t, lower):
    """An LU layer with the identity permutation whose map is z = x @ t:
    t = U^T (lower, diagonal exp(s)) with L = I, or t = L^T (upper, unit
    diagonal) with U = I."""
    d = t.shape[0]
    n_off = d * (d - 1) // 2
    if lower:
        blocks = [np.zeros(n_off), t.T[np.triu_indices(d, 1)], np.log(np.diag(t))]
    else:
        blocks = [t.T[np.tril_indices(d, -1)], np.zeros(n_off), np.zeros(d)]
    return FlowModel(d, [LULinearTransform(d, np.arange(d))], np.concatenate(blocks))


@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("dim", [1, 2, 5, 9])
def test_triangular_solve_against_numpy(lower, dim):
    rng = np.random.default_rng(dim)
    t = rng.standard_normal((dim, dim))
    t = np.tril(t) if lower else np.triu(t)
    t[np.arange(dim), np.arange(dim)] = 1.0 + rng.random(dim) if lower else 1.0
    m = triangular_layer(t, lower)
    t = m.forward_batch(np.eye(dim))[0]  # exp(log d) may round d
    b = rng.standard_normal((4, dim))
    y = m.inverse_batch(b)  # y @ t = b, row by row
    assert_allclose(y @ t, b, atol=1e-10)
    assert_allclose(y, np.linalg.solve(t.T, b.T).T, atol=1e-10)


def test_triangular_solve_singular_names_index():
    lu = LULinearTransform(3, [2, 0, 1])
    qr = QRLinearTransform(3, 2)
    for t in (lu, qr):
        params = t.init_params(np.random.default_rng(0))
        params[-2] = -1000.0  # exp(-1000) underflows: diagonal entry 1 is 0
        m = FlowModel(3, [t], params)
        with pytest.raises(FlowEvalError, match=rf"inverse of transform 0 \({t.kind}\): "
                                                "zero diagonal entry at index 1"):
            m.inverse_batch(np.ones((2, 3)))


@pytest.mark.parametrize("dim", [2, 3, 6, 16])
def test_symmetric_eigendecompose_reconstructs(dim):
    rng = np.random.default_rng(dim)
    x = rng.standard_normal((4 * dim, dim)) @ rng.standard_normal((dim, dim))
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    fit = pca_fit(x)
    v, w = fit.components.T, fit.eigenvalues
    assert np.all(np.diff(w) <= 0.0)
    assert_allclose(v @ np.diag(w) @ v.T, cov, atol=1e-10)
    assert_allclose(v.T @ v, np.eye(dim), atol=1e-10)
    assert_allclose(w, np.linalg.eigvalsh(cov)[::-1], atol=1e-10)
    # sign convention: each eigenvector's largest-magnitude entry is positive
    top = v[np.argmax(np.abs(v), axis=0), np.arange(dim)]
    assert np.all(top > 0.0)


@pytest.mark.parametrize("dim", [2, 3, 8, 32])
def test_random_rotation_is_special_orthogonal(dim):
    rng = np.random.default_rng(dim)
    q = random_rotation(dim, rng)
    assert_allclose(q @ q.T, np.eye(dim), atol=1e-10)
    assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_random_rotation_is_qr_factor_of_its_draw(dim):
    a = np.random.default_rng(10 + dim).standard_normal((dim, dim))
    q = random_rotation(dim, np.random.default_rng(10 + dim))
    r = q.T @ a
    assert_allclose(np.tril(r, k=-1), 0.0, atol=1e-12)
    # R's diagonal is positive except where the last column was negated
    # to make det(Q) = +1
    assert np.all(np.diag(r)[:-1] > 0.0)


def test_random_rotation_deterministic():
    a = random_rotation(4, np.random.default_rng(7))
    b = random_rotation(4, np.random.default_rng(7))
    assert np.array_equal(a, b)
