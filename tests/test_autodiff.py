import sys
import threading

import numpy as np
import pytest

from nestedflow import autodiff as ad
from nestedflow.autodiff import (
    ParameterVector,
    evaluate_with_gradient,
    finite_difference_gradient,
)
from nestedflow.coupling import build_multiscale_flow
from nestedflow.flows import (
    FlowEvalError,
    FlowModel,
    LULinearTransform,
    OffsetTransform,
    QRLinearTransform,
    build_qr_flow,
)
from nestedflow.nested_dropout import GeometricSchedule, NestedDropoutConfig, loss_terms
from test_acceptance import gradient_instance


def params(values):
    return ParameterVector(np.asarray(values, dtype=np.float64))


def rel_err(got, want):
    return np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-8))


def scaled_square_sum(theta, scale=1.0):
    """scale * sum(theta^2); a Var over theta when theta is one."""
    v = getattr(theta, "value", theta)
    value = scale * np.sum(np.square(v))
    if isinstance(theta, ad.Var):
        return ad.Var(value, ((theta, lambda g: g * scale * 2.0 * v),))
    return value


def test_sum_of_squares_value_and_gradient():
    rec = evaluate_with_gradient(scaled_square_sum, params([1.0, 2.0]))
    assert rec.value == pytest.approx(5.0)
    np.testing.assert_allclose(rec.gradient, [2.0, 4.0], atol=1e-12)


def test_gradient_linearity():
    """The objective is NLL + lambda * recon, so its gradient is affine in
    lambda: g(3) = g(0) + 3 (g(1) - g(0)), on a QR and a coupling flow."""
    rng = np.random.default_rng(0)
    for m in (build_qr_flow(3, rng, offset=True),
              build_multiscale_flow(4, 1, 2, rng, hidden_width=3)):
        theta = params(m.params.values + 0.3 * rng.standard_normal(m.n_params))
        x = rng.standard_normal((5, m.dim))

        def grad(lam):
            return evaluate_with_gradient(objective(m, x, lam), theta).gradient

        g0, g1 = grad(0.0), grad(1.0)
        np.testing.assert_allclose(grad(3.0), g0 + 3.0 * (g1 - g0), rtol=1e-10)


def transform_loss(t, direction, rows, weight):
    """A loss of one transform applied to ``rows`` shifted by the last D
    entries of theta, whose first entries are the transform's span:
    sum(weight * y^2), plus half the squared per-row log-determinant going
    forward.  Given a Var, a Var over it whose VJP runs the transform's
    back closure."""
    n_span = sum(size for _, size in t.param_blocks)

    def loss(theta):
        v = getattr(theta, "value", theta)
        w = t.weights(v[:n_span])
        x = rows + v[n_span:]
        if direction == "forward":
            y, logdet, back = t.forward(w, x)
            ld_rows = np.broadcast_to(logdet, (x.shape[0],))
            value = np.sum(weight * y * y) + 0.5 * np.sum(ld_rows * ld_rows)
        else:
            y, back = t.inverse(w, x)
            value = np.sum(weight * y * y)

        def vjp(g):
            args = (g * 2.0 * weight * y,)
            if direction == "forward":
                args += (g * ld_rows,)
            gw, gx = back(*args)
            return np.concatenate([t.weights_vjp(w, gw), gx.sum(axis=0)])

        if isinstance(theta, ad.Var):
            return ad.Var(value, ((theta, vjp),))
        return value

    return loss


def objective(m, x, lam):
    """The nested-dropout loss of ``m`` on the rows ``x`` as a function of
    theta, with fixed truncation indices."""
    cfg = NestedDropoutConfig(lam=lam, schedule=GeometricSchedule(p=0.5, K=m.dim))
    ks = np.arange(x.shape[0]) % m.dim + 1
    return lambda theta: loss_terms(m, x, ks, cfg, theta)[0]


def scalar_losses():
    """Each piece of the reverse sweep in a loss of its own: builders of
    ``(loss, theta)``."""
    rng = np.random.default_rng(42)
    a = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 4))

    def stack(*transforms):
        n = sum(size for t in transforms for _, size in t.param_blocks)
        m = FlowModel(4, transforms, np.zeros(n))
        return m, params(0.3 * rng.standard_normal(n))

    def coupling_flow():
        m = build_multiscale_flow(4, 1, 2, rng, hidden_width=3)
        return m, params(m.params.values + 0.3 * rng.standard_normal(m.n_params))

    def rows_and_span(t):
        n = sum(size for _, size in t.param_blocks)
        return params(np.concatenate([0.3 * rng.standard_normal(n),
                                      rng.standard_normal(4)]))

    def arithmetic():
        # the loss terms: NLL plus lambda times the masked reconstruction
        m, theta = stack(OffsetTransform(4))
        return objective(m, a, 3.0), theta

    def axis_sum():
        # an offset's gradient sums over the rows, here weighted apart
        t = OffsetTransform(4)
        return transform_loss(t, "forward", a, w), rows_and_span(t)

    def entries():
        # the LU map built entry by entry from every factor, inverted
        t = LULinearTransform(4, [2, 0, 3, 1])
        return transform_loss(t, "inverse", a, w), rows_and_span(t)

    def gather():
        # couplings gather their identity and transformed columns
        m, theta = coupling_flow()
        return objective(m, a, 2.0), theta

    def inner():
        # the conditioner's hidden layers, back-propagated from the inverse
        t = coupling_flow()[0].transforms[1]
        return transform_loss(t, "inverse", a, w), rows_and_span(t)

    def matrix():
        # a QR map used both ways: the forward and inverse dL/dA add up
        m, theta = stack(QRLinearTransform(4, 2))
        return objective(m, a, 5.0), theta

    def sliced():
        # each transform of a stack writes its own slice of the gradient
        m, theta = stack(OffsetTransform(4), QRLinearTransform(4, 1),
                         LULinearTransform(4, [3, 1, 0, 2]), OffsetTransform(4))
        return objective(m, a, 5.0), theta

    def transcendental():
        # exp(s) on the LU diagonal forward, divided by on the way back
        m, theta = stack(LULinearTransform(4, [1, 3, 0, 2]))
        return objective(m, a, 5.0), theta

    return [arithmetic, transcendental, matrix, gather, inner,
            sliced, entries, axis_sum]


@pytest.mark.parametrize("problem", scalar_losses(), ids=lambda f: f.__name__)
def test_primitives_match_finite_differences(problem):
    loss, theta = problem()
    rec = evaluate_with_gradient(loss, theta)
    fd = finite_difference_gradient(loss, theta, step=1e-6)
    assert rel_err(rec.gradient, fd) < 1e-5


@pytest.mark.parametrize("lower", [True, False])
def test_solve_triangular_rows_gradients(lower):
    """The LU layer's inverse solves each row against its triangular factors
    (U^T is lower, L^T upper; ``lower`` picks the one that is not the
    identity): gradients with respect to the factor entries and the rows."""
    rng = np.random.default_rng(5)
    layer = LULinearTransform(4, np.arange(4))
    values = np.zeros(16 + 4)
    values[16:] = rng.standard_normal(4)
    values[slice(6, 12) if lower else slice(0, 6)] = rng.standard_normal(6)
    if lower:
        values[12:16] = 0.4 * rng.standard_normal(4)
    loss = transform_loss(layer, "inverse", rng.standard_normal((3, 4)), 1.0)
    theta = params(values)
    rec = evaluate_with_gradient(loss, theta)
    fd = finite_difference_gradient(loss, theta, step=1e-6)
    assert rel_err(rec.gradient, fd) < 1e-5


def test_householder_rows_gradients():
    """The QR layer's reflections: gradients with respect to the Householder
    vector, the triangular factor and the rows they act on, with the
    log-determinant's gradient on the diagonal."""
    rng = np.random.default_rng(6)
    layer = QRLinearTransform(3, 1)
    values = np.concatenate([[0.9, -0.2, 0.6], 0.3 * rng.standard_normal(6),
                             [0.1, -0.7, 0.3]])
    loss = transform_loss(layer, "forward", rng.standard_normal((5, 3)),
                          np.arange(1.0, 16.0).reshape(5, 3))
    theta = params(values)
    rec = evaluate_with_gradient(loss, theta)
    fd = finite_difference_gradient(loss, theta, step=1e-6)
    assert rel_err(rec.gradient, fd) < 1e-5


def test_loss_value_matches_gradient_evaluation():
    """Plain evaluation and the one with a gradient run the same arithmetic."""
    cases = [(scaled_square_sum, params([0.1, 0.2]))]
    cases += [gradient_instance(kind, seed)
              for kind in ("qr-linear", "lu-linear", "coupling", "combined")
              for seed in range(3)]
    for loss, theta in cases:
        assert float(loss(theta.values)) == evaluate_with_gradient(loss, theta).value


def test_loss_terms_records_one_node():
    """The whole objective is one Var whose only parent is the parameters;
    given a plain array the value comes back plain."""
    rng = np.random.default_rng(2)
    m = build_multiscale_flow(4, 1, 2, rng, hidden_width=3)
    x = rng.standard_normal((5, 4))
    cfg = NestedDropoutConfig(lam=3.0, schedule=GeometricSchedule(p=0.5, K=4))
    ks = rng.integers(1, 5, size=5)
    plain = loss_terms(m, x, ks, cfg, m.params.values)[0]
    assert isinstance(plain, np.floating)
    leaf = ad.Var(m.params.values)
    node = loss_terms(m, x, ks, cfg, leaf)[0]
    assert isinstance(node, ad.Var)
    assert len(node.parents) == 1 and node.parents[0][0] is leaf
    assert node.value == plain


def test_nonfinite_loss_names_first_bad_op():
    """A loss that overflows names the first transform whose output went
    non-finite, and the direction it ran in."""
    layers = [LULinearTransform(2, [0, 1]) for _ in range(3)]
    values = np.zeros(12)
    values[2:4] = values[6:8] = 400.0  # exp(400)^2 overflows in transform 1
    m = FlowModel(2, layers, values)
    loss = objective(m, np.ones((2, 2)), 1.0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FlowEvalError,
                          match=r"^non-finite forward output of transform 1 \(lu_linear\)$"):
        evaluate_with_gradient(loss, m.params)


def test_nonfinite_gradient_detected():
    # 1e308 * t^2 is finite at t = 1, but its derivative 2e308 overflows,
    # so only the gradient goes infinite
    with np.errstate(over="ignore"), \
            pytest.raises(ad.NonFiniteLossError, match="gradient"):
        evaluate_with_gradient(lambda t: scaled_square_sum(t, 1e308), params([1.0]))


def test_loss_must_be_var():
    with pytest.raises(TypeError):
        evaluate_with_gradient(lambda theta: 3.0, params([1.0]))
    other = ad.Var(np.ones(1))
    with pytest.raises(TypeError):
        evaluate_with_gradient(lambda theta: scaled_square_sum(other), params([1.0]))


def test_gradient_evaluation_inside_a_loss():
    """A loss may evaluate another gradient while it runs; both get the
    serial result."""
    theta = params([0.5, -1.5])
    serial = evaluate_with_gradient(scaled_square_sum, theta)
    inner = []

    def loss(t):
        inner.append(evaluate_with_gradient(lambda u: scaled_square_sum(u, 0.1), theta))
        return scaled_square_sum(t)

    outer = evaluate_with_gradient(loss, theta)
    assert outer.value == serial.value
    assert np.array_equal(outer.gradient, serial.gradient)
    want = evaluate_with_gradient(lambda u: scaled_square_sum(u, 0.1), theta)
    assert inner[0].value == want.value
    assert np.array_equal(inner[0].gradient, want.gradient)


def test_nonfinite_parameters_rejected():
    with pytest.raises(ValueError):
        ParameterVector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        ParameterVector(np.ones((2, 2)))


def test_concurrent_evaluations_record_separate_tapes():
    """Threads evaluating the objective's gradient at once each get the
    serial result."""
    rng = np.random.default_rng(9)
    m = build_multiscale_flow(8, 2, 2, rng, hidden_width=4)
    m.set_params(m.params.values + 0.3 * rng.standard_normal(m.n_params))
    x = rng.standard_normal((6, 8))
    cfg = NestedDropoutConfig(lam=5.0, schedule=GeometricSchedule(p=0.3, K=8))
    ks = rng.integers(1, 9, size=6)

    def loss(theta):
        return loss_terms(m, x, ks, cfg, theta)[0]

    serial = evaluate_with_gradient(loss, m.params)
    n_threads, n_evals = 4, 10
    results = [[] for _ in range(n_threads)]
    errors = []

    def work(out):
        try:
            for _ in range(n_evals):
                out.append(evaluate_with_gradient(loss, m.params))
        except Exception as e:  # reported by the assertions below
            errors.append(e)

    threads = [threading.Thread(target=work, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for out in results:
        assert len(out) == n_evals
        for rec in out:
            assert rec.value == serial.value
            assert np.array_equal(rec.gradient, serial.gradient)
