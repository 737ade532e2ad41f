import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nestedflow import autodiff as ad
from nestedflow.autodiff import (
    NonFiniteLossError,
    ParameterVector,
    evaluate_with_gradient,
    finite_difference_gradient,
    loss_value,
)
from test_acceptance import gradient_instance


def params(values, name="all"):
    v = np.asarray(values, dtype=np.float64)
    return ParameterVector(v, {name: (0, v.size)})


def rel_err(got, want):
    return np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-8))


def test_sum_of_squares_value_and_gradient():
    def loss(theta):
        return ad.vsum(ad.square(theta))

    rec = evaluate_with_gradient(loss, params([1.0, 2.0]))
    assert rec.value == pytest.approx(5.0)
    assert_allclose(rec.gradient, [2.0, 4.0], atol=1e-12)


def test_gradient_linearity():
    rng = np.random.default_rng(0)
    theta = params(rng.standard_normal(4))

    def f(t):
        return ad.vsum(ad.square(t))

    def g(t):
        return ad.vsum(ad.mul(ad.exp(t), 0.1))

    def combo(t):
        return ad.add(ad.mul(f(t), 2.0), ad.mul(g(t), -3.0))

    gf = evaluate_with_gradient(f, theta).gradient
    gg = evaluate_with_gradient(g, theta).gradient
    gc = evaluate_with_gradient(combo, theta).gradient
    assert_allclose(gc, 2.0 * gf - 3.0 * gg, rtol=1e-12)


def scalar_losses():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 3))
    w = rng.standard_normal(4)

    def rows_of(v):
        """A 12-vector laid out as a 3x4 matrix, row by row."""
        rows, cols = np.divmod(np.arange(12), 4)
        return ad.matrix_from_entries(np.zeros((3, 4)), rows, cols, v)

    def arithmetic(t):
        x = ad.add(ad.mul(t, 2.0), ad.sub(t, ad.square(t)))
        return ad.vsum(ad.mul(x, x))

    def transcendental(t):
        return ad.vsum(ad.add(ad.exp(ad.mul(t, 0.3)),
                              ad.mul(ad.exp(t), ad.square(t))))

    def matrix(t):
        m = rows_of(ad.concat_1d([t, t, t]))
        y = ad.matmul(ad.matmul(m, b), ad.transpose(ad.matmul(m, b)))
        return ad.vsum(ad.square(y))

    def gather(t):
        m = rows_of(ad.concat_1d([t, ad.mul(t, -1.0), t]))
        cols = ad.gather_cols(m, np.array([2, 0, 3, 1]))
        one = ad.gather_cols(m, 1)  # a scalar index selects a 1-D column
        part = ad.gather_cols(m, slice(1, 3))
        return ad.add(ad.add(ad.vsum(ad.square(ad.sub(cols, a))),
                             ad.vsum(ad.mul(one, w[:3]))),
                      ad.vsum(ad.square(part)))

    def inner(t):
        return ad.square(ad.vsum(ad.mul(t, w)))

    def sliced(t):
        return ad.mul(ad.vsum(ad.square(ad.slice_1d(t, 1, 3))), 2.0)

    def entries(t):
        m = ad.matrix_from_entries(np.eye(4), np.array([1, 2, 3]),
                                   np.array([0, 1, 0]), ad.slice_1d(t, 0, 3))
        return ad.vsum(ad.square(ad.matmul(a, m)))

    def axis_sum(t):
        m = rows_of(ad.concat_1d([t, t, t]))
        return ad.vsum(ad.square(ad.vsum(m, axis=0)))

    return [arithmetic, transcendental, matrix, gather, inner,
            sliced, entries, axis_sum]


@pytest.mark.parametrize("loss", scalar_losses(),
                         ids=lambda f: f.__name__)
def test_primitives_match_finite_differences(loss):
    theta = params(np.array([0.7, -1.3, 0.4, 2.1]))
    rec = evaluate_with_gradient(loss, theta)
    fd = finite_difference_gradient(loss, theta, step=1e-6)
    assert rel_err(rec.gradient, fd) < 1e-5


@pytest.mark.parametrize("lower", [True, False])
def test_solve_triangular_rows_gradients(lower):
    rng = np.random.default_rng(5)
    b0 = rng.standard_normal((3, 4))
    d = 4

    def loss(theta):
        rows = np.array([1, 2, 3, 3])
        cols = np.array([0, 1, 0, 2])
        if not lower:
            rows, cols = cols, rows
        t = ad.matrix_from_entries(np.eye(d) * 1.5, rows, cols,
                                   ad.slice_1d(theta, 0, 4))
        bvar = ad.add(b0, ad.slice_1d(theta, 4, 8))
        y = ad.solve_triangular_rows(bvar, t, lower=lower)
        return ad.vsum(ad.square(y))

    theta = params(np.array([0.3, -0.8, 0.5, 1.1, 0.2, -0.4, 0.9, -1.2]))
    rec = evaluate_with_gradient(loss, theta)
    fd = finite_difference_gradient(loss, theta, step=1e-6)
    assert rel_err(rec.gradient, fd) < 1e-5


def test_householder_rows_gradients():
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal((5, 3))

    def loss(theta):
        v = ad.slice_1d(theta, 0, 3)
        x = ad.add(x0, ad.slice_1d(theta, 3, 6))
        y = ad.householder_rows(v, x)
        return ad.vsum(ad.mul(ad.square(y), np.arange(1.0, 16.0).reshape(5, 3)))

    theta = params(np.array([0.9, -0.2, 0.6, 0.1, -0.7, 0.3]))
    rec = evaluate_with_gradient(loss, theta)
    fd = finite_difference_gradient(loss, theta, step=1e-6)
    assert rel_err(rec.gradient, fd) < 1e-5


def test_loss_value_matches_gradient_evaluation():
    """Plain evaluation and the taped one run the same arithmetic."""
    def loss(theta):
        return ad.vsum(ad.exp(theta))

    cases = [(loss, params([0.1, 0.2]))]
    cases += [gradient_instance(kind, seed)
              for kind in ("qr-linear", "lu-linear", "coupling", "combined")
              for seed in range(3)]
    for loss, theta in cases:
        assert loss_value(loss, theta) == evaluate_with_gradient(loss, theta).value


def primitive_calls():
    """Every primitive: its array inputs and a call taking them."""
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 3))
    v = rng.standard_normal(3)
    t = np.triu(rng.standard_normal((3, 3))) + 3.0 * np.eye(3)
    return {
        "add": ([m, v], ad.add),
        "sub": ([m, v], ad.sub),
        "mul": ([m, v], ad.mul),
        "square": ([m], ad.square),
        "exp": ([m], ad.exp),
        "vsum": ([m], lambda a: ad.vsum(a, axis=1)),
        "matmul": ([m, t], ad.matmul),
        "transpose": ([m], ad.transpose),
        "slice_1d": ([v], lambda a: ad.slice_1d(a, 1, 3)),
        "concat_1d": ([v, v], lambda a, b: ad.concat_1d([a, b])),
        "gather_cols": ([m], lambda a: ad.gather_cols(a, [2, 0])),
        "matrix_from_entries": ([v], lambda a: ad.matrix_from_entries(
            np.eye(3), [1, 2, 2], [0, 0, 1], a)),
        "householder_rows": ([v, m], ad.householder_rows),
        "solve_triangular_rows": ([m, t], lambda b, tri: ad.solve_triangular_rows(
            b, tri, lower=False)),
    }


PRIMITIVES = primitive_calls()


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_on_nodes_without_recording_returns_plain_value(name):
    inputs, call = PRIMITIVES[name]
    out = call(*[ad.Var(x) for x in inputs])
    assert isinstance(out, (np.ndarray, np.floating))
    assert np.array_equal(out, call(*inputs))


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_records_only_when_an_input_is_a_node(name):
    inputs, call = PRIMITIVES[name]
    with ad._Recording() as tape:
        out = call(*inputs)
        assert tape == [] and isinstance(out, (np.ndarray, np.floating))
        node = call(*[ad.Var(x) for x in inputs])
        assert tape == [node] and len(node.parents) == len(inputs)


def test_nonfinite_loss_names_first_bad_op():
    def loss(theta):
        return ad.vsum(ad.mul(ad.exp(ad.mul(theta, 1000.0)), -1.0))

    with np.errstate(over="ignore"), pytest.raises(NonFiniteLossError) as err:
        evaluate_with_gradient(loss, params([1.0]))
    assert err.value.op == "exp"


def test_nonfinite_gradient_detected():
    # exp(-exp(t)) underflows to a finite 0 at t = 1000, but its derivative
    # multiplies that 0 by exp(1000) = inf, so only the gradient goes NaN
    def loss(theta):
        return ad.vsum(ad.exp(ad.mul(ad.exp(theta), -1.0)))

    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteLossError, match="gradient"):
        evaluate_with_gradient(loss, params([1000.0]))


def test_loss_must_be_var():
    with pytest.raises(TypeError):
        evaluate_with_gradient(lambda theta: 3.0, params([1.0]))


def test_registry_must_cover_vector():
    with pytest.raises(ValueError):
        ParameterVector(np.arange(4.0), {"a": (0, 2)})
    with pytest.raises(ValueError):
        ParameterVector(np.arange(4.0), {"a": (0, 2), "b": (1, 4)})


def test_parameter_vector_blocks():
    pv = ParameterVector(np.arange(5.0), {"a": (0, 2), "b": (2, 5)})
    assert_allclose(pv.block("b"), [2.0, 3.0, 4.0])
    pv2 = pv.with_values(np.ones(5))
    assert pv2.registry == pv.registry
    assert len(pv2) == 5


def test_nonfinite_parameters_rejected():
    with pytest.raises(ValueError):
        ParameterVector(np.array([1.0, np.nan]), {"a": (0, 2)})


def test_concurrent_evaluations_record_separate_tapes():
    """Threads evaluating gradients at once each get the serial result."""
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 4))

    def loss(theta):
        y = ad.matmul(a, ad.mul(theta, 0.5))
        for _ in range(40):  # long enough to span many thread switches
            y = ad.add(ad.mul(ad.exp(ad.mul(y, -0.1)), 0.5), y)
        return ad.vsum(ad.square(y))

    theta = params(rng.standard_normal(4))
    serial = evaluate_with_gradient(loss, theta)
    n_threads, n_evals = 4, 10
    results = [[] for _ in range(n_threads)]
    errors = []

    def work(out):
        try:
            for _ in range(n_evals):
                out.append(evaluate_with_gradient(loss, theta))
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
