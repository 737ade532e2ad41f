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
from nestedflow.flows import BlockView, LULinearTransform, QRLinearTransform
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
        return ad.vsum(ad.mul(ad.mul(ad.square(t), t), 0.1))

    def combo(t):
        return ad.add(ad.mul(f(t), 2.0), ad.mul(g(t), -3.0))

    gf = evaluate_with_gradient(f, theta).gradient
    gg = evaluate_with_gradient(g, theta).gradient
    gc = evaluate_with_gradient(combo, theta).gradient
    assert_allclose(gc, 2.0 * gf - 3.0 * gg, rtol=1e-12)


def layer_view(t, n_extra):
    """A view of transform t's blocks at the front of a flat vector that
    has n_extra more entries after them."""
    ranges, offset = {}, 0
    for name, size in t.param_blocks:
        ranges[name] = (offset, offset + size)
        offset += size
    return ranges, offset, offset + n_extra


def scalar_losses():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((3, 4))
    w = rng.standard_normal(4)

    def rows_of(t, signs=(1.0, 1.0, 1.0)):
        """A 3x4 matrix whose rows are the 4-vector t times each sign."""
        return ad.mul(np.array(signs)[:, None], t)

    def arithmetic(t):
        x = ad.add(ad.mul(t, 2.0), ad.sub(t, ad.square(t)))
        return ad.vsum(ad.mul(x, x))

    def matrix(t):
        # (3, 4) against a (3, 1) column: gradients reduce over size-1 axes
        m = ad.sub(rows_of(t, (1.0, -2.0, 0.5)), a)
        y = ad.mul(m, ad.gather_cols(m, slice(1, 2)))
        return ad.vsum(ad.square(y))

    def gather(t):
        m = rows_of(t, (1.0, -1.0, 1.0))
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

    def transcendental(t):
        # exp enters through the diagonal exp(s) of a 2-D LU layer, whose
        # four parameters are t; its inverse divides by that diagonal
        layer = LULinearTransform(2, [1, 0])
        p = BlockView(t, layer_view(layer, 0)[0])
        z, logdet = layer.forward(p, a[:, :2])
        y = layer.inverse(p, a[:, 2:])
        return ad.add(ad.vsum(ad.add(ad.square(z), ad.square(y))),
                      ad.square(logdet))

    def entries(t):
        # I + t0 E_10 + t1 E_21 + t2 E_30, built entry by entry, times a
        m = np.eye(4)
        for i, (r, c) in enumerate([(1, 0), (2, 1), (3, 0)]):
            unit = np.zeros((4, 4))
            unit[r, c] = 1.0
            m = ad.add(m, ad.mul(unit, ad.slice_1d(t, i, i + 1)))
        return ad.vsum(ad.square(ad.vsum(ad.mul(a[:, :, None], m), axis=1)))

    def axis_sum(t):
        return ad.vsum(ad.square(ad.vsum(rows_of(t), axis=0)))

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
    """The LU layer's inverse solves each row against its triangular factors
    (U^T is lower, L^T upper; ``lower`` picks the one that is not the
    identity): gradients with respect to the factor entries and the rows."""
    rng = np.random.default_rng(5)
    b0 = rng.standard_normal((3, 4))
    layer = LULinearTransform(4, np.arange(4))
    ranges, n_layer, n = layer_view(layer, 4)
    values = np.zeros(n)
    values[n_layer:] = rng.standard_normal(4)
    factor = "upper_offdiag" if lower else "lower"
    values[slice(*ranges[factor])] = rng.standard_normal(6)
    if lower:
        values[slice(*ranges["upper_logdiag"])] = 0.4 * rng.standard_normal(4)

    def loss(theta):
        bvar = ad.add(b0, ad.slice_1d(theta, n_layer, n))  # shifts every row
        y = layer.inverse(BlockView(theta, ranges), bvar)
        return ad.vsum(ad.square(y))

    theta = params(values)
    rec = evaluate_with_gradient(loss, theta)
    fd = finite_difference_gradient(loss, theta, step=1e-6)
    assert rel_err(rec.gradient, fd) < 1e-5


def test_householder_rows_gradients():
    """The QR layer's reflections: gradients with respect to the Householder
    vector, the triangular factor and the rows they act on."""
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal((5, 3))
    layer = QRLinearTransform(3, 1)
    ranges, n_layer, n = layer_view(layer, 3)
    values = np.concatenate([[0.9, -0.2, 0.6], 0.3 * rng.standard_normal(6),
                             [0.1, -0.7, 0.3]])

    def loss(theta):
        x = ad.add(x0, ad.slice_1d(theta, n_layer, n))
        y, _ = layer.forward(BlockView(theta, ranges), x)
        return ad.vsum(ad.mul(ad.square(y), np.arange(1.0, 16.0).reshape(5, 3)))

    theta = params(values)
    rec = evaluate_with_gradient(loss, theta)
    fd = finite_difference_gradient(loss, theta, step=1e-6)
    assert rel_err(rec.gradient, fd) < 1e-5


def test_loss_value_matches_gradient_evaluation():
    """Plain evaluation and the taped one run the same arithmetic."""
    def loss(theta):
        return ad.vsum(ad.mul(ad.square(theta), theta))

    cases = [(loss, params([0.1, 0.2]))]
    cases += [gradient_instance(kind, seed)
              for kind in ("qr-linear", "lu-linear", "coupling", "combined")
              for seed in range(3)]
    for loss, theta in cases:
        assert loss_value(loss, theta) == evaluate_with_gradient(loss, theta).value


def primitive_calls():
    """Every primitive, and the fused linear-layer nodes that replaced the
    reflection, triangular-solve and matrix-building primitives: array
    inputs and a call taking them."""
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 3))
    v = rng.standard_normal(3)
    qr, lu = QRLinearTransform(3, 2), LULinearTransform(3, [2, 0, 1])
    qr_theta, lu_theta = qr.init_params(rng), 0.3 * rng.standard_normal(9)
    qr_ranges, lu_ranges = layer_view(qr, 0)[0], layer_view(lu, 0)[0]
    return {
        "add": ([m, v], ad.add),
        "sub": ([m, v], ad.sub),
        "mul": ([m, v], ad.mul),
        "square": ([m], ad.square),
        "vsum": ([m], lambda a: ad.vsum(a, axis=1)),
        "slice_1d": ([v], lambda a: ad.slice_1d(a, 1, 3)),
        "gather_cols": ([m], lambda a: ad.gather_cols(a, [2, 0])),
        # the QR inverse applies the reflections to the rows of the batch
        "householder_rows": ([qr_theta, m], lambda t, z: qr.inverse(
            BlockView(t, qr_ranges), z)),
        # the LU inverse: the rows against the triangular factors
        "solve_triangular_rows": ([lu_theta, m], lambda t, z: lu.inverse(
            BlockView(t, lu_ranges), z)),
        # a matrix built from parameter entries, over a constant batch
        "matrix_from_entries": ([lu_theta], lambda t: lu.inverse(
            BlockView(t, lu_ranges), m)),
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
        return ad.vsum(ad.mul(ad.square(ad.mul(theta, 1e200)), -1.0))

    with np.errstate(over="ignore"), pytest.raises(NonFiniteLossError) as err:
        evaluate_with_gradient(loss, params([1.0]))
    assert err.value.op == "square"


def test_nonfinite_gradient_detected():
    # 1e308 * t^2 is finite at t = 1, but its derivative 2e308 overflows,
    # so only the gradient goes infinite
    def loss(theta):
        return ad.vsum(ad.mul(ad.square(theta), 1e308))

    with np.errstate(over="ignore"), \
            pytest.raises(NonFiniteLossError, match="gradient"):
        evaluate_with_gradient(loss, params([1.0]))


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
        y = ad.mul(a, ad.mul(theta, 0.5))
        for _ in range(40):  # long enough to span many thread switches
            y = ad.add(ad.mul(ad.square(ad.mul(y, 0.1)), 0.5), ad.mul(y, 0.5))
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
