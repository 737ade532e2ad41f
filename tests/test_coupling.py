import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nestedflow.autodiff import evaluate_with_gradient, finite_difference_gradient
from nestedflow.coupling import (
    AffineCouplingTransform,
    build_multiscale_flow,
    depth_forward_order,
    multiscale_depth_order,
    split_schedule,
)
from nestedflow.flows import FlowModel, stack_models, standard_normal_logpdf_rows
from nestedflow.nested_dropout import GeometricSchedule, NestedDropoutConfig, loss_terms


def fresh_coupling(dim=6, seed=0, hidden=8):
    a = np.arange(dim // 2)
    b = np.arange(dim // 2, dim)
    t = AffineCouplingTransform(dim, a, b, hidden_width=hidden)
    return t, t.init_params(np.random.default_rng(seed))


def forward(t, p, x):
    """Latent rows and per-row log-determinants of one transform."""
    return FlowModel(t.dim, [t], p).forward_batch(np.atleast_2d(x))


def inverse(t, p, z):
    return FlowModel(t.dim, [t], p).inverse_batch(np.atleast_2d(z))


def test_zero_initialized_coupling_is_identity():
    t, p = fresh_coupling()
    x = np.random.default_rng(1).standard_normal((1, 6))
    z, logdet = forward(t, p, x)
    assert_allclose(z, x, atol=0)
    assert np.all(logdet == 0.0)


def test_constant_conditioner_affine_arithmetic():
    # all weights zero, biases chosen so s = log 2 and t = 1 on the single
    # transformed coordinate
    t = AffineCouplingTransform(3, [0, 1], [2], hidden_width=4)
    p = np.zeros(sum(size for _, size in t.param_blocks))
    start = p.size - 2  # b3, the last block: the raw log-scale, then the shift
    raw = np.arctanh(np.log(2.0) / t.log_scale_bound)
    p[start] = raw       # log-scale slot
    p[start + 1] = 1.0   # shift slot
    z, logdet = forward(t, p, np.array([5.0, -1.0, 3.0]))
    assert_allclose(z[0, :2], [5.0, -1.0], atol=0)
    assert z[0, 2] == pytest.approx(3.0 * 2.0 + 1.0, abs=1e-12)
    assert logdet[0] == pytest.approx(np.log(2.0), abs=1e-12)
    back = inverse(t, p, z)
    assert_allclose(back, [[5.0, -1.0, 3.0]], atol=1e-12)


def numeric_logdet(t, p, x, step=1e-6):
    d = x.size
    jac = np.empty((d, d))
    for j in range(d):
        up = x.copy()
        up[j] += step
        down = x.copy()
        down[j] -= step
        jac[:, j] = (forward(t, p, up)[0][0] - forward(t, p, down)[0][0]) / (2 * step)
    return np.linalg.slogdet(jac)[1]


def test_logdet_matches_finite_difference_jacobian():
    rng = np.random.default_rng(7)
    t, p = fresh_coupling(dim=8, hidden=8)
    p = p + 0.4 * rng.standard_normal(p.size)
    for _ in range(3):
        x = rng.standard_normal(8)
        _, logdet = forward(t, p, x)
        assert logdet[0] == pytest.approx(numeric_logdet(t, p, x), abs=1e-4)


def test_round_trip_with_random_conditioner():
    rng = np.random.default_rng(3)
    t, p = fresh_coupling(dim=6)
    p = p + rng.standard_normal(p.size)
    x = rng.standard_normal((20, 6))
    z, _ = forward(t, p, x)
    assert_allclose(inverse(t, p, z), x, atol=1e-8)


def out_of_place_coupling(t, w, x, direction):
    """A coupling's output and ``back`` written with every op allocating its
    result and each output assembled by scattering both column sets; the
    conditioner's backpropagation is the transform's own."""
    w1, b1, w2, b2, w3, b3 = w
    a_idx, b_idx, nb = t.identity_idx, t.transformed_idx, t.transformed_idx.size

    def assemble(keep, changed):
        out = np.empty((keep.shape[0], t.dim))
        out[:, a_idx] = keep
        out[:, b_idx] = changed
        return out

    xa, xb = x[:, a_idx], x[:, b_idx]
    h1 = np.tanh(np.add(np.matmul(xa, w1), b1))
    h2 = np.tanh(np.add(np.matmul(h1, w2), b2))
    out = np.add(np.matmul(h2, w3), b3)
    ts = np.tanh(out[:, np.arange(nb)])
    s, shift = np.multiply(ts, t.log_scale_bound), out[:, nb:]
    if direction == "forward":
        es = np.exp(s)
        z = assemble(xa, np.add(np.multiply(xb, es), shift))

        def back(gz, g_logdet):
            gzb = gz[:, b_idx]
            g_s = g_logdet[:, None] + np.multiply(np.multiply(gzb, xb), es)
            g_local, g_xa = t._conditioner_vjp(w, xa, h1, h2, ts, g_s, gzb)
            return g_local, assemble(gz[:, a_idx] + g_xa, np.multiply(gzb, es))

        return z, np.sum(s, axis=1), back
    d = np.subtract(xb, shift)
    e = np.exp(np.multiply(s, -1.0))

    def back(g):
        gxb = g[:, b_idx]
        g_d = np.multiply(gxb, e)
        g_s = np.multiply(np.multiply(np.multiply(gxb, d), e), -1.0)
        g_local, g_za = t._conditioner_vjp(w, xa, h1, h2, ts, g_s, -g_d)
        return g_local, assemble(g[:, a_idx] + g_za, g_d)

    return assemble(xa, np.multiply(d, e)), back


@pytest.mark.parametrize("a,b", [([0, 1, 2], [3, 4, 5]), ([1, 4], [0, 2, 3, 5]),
                                 ([5, 0, 3], [2, 1, 4])])
def test_coupling_matches_out_of_place_arithmetic(a, b):
    """Forward, inverse and both ``back`` closures equal, bit for bit, the
    out-of-place formulas, and leave their inputs unchanged."""
    rng = np.random.default_rng(11)
    t = AffineCouplingTransform(6, a, b, hidden_width=7)
    w = t.weights(rng.standard_normal(sum(size for _, size in t.param_blocks)))
    x, g = rng.standard_normal((2, 25, 6))
    g_logdet = rng.standard_normal(25)
    kept = x.copy(), g.copy(), g_logdet.copy()
    for direction, args in (("forward", (g, g_logdet)), ("inverse", (g,))):
        *got, got_back = getattr(t, direction)(w, x)
        *want, want_back = out_of_place_coupling(t, w, x, direction)
        got += got_back(*args)
        want += want_back(*args)
        assert len(got) == len(want) == len(args) + 2
        for u, v in zip(got, want):
            assert u.shape == v.shape and u.tobytes() == v.tobytes()
    for before, after in zip(kept, (x, g, g_logdet)):
        assert before.tobytes() == after.tobytes()


def test_log_scale_is_bounded():
    rng = np.random.default_rng(4)
    t, p = fresh_coupling(dim=4, hidden=4)
    p = p + 50.0 * rng.standard_normal(p.size)
    x = 10.0 * rng.standard_normal(4)
    _, logdet = forward(t, p, x)
    assert abs(logdet[0]) <= 2.0 * 2 + 1e-12  # |B| * bound


def test_partition_validation():
    with pytest.raises(ValueError):
        AffineCouplingTransform(4, [0, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        AffineCouplingTransform(4, [], [0, 1, 2, 3])


def test_split_schedule_halves():
    levels = split_schedule(16, 3)
    assert [len(a) for a in levels] == [16, 8, 4]
    assert levels[1].tolist() == list(range(8, 16))
    assert levels[2].tolist() == list(range(12, 16))
    with pytest.raises(ValueError):
        split_schedule(4, 4)


def test_depth_order_single_level_is_identity():
    m = build_multiscale_flow(4, 1, 1, np.random.default_rng(0), hidden_width=4)
    assert multiscale_depth_order(m).tolist() == [0, 1, 2, 3]


def test_depth_order_two_levels():
    m = build_multiscale_flow(8, 2, 2, np.random.default_rng(0), hidden_width=4)
    order = multiscale_depth_order(m)
    assert sorted(order[:4].tolist()) == [4, 5, 6, 7]  # deep half first


def test_depth_order_three_levels_last_quarter_deepest():
    m = build_multiscale_flow(16, 3, 2, np.random.default_rng(0), hidden_width=4)
    order = multiscale_depth_order(m)
    assert order[:4].tolist() == [12, 13, 14, 15]
    assert np.array_equal(np.sort(order), np.arange(16))
    fwd = depth_forward_order(m)
    assert fwd.tolist() == list(range(16))
    assert m.depth_rank.tolist() == [1] * 8 + [2] * 4 + [3] * 4


def test_every_variable_transformed_each_level():
    m = build_multiscale_flow(8, 2, 2, np.random.default_rng(0), hidden_width=4)
    seen = {i: 0 for i in range(8)}
    for t in m.transforms:
        for v in t.transformed_idx:
            seen[int(v)] += 1
    # shallow variables transformed during level 1 only; deep ones twice
    assert all(count >= 1 for count in seen.values())
    assert all(seen[v] == 2 for v in range(4, 8))


# Smallest dimension whose split schedule keeps two active variables at
# every level.
MIN_DIM = {1: 2, 2: 3, 3: 5}


@st.composite
def multiscale_problems(draw, max_dim=12):
    """A perturbed multi-scale flow, a batch, truncation indices and the
    nested-dropout settings (lambda may be 0, which skips the inverse).
    Rows of 8 or more coordinates make numpy sum them pairwise, so a
    layout change of an intermediate would show in the last bits."""
    levels = draw(st.integers(1, 3))
    dim = draw(st.integers(MIN_DIM[levels], max_dim))
    per_level = draw(st.integers(1, 2))
    width = draw(st.integers(1, 4))
    batch = draw(st.integers(1, 5))
    lam = draw(st.sampled_from([0.0, 0.5, 20.0]))
    order = draw(st.permutations(range(dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = build_multiscale_flow(dim, levels, per_level, rng, hidden_width=width)
    m.set_params(m.params.values + 0.3 * rng.standard_normal(m.n_params))
    x = rng.standard_normal((batch, dim))
    ks = rng.integers(1, dim + 1, size=batch)
    cfg = NestedDropoutConfig(lam=lam, schedule=GeometricSchedule(p=0.3, K=dim),
                              drop_order=order)
    return m, x, ks, cfg


@settings(max_examples=15, deadline=None)
@given(multiscale_problems(max_dim=6))
def test_fused_coupling_gradient_matches_finite_differences(problem):
    m, x, ks, cfg = problem

    def loss(theta):
        return loss_terms(m, x, ks, cfg, theta)[0]

    analytic = evaluate_with_gradient(loss, m.params)
    numeric = finite_difference_gradient(loss, m.params, step=1e-5)
    # Round-off of a central difference at step h is about 50 eps |f| / h.
    atol = 1e-7 + 50 * np.finfo(float).eps * abs(analytic.value) / 1e-5
    assert np.all(np.abs(analytic.gradient - numeric) <= atol + 1e-4 * np.abs(numeric))


@settings(max_examples=30, deadline=None)
@given(multiscale_problems())
def test_tracked_coupling_values_equal_untracked(problem):
    """Training and evaluation compute the same function, bit for bit: the
    loss evaluated with its gradient equals the plain one, and its NLL
    term the flow's mean log likelihood."""
    m, x, ks, cfg = problem

    def loss(theta):
        return loss_terms(m, x, ks, cfg, theta)[0]

    total, nll, _ = loss_terms(m, x, ks, cfg)
    assert evaluate_with_gradient(loss, m.params).value == float(total)
    z, logdet = m.forward_batch(x)
    ll = np.add(standard_normal_logpdf_rows(z), logdet)
    assert nll == np.sum(ll) * (-1.0 / x.shape[0])


def count_graph_nodes(loss):
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent, _ in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


@settings(max_examples=30, deadline=None)
@given(multiscale_problems())
def test_loss_records_few_nodes_per_coupling(problem):
    """However many couplings, a loss evaluation builds two nodes: the
    parameters and the loss.  With a fused node per coupling application
    it took up to 15 + 4 per application, and a conditioner composed from
    elementwise primitives about 28 each."""
    m, x, ks, cfg = problem
    losses = []

    def loss(theta):
        losses.append(loss_terms(m, x, ks, cfg, theta)[0])
        return losses[-1]

    evaluate_with_gradient(loss, m.params)
    assert count_graph_nodes(losses[0]) == 2


def assert_stack_matches_solo(models, x, ks, cfg):
    """Each slice of the seed stack of ``models`` computes what its solo
    model computes, bit for bit: forward, inverse, log-determinant, loss
    terms and gradient.  ``x`` and ``ks`` carry the seed axis."""
    stack = stack_models(models)
    n_seeds, n = x.shape[:2]
    z, logdet = stack.forward_batch(x)
    back = stack.inverse_batch(z)
    _, nll, recon = loss_terms(stack, x, ks, cfg)
    record = evaluate_with_gradient(
        lambda theta: loss_terms(stack, x, ks, cfg, theta)[0], stack.params)
    for s, m in enumerate(models):
        z_s, logdet_s = m.forward_batch(x[s])
        assert np.array_equal(z[s], z_s)
        assert np.array_equal(np.broadcast_to(logdet, (n_seeds, n))[s],
                              np.broadcast_to(logdet_s, (n,)))
        assert np.array_equal(back[s], m.inverse_batch(z_s))
        _, nll_s, recon_s = loss_terms(m, x[s], ks[s], cfg)
        assert nll[s] == nll_s
        assert np.broadcast_to(recon, (n_seeds,))[s] == recon_s
        solo = evaluate_with_gradient(
            lambda theta: loss_terms(m, x[s], ks[s], cfg, theta)[0], m.params)
        assert record.value[s] == solo.value
        assert np.array_equal(record.gradient[s], solo.gradient)


@st.composite
def multiscale_seed_stacks(draw):
    """1-4 seeds of one perturbed multi-scale architecture, each built from
    its own generator, with a batch and truncation indices per seed.  At
    16 dimensions a level transforms 8 coordinates, so row sums over them
    run pairwise and show any layout difference between stack and solo."""
    n_seeds = draw(st.integers(1, 4))
    levels = draw(st.integers(1, 3))
    dim = draw(st.sampled_from([MIN_DIM[levels], 6, 16]))
    per_level = draw(st.integers(1, 2))
    width = draw(st.integers(1, 4))
    batch = draw(st.integers(1, 5))
    lam = draw(st.sampled_from([0.0, 20.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = []
    for _ in range(n_seeds):
        m = build_multiscale_flow(dim, levels, per_level, rng, hidden_width=width)
        m.set_params(m.params.values + 0.3 * rng.standard_normal(m.n_params))
        models.append(m)
    x = rng.standard_normal((n_seeds, batch, dim))
    ks = rng.integers(1, dim + 1, size=(n_seeds, batch))
    cfg = NestedDropoutConfig(lam=lam, schedule=GeometricSchedule(p=0.3, K=dim),
                              drop_order=rng.permutation(dim))
    return models, x, ks, cfg


@settings(max_examples=30, deadline=None)
@given(multiscale_seed_stacks())
def test_coupling_seed_stack_matches_solo_bitwise(problem):
    assert_stack_matches_solo(*problem)
