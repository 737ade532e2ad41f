import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nestedflow.autodiff import evaluate_with_gradient, finite_difference_gradient
from nestedflow.checkpoint import CheckpointError, load_model, model_from_dict, \
    model_to_dict, save_model
from nestedflow.coupling import build_multiscale_flow
from nestedflow.flows import (
    FlowModel,
    LULinearTransform,
    OffsetTransform,
    QRLinearTransform,
    build_lu_flow,
    build_qr_flow,
    stack_models,
    standard_normal_logpdf_rows,
    transform_fields,
)
from nestedflow.nested_dropout import GeometricSchedule, NestedDropoutConfig, loss_terms
from test_coupling import assert_stack_matches_solo, count_graph_nodes


def identity_model(dim=3):
    return FlowModel(dim, [OffsetTransform(dim)], np.zeros(dim))


def forward(t, params, x):
    """One transform applied to one point: its image and log-determinant."""
    z, logdet = FlowModel(t.dim, [t], params).forward_batch(np.atleast_2d(x))
    return z[0], float(np.atleast_1d(logdet)[0])


def log_likelihood_rows(m, x):
    """Per-row log likelihood under the flow (nats), from one forward pass."""
    z, logdet = m.forward_batch(np.atleast_2d(x))
    return np.add(standard_normal_logpdf_rows(z), logdet)


def log_likelihood(m, x):
    return float(log_likelihood_rows(m, x)[0])


def random_model(kind, dim, seed):
    rng = np.random.default_rng(seed)
    if kind == "qr":
        return build_qr_flow(dim, rng)
    if kind == "lu":
        return build_lu_flow(dim, rng)
    levels = 2 if dim >= 4 else 1
    return build_multiscale_flow(dim, levels, 2, rng, hidden_width=8)


def perturb(model, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    model.set_params(model.params.values + scale * rng.standard_normal(model.n_params))
    return model


@pytest.mark.parametrize("z, want", [
    (np.zeros(3), -2.756815599614018),
    (np.zeros(1), -0.9189385332046727),
    (np.ones(3), -4.256815599614018),
])
def test_standard_normal_logpdf(z, want):
    rows = np.stack([z, z])
    assert_allclose(standard_normal_logpdf_rows(rows), [want, want], atol=1e-12)


def test_identity_parameters_give_identity_map():
    t = LULinearTransform(3, np.arange(3))
    z, logdet = forward(t, np.zeros(9), np.array([0.5, -1.0, 2.0]))
    assert_allclose(z, [0.5, -1.0, 2.0], atol=1e-14)
    assert logdet == 0.0

    tq = QRLinearTransform(2, 1)
    p = np.concatenate([[1.0, 0.0], [0.0], [0.0, 0.0]])
    z, logdet = forward(tq, p, np.array([3.0, 4.0]))
    # one reflection through e1: negates the first coordinate
    assert_allclose(z, [-3.0, 4.0], atol=1e-14)
    assert logdet == 0.0


def test_scalar_scaling_transform():
    t = LULinearTransform(1, [0])
    p = np.array([np.log(2.0)])
    z, logdet = forward(t, p, np.array([3.0]))
    assert_allclose(z, [6.0], atol=1e-12)
    assert logdet == pytest.approx(np.log(2.0))
    back = FlowModel(1, [t], p).inverse_batch(np.array([[4.0]]))
    assert_allclose(back, [[2.0]], atol=1e-12)


@pytest.mark.parametrize("kind", ["qr", "lu", "coupling"])
@pytest.mark.parametrize("dim", [2, 3, 8])
def test_round_trips(kind, dim, n_instances=10):
    for i in range(n_instances):
        m = perturb(random_model(kind, dim, 100 * i + dim), i)
        x = np.random.default_rng(i).standard_normal((4, dim))
        z, _ = m.forward_batch(x)
        assert_allclose(np.asarray(m.inverse_batch(z)), x, atol=1e-8)
        x2 = np.asarray(m.inverse_batch(x))
        z2, _ = m.forward_batch(x2)
        assert_allclose(np.asarray(z2), x, atol=1e-8)


@pytest.mark.parametrize("kind", ["qr", "lu"])
@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_linear_logdet_matches_explicit_determinant(kind, dim):
    for i in range(10):
        m = perturb(random_model(kind, dim, 17 * i + dim), i + 1)
        _, ld = m.forward_batch(np.zeros((1, dim)))
        w = np.asarray(m.forward_batch(np.eye(dim))[0]).T
        assert abs(float(ld) - np.linalg.slogdet(w)[1]) < 1e-10


def test_composition_additivity():
    rng = np.random.default_rng(9)
    parts = [QRLinearTransform(3, 2), LULinearTransform(3, rng.permutation(3)),
             OffsetTransform(3)]
    params = np.concatenate([t.init_params(rng) for t in parts])
    stack = FlowModel(3, parts, params)
    x = rng.standard_normal((5, 3))
    _, ld_total = stack.forward_batch(x)
    offset = 0
    ld_sum = 0.0
    y = x
    for t in parts:
        n = sum(size for _, size in t.param_blocks)
        y, ld = FlowModel(3, [t], params[offset : offset + n]).forward_batch(y)
        ld_sum += ld
        offset += n
    assert float(ld_total) == pytest.approx(ld_sum, abs=1e-12)


def test_likelihood_invariant_under_latent_permutation():
    m = perturb(random_model("qr", 4, 21), 2)
    x = np.random.default_rng(3).standard_normal(4)
    base = log_likelihood(m, x)
    perm = LULinearTransform(4, [2, 0, 3, 1])
    permuted = FlowModel(4, m.transforms + [perm],
                         np.concatenate([m.params.values, np.zeros(16)]))
    # zero LU parameters leave only the permutation; |det| = 1
    assert log_likelihood(permuted, x) == pytest.approx(base, abs=1e-10)


def test_flow_log_likelihood_examples():
    assert log_likelihood(identity_model(), np.zeros(3)) == \
        pytest.approx(-2.756815599614018, abs=1e-12)
    t = LULinearTransform(1, [0])
    m = FlowModel(1, [t], np.array([np.log(2.0)]))
    assert log_likelihood(m, np.zeros(1)) == \
        pytest.approx(-0.9189385332046727 + np.log(2.0), abs=1e-12)


def test_offset_transform_centers():
    t = OffsetTransform(2)
    z, logdet = forward(t, np.array([1.0, -2.0]), np.array([0.0, 0.0]))
    assert_allclose(z, [1.0, -2.0])
    assert logdet == 0.0
    m = build_qr_flow(2, np.random.default_rng(0), offset=True)
    assert m.transforms[0].kind == "offset"


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        FlowModel(3, [OffsetTransform(2)], np.zeros(2))
    with pytest.raises(ValueError):
        FlowModel(2, [OffsetTransform(2)], np.zeros(5))


def test_lu_permutation_must_be_bijection():
    with pytest.raises(ValueError):
        LULinearTransform(3, [0, 0, 2])


def test_checkpoint_round_trip_bit_exact(tmp_path):
    def maps(t, p, x):
        """A transform's forward image, log-determinant and inverse of it."""
        w = t.weights(p)
        z, logdet, _ = t.forward(w, x)
        return z, logdet, t.inverse(w, z)[0]

    def assert_rebuilds(t, p, x):
        """``t`` rebuilt from its fields has its fields and maps ``x`` to its bits."""
        again = type(t)(**transform_fields(t))
        assert transform_fields(again) == transform_fields(t)
        for got, want in zip(maps(again, p, x), maps(t, p, x)):
            assert np.array_equal(got, want)
        return again

    rng = np.random.default_rng(8)
    models = {kind: random_model(kind, 4, 5) for kind in ("qr", "lu", "coupling")}
    models["qr-h2-offset"] = build_qr_flow(4, rng, n_householder=2, offset=True)
    models["lu-offset"] = build_lu_flow(4, rng, offset=True)
    x = np.random.default_rng(0).standard_normal((3, 4))
    for kind, m in models.items():
        m = perturb(m, 3)
        path = tmp_path / f"{kind}.json"
        save_model(m, path, rng_seed=5)
        loaded = load_model(path)
        assert np.array_equal(loaded.params.values, m.params.values)
        assert loaded.dim == m.dim
        assert [t.kind for t in loaded.transforms] == [t.kind for t in m.transforms]
        assert_allclose(np.asarray(loaded.forward_batch(x)[0]),
                        np.asarray(m.forward_batch(x)[0]), atol=0)
        save_model(loaded, tmp_path / "again.json", rng_seed=5)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        for t, (lo, hi) in zip(m.transforms, m.spans):
            assert_rebuilds(t, m.params.values[lo:hi], x)
    assert models["qr-h2-offset"].transforms[1].n_householder == 2

    stack = perturb(stack_models([build_lu_flow(4, rng, offset=True) for _ in range(3)]), 4)
    xs = np.random.default_rng(1).standard_normal((3, 5, 4))
    for t, (lo, hi) in zip(stack.transforms, stack.spans):
        again = assert_rebuilds(t, stack.params.values[:, lo:hi], xs)
    assert again.permutation.shape == (3, 4)


def test_checkpoint_preserves_multiscale_metadata(tmp_path):
    m = random_model("coupling", 8, 11)
    save_model(m, tmp_path / "ms.json")
    loaded = load_model(tmp_path / "ms.json")
    assert np.array_equal(loaded.depth_rank, m.depth_rank)
    assert loaded.n_levels == m.n_levels


def test_checkpoint_errors(tmp_path):
    m = identity_model(2)
    doc = model_to_dict(m)
    bad = dict(doc, schema_version=99)
    with pytest.raises(CheckpointError, match="schema version"):
        model_from_dict(bad)
    bad = json.loads(json.dumps(doc))
    bad["transforms"][0]["type"] = "mystery"
    with pytest.raises(CheckpointError, match="mystery"):
        model_from_dict(bad)
    bad = json.loads(json.dumps(doc))
    del bad["transforms"][0]["params"]["offset"]
    with pytest.raises(CheckpointError, match="offset"):
        model_from_dict(bad)
    bad = json.loads(json.dumps(doc))
    bad["transforms"][0]["params"]["offset"] = [1.0, 2.0, 3.0]
    with pytest.raises(CheckpointError, match="size"):
        model_from_dict(bad)
    (tmp_path / "junk.json").write_text("{not json")
    with pytest.raises(CheckpointError, match="JSON"):
        load_model(tmp_path / "junk.json")


@st.composite
def linear_problems(draw):
    """A perturbed QR or LU flow (optionally behind an offset), a batch,
    truncation indices and nested-dropout settings (lambda 0 skips the
    inverse)."""
    kind = draw(st.sampled_from(["qr", "lu"]))
    dim = draw(st.integers(1, 8))
    offset = draw(st.booleans())
    batch = draw(st.integers(1, 5))
    lam = draw(st.sampled_from([0.0, 20.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "qr":
        m = build_qr_flow(dim, rng, draw(st.integers(1, 2 * dim)), offset=offset)
    else:
        m = build_lu_flow(dim, rng, offset=offset)
    m.set_params(m.params.values + 0.3 * rng.standard_normal(m.n_params))
    x = rng.standard_normal((batch, dim))
    ks = rng.integers(1, dim + 1, size=batch)
    cfg = NestedDropoutConfig(lam=lam, schedule=GeometricSchedule(p=0.3, K=dim),
                              drop_order=rng.permutation(dim))
    return m, x, ks, cfg


@settings(max_examples=40, deadline=None)
@given(linear_problems())
def test_fused_linear_gradient_matches_finite_differences(problem):
    m, x, ks, cfg = problem

    def loss(theta):
        return loss_terms(m, x, ks, cfg, theta)[0]

    analytic = evaluate_with_gradient(loss, m.params)
    numeric = finite_difference_gradient(loss, m.params, step=1e-5)
    # Round-off of a central difference at step h is about 50 eps |f| / h.
    atol = 1e-7 + 50 * np.finfo(float).eps * abs(analytic.value) / 1e-5
    assert np.all(np.abs(analytic.gradient - numeric) <= atol + 1e-4 * np.abs(numeric))


@settings(max_examples=40, deadline=None)
@given(linear_problems())
def test_fused_linear_round_trip_and_logdet(problem):
    m, x, _, _ = problem
    z, logdet = m.forward_batch(x)
    assert_allclose(m.inverse_batch(z), x, atol=1e-9)
    a = m.forward_batch(np.eye(m.dim))[0] - m.forward_batch(np.zeros((1, m.dim)))[0]
    assert abs(float(logdet) - np.linalg.slogdet(a)[1]) < 1e-10


@settings(max_examples=40, deadline=None)
@given(linear_problems())
def test_tracked_linear_values_equal_untracked(problem):
    """Training and evaluation compute the same function, bit for bit: the
    loss evaluated with its gradient equals the plain one, and its NLL
    term the flow's mean log likelihood."""
    m, x, ks, cfg = problem

    def loss(theta):
        return loss_terms(m, x, ks, cfg, theta)[0]

    total, nll, _ = loss_terms(m, x, ks, cfg)
    assert evaluate_with_gradient(loss, m.params).value == float(total)
    assert nll == np.sum(log_likelihood_rows(m, x)) * (-1.0 / x.shape[0])


@pytest.mark.parametrize("kind", ["qr", "lu"])
def test_linear_step_records_at_most_20_nodes(kind):
    """One loss-and-gradient evaluation of a 3-D linear flow at lambda 20
    builds two nodes: the parameters and the loss, whose VJP runs the
    reverse sweep.  Composed from generic primitives the qr step took 43
    nodes, and with fused layer nodes 19."""
    m = random_model(kind, 3, 0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 3))
    ks = rng.integers(1, 4, size=50)
    cfg = NestedDropoutConfig(lam=20.0, schedule=GeometricSchedule(p=0.33, K=3))
    losses = []

    def loss(theta):
        losses.append(loss_terms(m, x, ks, cfg, theta)[0])
        return losses[-1]

    evaluate_with_gradient(loss, m.params)
    assert count_graph_nodes(losses[0]) == 2


@st.composite
def linear_stacks(draw):
    """A perturbed stack of 1-4 transforms drawn from offset, qr and lu in
    random order, a batch, truncation indices and nested-dropout settings
    with lambda > 0, so the loss runs the inverse pass too."""
    dim = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["offset", "qr", "lu"]), min_size=1, max_size=4))
    batch = draw(st.integers(1, 5))
    lam = draw(st.sampled_from([0.5, 20.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transforms = []
    for kind in kinds:
        if kind == "offset":
            transforms.append(OffsetTransform(dim))
        elif kind == "qr":
            transforms.append(QRLinearTransform(dim, draw(st.integers(1, 2 * dim))))
        else:
            transforms.append(LULinearTransform(dim, rng.permutation(dim)))
    params = np.concatenate([t.init_params(rng) for t in transforms])
    m = FlowModel(dim, transforms, params + 0.3 * rng.standard_normal(params.size))
    x = rng.standard_normal((batch, dim))
    ks = rng.integers(1, dim + 1, size=batch)
    cfg = NestedDropoutConfig(lam=lam, schedule=GeometricSchedule(p=0.3, K=dim),
                              drop_order=rng.permutation(dim))
    return m, x, ks, cfg


@settings(max_examples=40, deadline=None)
@given(linear_stacks())
def test_stack_round_trip_logdet_and_gradient(problem):
    """The reverse sweep visits the layers in the right order: a random
    stack inverts itself, its log-det is that of its forward map, and the
    gradient of the penalised loss matches finite differences."""
    m, x, ks, cfg = problem
    z, logdet = m.forward_batch(x)
    assert_allclose(m.inverse_batch(z), x, atol=1e-9)
    shift = m.forward_batch(np.zeros((1, m.dim)))[0]
    a = m.forward_batch(np.eye(m.dim))[0] - shift
    assert abs(float(logdet) - np.linalg.slogdet(a)[1]) < 1e-10

    def loss(theta):
        return loss_terms(m, x, ks, cfg, theta)[0]

    analytic = evaluate_with_gradient(loss, m.params)
    numeric = finite_difference_gradient(loss, m.params, step=1e-5)
    # Round-off of a central difference at step h is about 50 eps |f| / h.
    atol = 1e-7 + 50 * np.finfo(float).eps * abs(analytic.value) / 1e-5
    assert np.all(np.abs(analytic.gradient - numeric) <= atol + 1e-4 * np.abs(numeric))


@st.composite
def linear_seed_stacks(draw):
    """1-4 seeds of one random stack of 1-4 offset, qr and lu transforms:
    each seed draws its own parameters and LU permutations, a batch and
    truncation indices; lambda 0 skips the inverse pass."""
    n_seeds = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["offset", "qr", "lu"]), min_size=1, max_size=4))
    householders = [draw(st.integers(1, 2 * dim)) for _ in kinds]
    batch = draw(st.integers(1, 5))
    lam = draw(st.sampled_from([0.0, 0.5, 20.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = []
    for _ in range(n_seeds):
        transforms = [OffsetTransform(dim) if kind == "offset"
                      else QRLinearTransform(dim, h) if kind == "qr"
                      else LULinearTransform(dim, rng.permutation(dim))
                      for kind, h in zip(kinds, householders)]
        params = np.concatenate([t.init_params(rng) for t in transforms])
        models.append(FlowModel(dim, transforms,
                                params + 0.3 * rng.standard_normal(params.size)))
    x = rng.standard_normal((n_seeds, batch, dim))
    ks = rng.integers(1, dim + 1, size=(n_seeds, batch))
    cfg = NestedDropoutConfig(lam=lam, schedule=GeometricSchedule(p=0.3, K=dim),
                              drop_order=rng.permutation(dim))
    return models, x, ks, cfg


@settings(max_examples=60, deadline=None)
@given(linear_seed_stacks())
def test_linear_seed_stack_matches_solo_bitwise(problem):
    assert_stack_matches_solo(*problem)


def test_stack_models_rejects_mixed_architectures():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="one architecture"):
        stack_models([build_qr_flow(3, rng), build_qr_flow(3, rng, n_householder=2)])
    with pytest.raises(ValueError, match="one architecture"):
        stack_models([build_qr_flow(3, rng), build_lu_flow(3, rng)])
    lu = stack_models([build_lu_flow(3, rng) for _ in range(3)])
    assert lu.transforms[0].permutation.shape == (3, 3)
    assert lu.params.values.shape == (3, lu.n_params)
