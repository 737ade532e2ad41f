import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nestedflow.flows import FlowModel, OffsetTransform, build_lu_flow, build_qr_flow, \
    standard_normal_logpdf_rows
from nestedflow.coupling import build_multiscale_flow
from nestedflow.nested_dropout import (
    GeometricSchedule,
    NestedDropoutConfig,
    identity_order,
    keep_mask,
    loss_terms,
    reversed_order,
    sample_ks,
)


def identity_model(dim=3):
    return FlowModel(dim, [OffsetTransform(dim)], np.zeros(dim))


def truncate(z, k, order):
    """One latent with every coordinate of ordering rank k or beyond zeroed,
    by the mask the objective and the MSE curve apply."""
    return z * keep_mask(k, order, z.size)[0]


def recon_mean(m, x, ks, order=None):
    """The objective's per-dimension reconstruction MSE at fixed ks."""
    cfg = NestedDropoutConfig(lam=1.0, schedule=GeometricSchedule(p=0.5, K=m.dim),
                              drop_order=order)
    return float(loss_terms(m, np.atleast_2d(x), ks, cfg)[2])


def test_schedule_validation():
    with pytest.raises(ValueError):
        GeometricSchedule(p=0.0, K=3)
    with pytest.raises(ValueError):
        GeometricSchedule(p=1.5, K=3)
    with pytest.raises(ValueError):
        GeometricSchedule(p=0.5, K=0)


def test_pmf_clamped_tail():
    pmf = GeometricSchedule(p=0.33, K=3).pmf()
    assert_allclose(pmf, [0.33, 0.2211, 0.4489], atol=1e-12)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_p_one_always_keeps_one_dimension():
    s = GeometricSchedule(p=1.0, K=5)
    rng = np.random.default_rng(0)
    assert sample_ks(s, rng, 1).tolist() == [1]
    assert np.all(sample_ks(s, rng, 1000) == 1)


def test_sampler_matches_pmf():
    s = GeometricSchedule(p=0.33, K=3)
    draws = sample_ks(s, np.random.default_rng(1), 200_000)
    empirical = np.bincount(draws, minlength=4)[1:] / draws.size
    tv = 0.5 * np.abs(empirical - s.pmf()).sum()
    assert tv < 0.01


def test_sampler_tail_mass_on_k():
    s = GeometricSchedule(p=1e-3, K=64)
    draws = sample_ks(s, np.random.default_rng(2), 100_000)
    assert draws.max() == 64
    assert np.mean(draws == 64) == pytest.approx((1 - 1e-3) ** 63, abs=0.01)


def test_truncate_examples():
    z = np.array([1.0, 2.0, 3.0])
    assert_allclose(truncate(z, 1, identity_order(3)), [1.0, 0.0, 0.0])
    assert_allclose(truncate(z, 3, identity_order(3)), [1.0, 2.0, 3.0])
    assert_allclose(truncate(z, 1, reversed_order(3)), [0.0, 0.0, 3.0])


def test_truncate_range_check():
    with pytest.raises(ValueError):
        truncate(np.ones(3), 0, identity_order(3))
    with pytest.raises(ValueError):
        truncate(np.ones(3), 4, identity_order(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**31 - 1))
def test_truncate_idempotent_and_nested(dim_k, seed):
    rng = np.random.default_rng(seed)
    dim = 10
    k = dim_k
    z = rng.standard_normal(dim)
    order = rng.permutation(dim)
    once = truncate(z, k, order)
    assert_allclose(truncate(once, k, order), once, atol=0)
    if k < dim:
        wider = truncate(z, k + 1, order)
        # every coordinate kept at level k survives unchanged at level k+1
        assert np.all((once == 0.0) | (wider == once))


def test_reconstruct_full_rank_is_round_trip():
    rng = np.random.default_rng(3)
    models = [build_qr_flow(3, rng), build_lu_flow(3, rng),
              build_multiscale_flow(8, 2, 2, rng, hidden_width=8)]
    for m in models:
        m.set_params(m.params.values + 0.3 * rng.standard_normal(m.n_params))
        x = rng.standard_normal((5, m.dim))
        assert recon_mean(m, x, np.full(5, m.dim)) < 1e-16


def test_reconstruct_identity_flow():
    # keeping coordinate 0 reconstructs (4, 0, 0): error (25 + 36) / 3
    m = identity_model()
    x = np.array([4.0, 5.0, 6.0])
    assert recon_mean(m, x, [1]) == 61.0 / 3.0
    assert recon_mean(m, x, [1], reversed_order(3)) == 41.0 / 3.0


def test_reconstruction_error_per_dimension():
    assert recon_mean(identity_model(), np.ones(3), [1]) == \
        pytest.approx(2.0 / 3.0, abs=1e-15)


def test_combined_loss_forced_truncation_value():
    # identity flow, x = (1,1,1), k forced to 1 by p = 1, lambda = 1:
    # -log p(x) = 4.256815599614018 and the dropped coordinates cost 2/3
    m = identity_model()
    cfg = NestedDropoutConfig(lam=1.0, schedule=GeometricSchedule(p=1.0, K=3))
    ks = sample_ks(cfg.schedule, np.random.default_rng(0), 1)
    total, _, _ = loss_terms(m, np.ones((1, 3)), ks, cfg)
    assert float(total) == pytest.approx(4.923482266280685, abs=1e-12)


def test_combined_loss_lambda_zero_is_mean_nll():
    rng = np.random.default_rng(4)
    m = build_qr_flow(3, rng)
    x = rng.standard_normal((50, 3))
    cfg = NestedDropoutConfig(lam=0.0, schedule=GeometricSchedule(p=0.33, K=3))
    ks = sample_ks(cfg.schedule, np.random.default_rng(0), 50)
    got = float(loss_terms(m, x, ks, cfg)[0])
    z, logdet = m.forward_batch(x)
    want = -float(np.mean(np.add(standard_normal_logpdf_rows(z), logdet)))
    assert got == want  # identical code path, not merely close


def test_combined_loss_all_k_max_matches_nll():
    rng = np.random.default_rng(5)
    m = build_lu_flow(3, rng)
    x = rng.standard_normal((20, 3))
    cfg = NestedDropoutConfig(lam=7.0, schedule=GeometricSchedule(p=0.4, K=3))
    total, nll, _ = loss_terms(m, x, np.full(20, 3), cfg)
    assert float(total) == pytest.approx(float(nll), abs=1e-8)


def test_config_validation():
    s = GeometricSchedule(p=0.5, K=3)
    with pytest.raises(ValueError):
        NestedDropoutConfig(lam=-1.0, schedule=s)
    with pytest.raises(ValueError):
        NestedDropoutConfig(lam=1.0, schedule=s, drop_order=[0, 0, 2])
    cfg = NestedDropoutConfig(lam=1.0, schedule=s)
    assert cfg.drop_order.tolist() == [0, 1, 2]


def test_keep_mask_ranks():
    order = np.array([2, 0, 1])
    mask = keep_mask(np.array([1, 2]), order, 3)
    assert mask.tolist() == [[False, False, True], [True, False, True]]


def test_truncation_gradient_matches_finite_differences():
    from nestedflow import autodiff as ad

    rng = np.random.default_rng(6)
    m = build_qr_flow(3, rng)
    x = rng.standard_normal((4, 3))
    cfg = NestedDropoutConfig(lam=5.0, schedule=GeometricSchedule(p=0.5, K=3))
    ks = np.array([1, 2, 3, 1])

    def loss(theta):
        return loss_terms(m, x, ks, cfg, theta)[0]

    rec = ad.evaluate_with_gradient(loss, m.params)
    fd = ad.finite_difference_gradient(loss, m.params, step=1e-6)
    assert np.max(np.abs(rec.gradient - fd) /
                  np.maximum(np.abs(fd), 1e-8)) < 1e-5
