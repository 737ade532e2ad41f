import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import nestedflow.optim as optim
from nestedflow.datasets import gen_synthetic_gaussian
from nestedflow.coupling import build_multiscale_flow
from nestedflow.flows import build_lu_flow, build_qr_flow
from nestedflow.nested_dropout import GeometricSchedule, NestedDropoutConfig
from nestedflow.optim import (
    AdamState,
    TrainConfig,
    TrainDivergenceError,
    adam_step,
    cosine_lr,
    init_adam,
    train,
    train_seeds,
)


def test_cosine_endpoints():
    assert cosine_lr(0, 100, 0.5) == 0.5
    assert cosine_lr(100, 100, 0.5) == 0.0
    assert cosine_lr(50, 100, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_cosine_out_of_range():
    with pytest.raises(ValueError):
        cosine_lr(101, 100, 0.5)
    with pytest.raises(ValueError):
        cosine_lr(-1, 100, 0.5)


def test_adam_first_step_is_signed_learning_rate():
    # with constant gradient g the bias-corrected first update is
    # lr * g / (|g| + eps), i.e. almost exactly lr in magnitude
    theta = np.zeros(3)
    grad = np.array([0.3, -2.0, 1e-4])
    theta1, state = adam_step(init_adam(3), theta, grad, lr=0.1)
    assert_allclose(theta1, -0.1 * np.sign(grad), rtol=1e-3)
    assert state.step_count == 1


def test_adam_zero_gradient_is_a_fixed_point():
    theta = np.array([1.0, -2.0])
    theta1, _ = adam_step(init_adam(2), theta, np.zeros(2), lr=0.1)
    assert_array_equal(theta1, theta)


def test_adam_minimizes_quadratic_bowl():
    theta = np.array([1.0, -2.0, 3.0])
    state = init_adam(3)
    for _ in range(10_000):
        theta, state = adam_step(state, theta, 2.0 * theta, lr=1e-2)
    assert np.max(np.abs(theta)) <= 1e-6


def test_adam_rejects_non_finite_gradient():
    with pytest.raises(TrainDivergenceError, match="step 1"):
        adam_step(init_adam(2), np.zeros(2), np.array([1.0, np.inf]), lr=0.1)


def test_adam_state_accumulates_moments():
    grad = np.array([1.0])
    _, s1 = adam_step(init_adam(1), np.zeros(1), grad, lr=0.1)
    assert_allclose(s1.first_moment, [0.1], atol=1e-15)
    assert_allclose(s1.second_moment, [0.001], atol=1e-15)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(iterations=-1, batch_size=10, lr_initial=0.1)
    with pytest.raises(ValueError):
        TrainConfig(iterations=5, batch_size=0, lr_initial=0.1)
    with pytest.raises(ValueError):
        TrainConfig(iterations=5, batch_size=10, lr_initial=0.0)
    with pytest.raises(ValueError):
        TrainConfig(iterations=5, batch_size=10, lr_initial=0.1,
                    lr_schedule="linear")


def test_lr_at_dispatch():
    const = TrainConfig(iterations=10, batch_size=4, lr_initial=0.2)
    assert const.lr_at(7) == 0.2
    annealed = TrainConfig(iterations=10, batch_size=4, lr_initial=0.2,
                           lr_schedule="cosine-to-zero")
    assert annealed.lr_at(0) == 0.2
    assert annealed.lr_at(10) == 0.0


def training_data(n=256, seed=0):
    rng = np.random.default_rng(seed)
    scale = np.array([2.0, 0.5])
    return rng.standard_normal((n, 2)) * scale


def test_zero_iterations_leaves_model_untouched():
    m = build_qr_flow(2, np.random.default_rng(0))
    before = m.params.values.copy()
    result = train(m, training_data(), TrainConfig(0, 16, 1e-2),
                   np.random.default_rng(1))
    assert_array_equal(result.model.params.values, before)
    assert result.trace.iteration.size == 0
    assert result.seconds_per_step == 0.0


def test_training_is_deterministic():
    runs = []
    for _ in range(2):
        m = build_qr_flow(2, np.random.default_rng(3))
        r = train(m, training_data(), TrainConfig(25, 32, 1e-2),
                  np.random.default_rng(7))
        runs.append((r.model.params.values.copy(), r.trace.nll_term.copy()))
    assert_array_equal(runs[0][0], runs[1][0])
    assert_array_equal(runs[0][1], runs[1][1])

    m = build_qr_flow(2, np.random.default_rng(3))
    other = train(m, training_data(), TrainConfig(25, 32, 1e-2),
                  np.random.default_rng(8))
    assert not np.array_equal(runs[0][0], other.model.params.values)


def test_training_reduces_negative_log_likelihood():
    m = build_qr_flow(2, np.random.default_rng(4))
    r = train(m, training_data(1024, seed=5), TrainConfig(400, 64, 1e-2),
              np.random.default_rng(6))
    head = r.trace.nll_term[:20].mean()
    tail = r.trace.nll_term[-20:].mean()
    assert tail < head - 0.2


def test_plain_training_records_zero_reconstruction_term():
    m = build_qr_flow(2, np.random.default_rng(9))
    r = train(m, training_data(), TrainConfig(10, 16, 1e-2),
              np.random.default_rng(10))
    assert_array_equal(r.trace.recon_term, np.zeros(10))


def test_penalized_training_records_reconstruction_term():
    nd = NestedDropoutConfig(lam=5.0, schedule=GeometricSchedule(p=0.5, K=2))
    m = build_qr_flow(2, np.random.default_rng(11))
    r = train(m, training_data(), TrainConfig(10, 16, 1e-2, nd=nd),
              np.random.default_rng(12))
    assert np.all(r.trace.recon_term >= 0.0)
    assert r.trace.recon_term.max() > 0.0


def test_train_accepts_dataset_objects():
    ds = gen_synthetic_gaussian(64, 16, seed=0)
    m = build_qr_flow(3, np.random.default_rng(13))
    r = train(m, ds, TrainConfig(3, 8, 1e-2), np.random.default_rng(14))
    assert r.trace.iteration.tolist() == [0, 1, 2]


def test_divergence_reports_iteration_and_last_terms():
    """A failure points at where it started: the iteration, the transform
    whose output went non-finite, and the last finite loss terms."""
    m = build_qr_flow(2, np.random.default_rng(15))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainDivergenceError,
                           match=r"iteration 1: non-finite forward output of "
                                 r"transform 0 \(qr_linear\); last finite terms: "
                                 r"iteration 0: nll="):
            train(m, training_data(), TrainConfig(50, 16, 1e9),
                  np.random.default_rng(16))


def test_divergence_names_inverse_transform():
    """A reconstruction pass that overflows names the inverse direction."""
    m = build_qr_flow(2, np.random.default_rng(15), offset=True)
    # the triangular factor's diagonal is exp(-700), so its inverse overflows
    m.set_params(np.concatenate([np.zeros(2), m.params.values[2:-2], [-700.0, -700.0]]))
    nd = NestedDropoutConfig(lam=1.0, schedule=GeometricSchedule(p=0.5, K=2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainDivergenceError,
                           match=r"iteration 0: non-finite inverse output of "
                                 r"transform 1 \(qr_linear\)"):
            train(m, training_data(), TrainConfig(5, 16, 1e-2, nd=nd),
                  np.random.default_rng(16))


ZERO_HOUSEHOLDER = (r"training diverged at iteration 0: weights of transform 0 "
                    r"\(qr_linear\): Householder vector must be nonzero; last finite "
                    r"terms: none")


def zero_householder_flow():
    m = build_qr_flow(2, np.random.default_rng(15))
    m.set_params(np.concatenate([np.zeros(2), m.params.values[2:]]))
    return m


def test_zero_householder_vector_is_a_divergence():
    """A zero Householder vector, met while building the weights outside
    both passes, names the iteration and the transform."""
    with pytest.raises(TrainDivergenceError, match=ZERO_HOUSEHOLDER):
        train(zero_householder_flow(), training_data(), TrainConfig(5, 16, 1e-2),
              np.random.default_rng(16))


def test_zero_householder_vector_fails_its_seed_alone_in_a_stack():
    ok, failed = train_seeds([build_qr_flow(2, np.random.default_rng(14)),
                              zero_householder_flow()],
                             [training_data()] * 2, TrainConfig(5, 16, 1e-2),
                             [np.random.default_rng(16), np.random.default_rng(16)])
    assert isinstance(failed, TrainDivergenceError)
    assert re.match(ZERO_HOUSEHOLDER, str(failed))
    assert np.isfinite(ok.trace.nll_term).all()


BUILDERS = {
    "qr": (3, lambda rng: build_qr_flow(3, rng)),
    "qr-offset": (3, lambda rng: build_qr_flow(3, rng, offset=True)),
    "lu": (3, lambda rng: build_lu_flow(3, rng)),
    "coupling": (8, lambda rng: build_multiscale_flow(8, 2, 2, rng, hidden_width=4)),
}


def assert_left_as_solo_train_leaves_them(models, rngs, data, cfgs, fresh):
    """Every seed's model and generator, the failing seed's included, end
    as its solo ``train`` leaves them: the same parameter bytes and the same
    generator state.  ``fresh(s)`` gives seed s's new model and generator."""
    for s, (m, rng) in enumerate(zip(models, rngs)):
        solo_m, solo_rng = fresh(s)
        try:
            train(solo_m, data[s], cfgs[s], solo_rng)
        except TrainDivergenceError:
            pass
        assert m.params.values.tobytes() == solo_m.params.values.tobytes(), s
        assert rng.bit_generator.state == solo_rng.bit_generator.state, s


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_train_seeds_matches_solo_train_bytewise(kind):
    """Each seed of a stack ends as its solo ``train`` ends: the same
    parameters and trace, byte for byte, or the same error, with the
    caller's model and generator left as that run leaves them.  Seed 1's
    data holds a row whose square overflows, so the stack fails at the
    first step that draws that row, and every seed trains again alone from
    its generator's state at entry."""
    dim, build = BUILDERS[kind]
    data = [np.random.default_rng(30 + s).standard_normal((48, dim)) for s in range(3)]
    data[1][5] = 1e200
    cfg = TrainConfig(12, 8, 1e-2, "cosine-to-zero",
                      NestedDropoutConfig(lam=20.0, schedule=GeometricSchedule(p=0.33, K=dim)))

    def fresh(s):
        return build(np.random.default_rng(40 + s)), np.random.default_rng(50 + s)

    def solo_train(s):
        m, rng = fresh(s)
        return train(m, data[s], cfg, rng)

    with np.errstate(all="ignore"):
        models, rngs = zip(*(fresh(s) for s in range(3)))
        stacked = train_seeds(models, data, cfg, rngs)
        assert type(stacked[1]) is TrainDivergenceError
        assert not str(stacked[1]).startswith("training diverged at iteration 0")
        with pytest.raises(TrainDivergenceError) as solo_error:
            solo_train(1)
        assert str(stacked[1]) == str(solo_error.value)
        for s in (0, 2):
            result, solo = stacked[s], solo_train(s)
            assert result.model.params.values.tobytes() == solo.model.params.values.tobytes()
            for column in ("iteration", "nll_term", "recon_term", "lr"):
                assert getattr(result.trace, column).tobytes() == \
                    getattr(solo.trace, column).tobytes(), column
        assert_left_as_solo_train_leaves_them(models, rngs, data, [cfg] * 3, fresh)


@pytest.mark.parametrize("kind, p", [
    *(pytest.param(kind, 0.33, id=kind) for kind in sorted(BUILDERS)),
    *(pytest.param(kind, 1.0, id=f"{kind}-p1") for kind in sorted(BUILDERS))])
def test_train_seeds_with_per_seed_lambda_matches_solo_train_bytewise(kind, p):
    """A stack whose seeds have different nested-dropout weights, two of
    them 0, and whose training sets differ in size, trains each seed as
    ``train`` does with its own weight: the same parameters and every trace
    column byte for byte, a reconstruction term of 0.0 at weight 0, or the
    same error, with the caller's model and generator left as that run
    leaves them.  Seed 1's data holds a row whose square overflows, so the
    mixed stack fails and every seed trains again alone.  At p = 1 the
    truncation sampler draws nothing, so only batch rows move the
    generators."""
    dim, build = BUILDERS[kind]
    lams = [0.0, 20.0, 0.5, 0.0]
    data = [np.random.default_rng(60 + s).standard_normal((40 + 8 * s, dim))
            for s in range(4)]
    data[1][0] = 1e200  # first drawn at iteration 1, or 3 at p = 1
    schedule = GeometricSchedule(p=p, K=dim)

    def cfg(lam):
        return TrainConfig(12, 8, 1e-2, "cosine-to-zero",
                           NestedDropoutConfig(lam=lam, schedule=schedule))

    def fresh(s):
        return build(np.random.default_rng(70 + s)), np.random.default_rng(80 + s)

    def solo_train(s):
        m, rng = fresh(s)
        return train(m, data[s], cfg(lams[s]), rng)

    with np.errstate(all="ignore"):
        models, rngs = zip(*(fresh(s) for s in range(4)))
        stacked = train_seeds(models, data, cfg(np.array(lams)), rngs)
        with pytest.raises(TrainDivergenceError) as solo_error:
            solo_train(1)
        assert type(stacked[1]) is TrainDivergenceError
        assert not str(stacked[1]).startswith("training diverged at iteration 0")
        assert str(stacked[1]) == str(solo_error.value)
        for s in (0, 2, 3):
            result, solo = stacked[s], solo_train(s)
            assert result.model.params.values.tobytes() == solo.model.params.values.tobytes()
            for column in ("iteration", "nll_term", "recon_term", "lr"):
                assert getattr(result.trace, column).tobytes() == \
                    getattr(solo.trace, column).tobytes(), column
        assert_left_as_solo_train_leaves_them(models, rngs, data, [cfg(lam) for lam in lams],
                                              fresh)
    assert not stacked[0].trace.recon_term.any() and not stacked[3].trace.recon_term.any()
    assert stacked[2].trace.recon_term.all()


def test_a_non_numerical_error_in_a_stacked_step_is_not_retried_alone(monkeypatch):
    """Only an ``ArithmeticError`` sends a stack's seeds to solo runs: a
    ``ValueError`` raised in a stacked step leaves ``train_seeds`` as it
    is, after that one step, with the caller's models untouched."""
    calls = []

    def failing_loss_terms(m, x, *args):
        calls.append(np.ndim(x))
        raise ValueError("not a numerical failure")

    monkeypatch.setattr(optim, "loss_terms", failing_loss_terms)
    models = [build_qr_flow(2, np.random.default_rng(s)) for s in range(2)]
    before = [m.params.values.tobytes() for m in models]
    with pytest.raises(ValueError, match="not a numerical failure"):
        train_seeds(models, [training_data()] * 2, TrainConfig(5, 16, 1e-2),
                    [np.random.default_rng(16), np.random.default_rng(17)])
    assert calls == [3]  # one call, on the stack's (S, B, D) batch
    assert [m.params.values.tobytes() for m in models] == before


def test_trace_csv_layout(tmp_path):
    m = build_qr_flow(2, np.random.default_rng(17))
    r = train(m, training_data(), TrainConfig(4, 8, 1e-2),
              np.random.default_rng(18))
    path = tmp_path / "trace.csv"
    r.trace.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,nll_term,recon_term,lr"
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "0"


def test_train_rejects_empty_split():
    m = build_qr_flow(2, np.random.default_rng(19))
    with pytest.raises(ValueError):
        train(m, np.zeros((0, 2)), TrainConfig(1, 4, 1e-2),
              np.random.default_rng(20))
