"""End-to-end acceptance runs.

Everything here works on one fixed 3-D Gaussian dataset (plus a fixed
16-D hierarchical one for the multi-scale checks).  The dataset seed is
not arbitrary: test-split sampling noise on 10k points has a standard
deviation of about 0.012 nats, so the suite pins the first generator
seed whose oracle (true covariance) test log likelihood lands inside a
narrow center band.  A precondition test asserts that selection rule, so
a change to the generator cannot silently shift every downstream number.

Training runs are deliberately identical in protocol so results stay
comparable: 30k Adam steps, batch 500, lr 5e-3 for the 3-D linear flows;
3k steps, batch 256 for the 16-D multi-scale flow.  The linear runs of one
kind and penalty train as one seed stack (``train_seeds``), each seed byte
for byte its solo run, so a run's ``seconds`` time its whole stack.  The
16-D runs train solo.  Their stack is also byte for byte the solo runs, but
in 8 alternating pairs of 600-step runs (2-vCPU VM, OpenBLAS 1 thread) it
took 1.06-1.13x as long as the five solo runs; an earlier measurement on
such a VM had it 1.04-1.23x faster, so neither way is a clear gain.
"""

import json

import numpy as np
import pytest

from conftest import record_acceptance
from nestedflow.autodiff import evaluate_with_gradient, finite_difference_gradient
from nestedflow.coupling import (
    build_multiscale_flow,
    depth_forward_order,
    multiscale_depth_order,
)
from nestedflow.datasets import gen_synthetic_gaussian, gen_toy_hierarchical
from nestedflow.evaluation import avg_log_likelihood, deterministic_report_bytes, \
    mse_curve
from nestedflow.experiment import run_train
from nestedflow.flows import build_lu_flow, build_qr_flow
from nestedflow.nested_dropout import (
    GeometricSchedule,
    NestedDropoutConfig,
    identity_order,
    loss_terms,
    sample_ks,
)
from nestedflow.optim import TrainConfig, train, train_seeds
from nestedflow.pca import pca_fit, pca_mse

DATASET_SEED = 1
ORACLE_BAND = (-0.810, -0.797)
N_TRAIN = N_TEST = 10_000

LINEAR_TRAIN = dict(iterations=30_000, batch_size=500, lr_initial=5e-3)
TOY_TRAIN = dict(iterations=3_000, batch_size=256, lr_initial=5e-3)
TOY_DIM = 16
TOY_N = 5_000
TOY_SEED = 1

BASELINE_SEEDS = range(10)
ND_SEEDS = range(5)


def oracle_test_ll(ds):
    """Average test log likelihood under the true generator covariance."""
    rot = np.array(ds.provenance["parameters"]["rotation"])
    cov = rot @ np.diag([1.0, 0.1, 0.01]) @ rot.T
    x = ds.get_split("test")
    quad = np.einsum("ni,ij,nj->n", x, np.linalg.inv(cov), x)
    _, logdet = np.linalg.slogdet(cov)
    return float(np.mean(-0.5 * (3.0 * np.log(2.0 * np.pi) + logdet + quad)))


@pytest.fixture(scope="module")
def synthetic_data():
    for seed in range(20):
        ds = gen_synthetic_gaussian(N_TRAIN, N_TEST, seed)
        if ORACLE_BAND[0] <= oracle_test_ll(ds) <= ORACLE_BAND[1]:
            assert seed == DATASET_SEED, \
                f"dataset selection rule now picks seed {seed}"
            return ds
    raise AssertionError("no generator seed satisfies the oracle band")


def run_rngs(seed):
    children = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(children[0]), np.random.default_rng(children[1])


def train_linear(kind, seeds, data, nd=None):
    """One linear flow per seed, trained as one seed stack: each run equals
    its solo run byte for byte, and its ``seconds`` time the whole stack."""
    build = build_qr_flow if kind == "qr" else build_lu_flow
    rngs = [run_rngs(seed) for seed in seeds]
    results = train_seeds([build(3, init_rng) for init_rng, _ in rngs], [data] * len(rngs),
                          [TrainConfig(nd=nd, **LINEAR_TRAIN)] * len(rngs),
                          [train_rng for _, train_rng in rngs])
    x_test = data.get_split("test")
    runs = {}
    for seed, result in zip(seeds, results):
        if isinstance(result, Exception):
            raise result
        runs[seed] = {
            "ll": avg_log_likelihood(result.model, x_test),
            "curve": mse_curve(result.model, x_test, identity_order(3)),
            "seconds": result.seconds,
        }
    return runs


def nd_config():
    return NestedDropoutConfig(lam=20.0, schedule=GeometricSchedule(p=0.33, K=3))


@pytest.fixture(scope="module")
def qr_baseline_runs(synthetic_data):
    return train_linear("qr", BASELINE_SEEDS, synthetic_data)


@pytest.fixture(scope="module")
def qr_nd_runs(synthetic_data):
    return train_linear("qr", ND_SEEDS, synthetic_data, nd_config())


@pytest.fixture(scope="module")
def lu_nd_runs(synthetic_data):
    return train_linear("lu", ND_SEEDS, synthetic_data, nd_config())


@pytest.fixture(scope="module")
def toy_runs():
    data = gen_toy_hierarchical(TOY_DIM, TOY_N, TOY_SEED)
    out = []
    for seed in ND_SEEDS:
        init_rng, train_rng = run_rngs(seed)
        model = build_multiscale_flow(TOY_DIM, 3, 2, init_rng)
        nd = NestedDropoutConfig(
            lam=20.0, schedule=GeometricSchedule(p=0.2, K=TOY_DIM),
            drop_order=multiscale_depth_order(model))
        train(model, data, TrainConfig(nd=nd, **TOY_TRAIN), train_rng)
        x_test = data.get_split("test")
        random_order = np.random.default_rng(1000 + seed).permutation(TOY_DIM)
        out.append({
            "depth_reversed": mse_curve(model, x_test, nd.drop_order),
            "depth_forward": mse_curve(model, x_test,
                                       depth_forward_order(model)),
            "random": mse_curve(model, x_test, random_order),
        })
    return out


def test_criterion_01_baseline_likelihood_band(qr_baseline_runs):
    lls = [r["ll"] for r in qr_baseline_runs.values()]
    secs = [r["seconds"] for r in qr_baseline_runs.values()]
    in_band = all(-0.82 <= ll <= -0.79 for ll in lls)
    fast = max(secs) < 180.0
    ok = in_band and fast
    record_acceptance(1, ok,
                      f"plain QR test LL in [{min(lls):.4f}, {max(lls):.4f}] "
                      f"over {len(lls)} seeds (band [-0.82, -0.79]), "
                      f"slowest run {max(secs):.1f}s")
    assert ok


def test_criterion_02_penalty_is_free_and_orders(qr_baseline_runs, qr_nd_runs):
    gaps = [abs(qr_nd_runs[s]["ll"] - qr_baseline_runs[s]["ll"])
            for s in ND_SEEDS]
    mse1 = [qr_nd_runs[s]["curve"][0] for s in ND_SEEDS]
    mse2 = [qr_nd_runs[s]["curve"][1] for s in ND_SEEDS]
    ok = (max(gaps) <= 0.01
          and all(0.035 <= v <= 0.040 for v in mse1)
          and all(v <= 0.004 for v in mse2))
    record_acceptance(2, ok,
                      f"QR+penalty: max LL gap {max(gaps):.4f} (<=0.01), "
                      f"MSE(1) in [{min(mse1):.4f}, {max(mse1):.4f}] "
                      f"(band [0.035, 0.040]), max MSE(2) {max(mse2):.5f} "
                      f"(<=0.004)")
    assert ok


def test_criterion_03_unpenalized_flows_do_not_order(qr_baseline_runs,
                                                     qr_nd_runs):
    plain = float(np.median([r["curve"][1] for r in qr_baseline_runs.values()]))
    nd = float(np.median([r["curve"][1] for r in qr_nd_runs.values()]))
    ok = plain >= 0.10 and plain >= 25.0 * nd
    record_acceptance(3, ok,
                      f"median MSE(2): plain {plain:.4f} (>=0.10), "
                      f"penalized {nd:.5f}, ratio {plain / nd:.0f}x (>=25x)")
    assert ok


def test_criterion_04_lu_matches_but_varies_more(qr_nd_runs, lu_nd_runs):
    mse1 = [lu_nd_runs[s]["curve"][0] for s in ND_SEEDS]
    spread_lu = np.ptp([lu_nd_runs[s]["curve"][1] for s in ND_SEEDS])
    spread_qr = np.ptp([qr_nd_runs[s]["curve"][1] for s in ND_SEEDS])
    ok = (all(0.035 <= v <= 0.040 for v in mse1)
          and spread_lu > spread_qr)
    record_acceptance(4, ok,
                      f"LU+penalty MSE(1) in [{min(mse1):.4f}, {max(mse1):.4f}]"
                      f" (band [0.035, 0.040]); MSE(2) spread LU "
                      f"{spread_lu:.2e} > QR {spread_qr:.2e}")
    assert ok


def test_criterion_05_pca_reference_values(synthetic_data):
    fit = pca_fit(synthetic_data.get_split("train"))
    x_test = synthetic_data.get_split("test")
    m1 = pca_mse(fit, x_test, 1)
    m2 = pca_mse(fit, x_test, 2)
    x_train = synthetic_data.get_split("train")
    identity_gap = max(
        abs(pca_mse(fit, x_train, k) - fit.eigenvalues[k:].sum() / 3)
        for k in (1, 2, 3))
    ok = (abs(m1 - 0.037) <= 0.002 and abs(m2 - 0.003) <= 0.002
          and identity_gap <= 1e-10)
    record_acceptance(5, ok,
                      f"PCA MSE(1)={m1:.4f} (0.037+-0.002), MSE(2)={m2:.4f} "
                      f"(0.003+-0.002), eigenvalue identity gap "
                      f"{identity_gap:.1e} (<=1e-10)")
    assert ok


def max_rel_err(got, want, tol_abs=1e-8):
    """Largest per-coordinate relative gap, ignoring differences below
    tol_abs (those are round-off noise on true-zero gradients, e.g. the
    radial direction of a Householder vector)."""
    diff = np.abs(got - want)
    rel = diff / np.maximum(np.abs(want), tol_abs)
    return float(np.max(np.where(diff <= tol_abs, 0.0, rel)))


def gradient_instance(kind, seed):
    rng = np.random.default_rng(seed)
    nd = None
    if kind == "qr-linear":
        m = build_qr_flow(5, rng)
    elif kind == "lu-linear":
        m = build_lu_flow(5, rng)
    elif kind == "coupling":
        m = build_multiscale_flow(4, 1, 2, rng, hidden_width=6)
    else:  # the combined objective, which also runs the inverse pass
        m = build_qr_flow(3, rng)
        nd = NestedDropoutConfig(lam=7.0,
                                 schedule=GeometricSchedule(p=0.33, K=3))
    m.set_params(m.params.values + 0.3 * rng.standard_normal(m.n_params))
    x = rng.standard_normal((3, m.dim))
    ks = rng.integers(1, m.dim + 1, size=3) if nd is not None else None

    def loss(theta):
        return loss_terms(m, x, ks, nd, theta)[0]

    return loss, m.params


def test_criterion_06_gradients_match_finite_differences():
    worst = {}
    for kind in ("qr-linear", "lu-linear", "coupling", "combined"):
        errs = []
        for seed in range(20):
            loss, theta = gradient_instance(kind, seed)
            analytic = evaluate_with_gradient(loss, theta).gradient
            numeric = finite_difference_gradient(loss, theta, step=1e-5)
            errs.append(max_rel_err(analytic, numeric))
        worst[kind] = max(errs)
    ok = all(v <= 1e-4 for v in worst.values())
    shown = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    record_acceptance(6, ok,
                      f"max relative gradient error over 20 instances each: "
                      f"{shown} (<=1e-4)")
    assert ok


def round_trip_models(dim, seed):
    rng = np.random.default_rng(seed)
    models = [build_qr_flow(dim, rng), build_lu_flow(dim, rng)]
    if dim >= 3:  # a coupling layer needs at least two active coordinates
        levels = {3: 1, 8: 2, 16: 3}[dim]
        models.append(build_multiscale_flow(dim, levels, 2, rng,
                                            hidden_width=8))
    for m in models:
        m.set_params(m.params.values + 0.2 * rng.standard_normal(m.n_params))
    return models


def test_criterion_07_round_trips():
    worst = 0.0
    count = 0
    for dim in (1, 3, 8, 16):
        for seed in range(10):
            rng = np.random.default_rng(10_000 + seed)
            for m in round_trip_models(dim, seed):
                x = rng.standard_normal((5, dim))
                z, _ = m.forward_batch(x)
                back = m.inverse_batch(np.asarray(z))
                worst = max(worst, float(np.max(np.abs(back - x))))
                z0 = rng.standard_normal((5, dim))
                x0 = m.inverse_batch(z0)
                z1, _ = m.forward_batch(np.asarray(x0))
                worst = max(worst, float(np.max(np.abs(np.asarray(z1) - z0))))
                count += 1
    ok = worst <= 1e-8
    record_acceptance(7, ok,
                      f"{count} models round-tripped both ways at "
                      f"D in (1, 3, 8, 16); worst error {worst:.2e} (<=1e-8)")
    assert ok


def linear_jacobian(m):
    z, _ = m.forward_batch(np.eye(m.dim))
    return np.asarray(z).T


def fd_jacobian(m, x, h=1e-6):
    dim = x.size
    jac = np.empty((dim, dim))
    for j in range(dim):
        bump = np.zeros(dim)
        bump[j] = h
        hi, _ = m.forward_batch((x + bump)[None, :])
        lo, _ = m.forward_batch((x - bump)[None, :])
        jac[:, j] = (np.asarray(hi)[0] - np.asarray(lo)[0]) / (2.0 * h)
    return jac


def test_criterion_08_log_determinants():
    worst_linear = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for dim, build in ((2, build_qr_flow), (5, build_qr_flow),
                           (3, build_lu_flow), (6, build_lu_flow)):
            m = build(dim, rng)
            m.set_params(m.params.values + 0.3 * rng.standard_normal(m.n_params))
            _, logdet = m.forward_batch(rng.standard_normal((2, dim)))
            got = float(np.ravel(np.asarray(logdet))[0])
            _, want = np.linalg.slogdet(linear_jacobian(m))
            worst_linear = max(worst_linear, abs(got - want))

    worst_coupling = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        m = build_multiscale_flow(4, 1, 2, rng, hidden_width=6)
        m.set_params(m.params.values + 0.3 * rng.standard_normal(m.n_params))
        x = rng.standard_normal(4)
        _, logdet = m.forward_batch(x[None, :])
        got = float(np.ravel(np.asarray(logdet))[0])
        _, want = np.linalg.slogdet(fd_jacobian(m, x))
        worst_coupling = max(worst_coupling, abs(got - want))

    ok = worst_linear <= 1e-10 and worst_coupling <= 1e-4
    record_acceptance(8, ok,
                      f"log|det| gap: linear vs explicit matrix "
                      f"{worst_linear:.1e} (<=1e-10), coupling vs numeric "
                      f"Jacobian {worst_coupling:.1e} (<=1e-4)")
    assert ok


def test_criterion_09_truncation_sampler_distribution():
    tvs = {}
    for p, big_k in ((0.33, 3), (1e-3, 64)):
        schedule = GeometricSchedule(p=p, K=big_k)
        draws = sample_ks(schedule, np.random.default_rng(0), 1_000_000)
        empirical = np.bincount(draws, minlength=big_k + 1)[1:] / draws.size
        tvs[p] = 0.5 * float(np.abs(empirical - schedule.pmf()).sum())
    ok = all(tv <= 0.005 for tv in tvs.values())
    shown = ", ".join(f"p={p} TV={tv:.2e}" for p, tv in tvs.items())
    record_acceptance(9, ok, f"1e6 draws each: {shown} (<=5e-3)")
    assert ok


def test_criterion_10_depth_order_beats_alternatives(toy_runs):
    half = TOY_DIM // 2
    tol = 1e-12
    wins = 0
    for curves in toy_runs:
        dr = curves["depth_reversed"]
        beats_forward = np.all(dr <= curves["depth_forward"] + tol)
        beats_random = np.all(dr[:half] <= curves["random"][:half] + tol)
        wins += bool(beats_forward and beats_random)
    ok = wins >= 4
    record_acceptance(10, ok,
                      f"16-D multi-scale: depth-reversed order dominates "
                      f"depth-forward everywhere and random at k<={half} in "
                      f"{wins}/{len(toy_runs)} seeds (need >=4)")
    assert ok


def test_criterion_11_rerun_reproduces_stored_run(tmp_path):
    cfg = {
        "dataset": {"generator": "synthetic-gaussian", "n_train": 2000,
                    "n_test": 500},
        "model": {"kind": "qr-linear"},
        "train": {"iterations": 400, "batch_size": 200, "lr_initial": 5e-3},
        "nd": {"lambda": 20.0, "p": 0.33},
        "seed": 7,
    }
    first = tmp_path / "first"
    run_train(cfg, first)
    stored = json.loads((first / "config.json").read_text())
    second = tmp_path / "second"
    run_train(stored, second)
    same_report = deterministic_report_bytes(first / "report.json") == \
        deterministic_report_bytes(second / "report.json")
    same_checkpoint = (first / "checkpoint.json").read_bytes() == \
        (second / "checkpoint.json").read_bytes()
    same_trace = (first / "trace.csv").read_bytes() == \
        (second / "trace.csv").read_bytes()
    ok = same_report and same_checkpoint and same_trace
    record_acceptance(11, ok,
                      f"rerun from stored config: report identical "
                      f"{same_report}, checkpoint identical {same_checkpoint},"
                      f" trace identical {same_trace}")
    assert ok
