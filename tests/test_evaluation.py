import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nestedflow import evaluation
from nestedflow.datasets import Dataset
from nestedflow.evaluation import (
    EVAL_CHUNK_VALUES,
    RunReport,
    avg_log_likelihood,
    bits_per_dim,
    deterministic_report_bytes,
    make_run_report,
    mse_curve,
    save_curve_csv,
    save_report,
)
from nestedflow.coupling import build_multiscale_flow
from nestedflow.experiment import resolve_order
from nestedflow.flows import (FlowEvalError, FlowModel, OffsetTransform, build_lu_flow,
                              build_qr_flow, standard_normal_logpdf_rows)
from nestedflow.nested_dropout import identity_order, keep_mask, reversed_order


def identity_model(dim=3):
    return FlowModel(dim, [OffsetTransform(dim)], np.zeros(dim))


def test_avg_log_likelihood_at_origin():
    ll = avg_log_likelihood(identity_model(), np.zeros((1, 3)))
    assert ll == pytest.approx(-2.756815599614018, abs=1e-12)


def test_avg_log_likelihood_averages():
    m = identity_model(1)
    x = np.array([[0.0], [2.0]])
    want = 0.5 * (-0.9189385332046727 + (-0.9189385332046727 - 2.0))
    assert avg_log_likelihood(m, x) == pytest.approx(want, abs=1e-12)


def test_avg_log_likelihood_rejects_empty():
    with pytest.raises(ValueError):
        avg_log_likelihood(identity_model(), np.zeros((0, 3)))


def test_bits_per_dim_conversions():
    assert bits_per_dim(0.0, 4) == 0.0
    assert bits_per_dim(-3.0 * math.log(2.0), 3) == pytest.approx(1.0,
                                                                  abs=1e-15)
    assert bits_per_dim(-2.756815599614018, 3) == pytest.approx(
        1.3257480647361595, abs=1e-12)
    with pytest.raises(ValueError):
        bits_per_dim(1.0, 0)


def test_mse_curve_identity_flow_closed_form():
    m = identity_model()
    x = np.array([[1.0, 2.0, 3.0]])
    assert_allclose(mse_curve(m, x, identity_order(3)),
                    [13.0 / 3.0, 3.0, 0.0], atol=1e-15)
    assert_allclose(mse_curve(m, x, reversed_order(3)),
                    [5.0 / 3.0, 1.0 / 3.0, 0.0], atol=1e-15)


def test_mse_curve_full_rank_vanishes_for_invertible_models():
    rng = np.random.default_rng(0)
    m = build_qr_flow(3, rng)
    m.set_params(m.params.values + 0.2 * rng.standard_normal(m.n_params))
    x = rng.standard_normal((40, 3))
    curve = mse_curve(m, x, identity_order(3))
    assert curve[-1] <= 1e-10
    assert np.all(curve >= 0.0)


@pytest.mark.parametrize("build", [
    lambda rng: build_qr_flow(4, rng, offset=True),
    lambda rng: build_lu_flow(4, rng, offset=True),
    lambda rng: build_multiscale_flow(4, 2, 2, rng, hidden_width=5),
], ids=["qr", "lu", "coupling"])
def test_mse_curve_builds_weights_once(build):
    """One curve builds the weights once, and equals, bit for bit, the
    curve from a forward_batch and one inverse_batch per k."""
    rng = np.random.default_rng(3)
    m = build(rng)
    m.set_params(m.params.values + 0.2 * rng.standard_normal(m.n_params))
    x = rng.standard_normal((30, 4))
    order = rng.permutation(4)
    want = np.empty(4)
    z = m.forward_batch(x)[0]
    for k in range(1, 5):
        diff = m.inverse_batch(z * keep_mask(k, order, 4)) - x
        want[k - 1] = np.mean(np.sum(diff * diff, axis=1)) / 4
    calls = []
    weights = m.weights

    def spy(*args):
        calls.append(args)
        return weights(*args)

    m.weights = spy
    got = mse_curve(m, x, order)
    assert len(calls) == 1
    assert got.tobytes() == want.tobytes()


def test_run_report_evaluates_each_truncation_once():
    """With the five orders of the 16-D multi-scale workload, a report makes
    one forward pass and one inverse pass per distinct keep-set (59 of the
    80 (order, k) pairs: depth-forward is the identity here, k = 16 keeps
    every latent, and reversed and depth-reversed keep the same sets at
    k = 4 and 8); each curve and the log likelihood equal, bit for bit, the
    ones evaluated alone."""
    rng = np.random.default_rng(5)
    m = build_multiscale_flow(16, 3, 2, rng, hidden_width=6)
    m.set_params(m.params.values + 0.3 * rng.standard_normal(m.n_params))
    x = rng.standard_normal((40, 16))
    names = ["depth-reversed", "depth-forward", "random", "identity", "reversed"]
    orders = {name: resolve_order(name, m, 2) for name in names}
    keep_sets = {keep_mask(k, o, 16).tobytes()
                 for o in orders.values() for k in range(1, 17)}
    assert len(keep_sets) == 59
    calls = {"forward_pass": 0, "inverse_pass": 0}

    def spy(name):
        method = getattr(m, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return counted

    for name in calls:
        setattr(m, name, spy(name))
    data = Dataset(points=x, split={"test": (0, 40)})
    r = make_run_report(m, data, orders)
    assert calls == {"forward_pass": 1, "inverse_pass": len(keep_sets)}
    del m.forward_pass, m.inverse_pass
    assert r.mse_curve.tobytes() == mse_curve(m, x, orders[names[0]]).tobytes()
    for name in names[1:]:
        alone = mse_curve(m, x, orders[name])
        assert np.array(r.curves[name]["mse"]).tobytes() == alone.tobytes()
    assert np.float64(r.test_ll_nats).tobytes() == \
        np.float64(avg_log_likelihood(m, x)).tobytes()


def whole_split_evaluation(m, x, orders):
    """The serial evaluation a report equals bit for bit: the log likelihood,
    and one inverse pass over the whole split per (order, k) in turn."""
    ws = m.weights()
    z, logdet = m.forward_pass(ws, x)
    curves = np.empty((len(orders), m.dim))
    for i, order in enumerate(orders):
        for k in range(1, m.dim + 1):
            diff = m.inverse_pass(ws, z * keep_mask(k, order, m.dim).astype(np.float64)) - x
            curves[i, k - 1] = np.mean(np.sum(diff * diff, axis=1)) / m.dim
    return np.mean(np.add(standard_normal_logpdf_rows(z), logdet)), curves


def chunk_rows(dim):
    return EVAL_CHUNK_VALUES // dim


CHUNKED_MODELS = {
    # The 16-D workload's architecture; its 4-column conditioner output is
    # a product whose BLAS kernel can depend on the row count.
    "multiscale16": lambda rng: build_multiscale_flow(16, 3, 2, rng),
    "qr3": lambda rng: build_qr_flow(3, rng, offset=True),
}


@pytest.mark.parametrize("chunks, extra", [(0, 1), (0, 7), (1, -1), (1, 0), (1, 1)],
                         ids=["1", "7", "chunk-1", "chunk", "chunk+1"])
@pytest.mark.parametrize("model", sorted(CHUNKED_MODELS))
def test_report_equals_whole_split_passes_at_any_thread_count(monkeypatch, model, chunks,
                                                             extra):
    """Chunked keep-set passes on 1, 2 or 3 threads give the bytes of one
    serial pass over the whole split per (order, k)."""
    monkeypatch.setattr(evaluation, "EVAL_THREAD_WORK", 0)  # threads at any size
    rng = np.random.default_rng(11)
    m = CHUNKED_MODELS[model](rng)
    m.set_params(m.params.values + 0.1 * rng.standard_normal(m.n_params))
    n = chunks * chunk_rows(m.dim) + extra
    x = rng.standard_normal((n, m.dim)) * np.linspace(2.0, 0.1, m.dim)
    orders = {"reversed": reversed_order(m.dim), "random": rng.permutation(m.dim)}
    ll, curves = whole_split_evaluation(m, x, list(orders.values()))
    data = Dataset(points=x, split={"test": (0, n)})
    for threads in (1, 2, 3):
        r = make_run_report(m, data, orders, threads=threads)
        assert np.float64(r.test_ll_nats).tobytes() == ll.tobytes()
        assert r.mse_curve.tobytes() == curves[0].tobytes()
        assert np.array(r.curves["random"]["mse"]).tobytes() == curves[1].tobytes()


class Blowup:
    """Identity map whose inverse overflows every entry above ``limit`` in
    magnitude."""

    kind = "blowup"
    param_blocks = []

    def __init__(self, dim, limit):
        self.dim, self.limit = dim, limit

    def weights(self, p):
        return None

    def forward(self, w, x):
        return x, 0.0, None

    def inverse(self, w, z):
        return z * np.where(np.abs(z) > self.limit, 1e308, 1.0), None


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_failing_keep_sets_raise_the_serial_error(monkeypatch, threads):
    """Of the failing keep-sets the first in (order, k) order raises the
    error the serial loop raises, even when its chunks fail at different
    transforms, and the pool's threads keep the caller's numpy error state."""
    monkeypatch.setattr(evaluation, "EVAL_THREAD_WORK", 0)
    m = FlowModel(4, [Blowup(4, 10.0), Blowup(4, 100.0)], np.zeros(0))
    n = chunk_rows(4) + 1  # two chunks
    x = np.ones((n, 4))
    x[0, 2] = 50.0  # in the first chunk, fails at transform 0
    x[-1, 2] = 500.0  # in the second, fails at transform 1, which inverts first
    x[0, 3] = 20.0  # fails the reversed order's first keep-set at transform 0
    orders = {"identity": identity_order(4), "reversed": reversed_order(4)}
    with np.errstate(all="ignore"):
        with pytest.raises(FlowEvalError) as serial:
            whole_split_evaluation(m, x, list(orders.values()))
        assert str(serial.value) == "non-finite inverse output of transform 1 (blowup)"
        with warnings.catch_warnings(), pytest.raises(FlowEvalError) as pooled:
            warnings.simplefilter("error")
            make_run_report(m, Dataset(points=x, split={"test": (0, n)}), orders,
                            threads=threads)
    assert str(pooled.value) == str(serial.value)


def test_keep_sets_use_threads_only_for_passes_with_enough_work(monkeypatch):
    """A pool starts when threads are given and a pass has EVAL_THREAD_WORK
    parameters times rows; otherwise the caller's thread runs every pass."""
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", RecordingPool)
    m = build_qr_flow(3, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((10, 3))
    want = mse_curve(m, x, reversed_order(3))
    for work, threads, started in [(m.n_params * 10, 2, [2]), (m.n_params * 10 + 1, 2, []),
                                   (0, 1, [])]:
        pools.clear()
        monkeypatch.setattr(evaluation, "EVAL_THREAD_WORK", work)
        r = make_run_report(m, Dataset(points=x, split={"test": (0, 10)}),
                            {"reversed": reversed_order(3)}, threads=threads)
        assert pools == started
        assert r.mse_curve.tobytes() == want.tobytes()


def test_mse_curve_rejects_empty():
    with pytest.raises(ValueError):
        mse_curve(identity_model(), np.zeros((0, 3)), identity_order(3))


def single_point_data():
    return Dataset(points=np.array([[1.0, 2.0, 3.0]]), split={"test": (0, 1)})


def test_make_run_report_fields():
    m = identity_model()
    r = make_run_report(m, single_point_data(),
                        {"identity": identity_order(3),
                         "reversed": reversed_order(3)},
                        config_hash="abc", seed=7, notes={"mode": "demo"})
    assert r.config_hash == "abc"
    assert r.seed == 7
    assert r.split == "test"
    assert r.drop_order.tolist() == [0, 1, 2]
    assert_allclose(r.mse_curve, [13.0 / 3.0, 3.0, 0.0], atol=1e-15)
    assert list(r.curves) == ["reversed"]
    assert r.curves["reversed"]["order"] == [2, 1, 0]
    assert r.curves["reversed"]["mse"][0] == pytest.approx(5.0 / 3.0)
    assert r.test_bpd == pytest.approx(bits_per_dim(r.test_ll_nats, 3))
    assert r.notes == {"mode": "demo"}
    # the report times its own evaluation
    assert list(r.timing) == ["eval_seconds", "eval_threads"]
    assert r.timing["eval_seconds"] > 0 and r.timing["eval_threads"] == 1
    # without a test split the train split is evaluated
    train_only = Dataset(points=np.array([[1.0, 2.0, 3.0]]), split={"train": (0, 1)})
    assert make_run_report(m, train_only, {"identity": identity_order(3)}).split \
        == "train"


def test_run_report_validation():
    good = dict(split="test", test_ll_nats=-1.0, test_bpd=0.5,
                drop_order=np.array([0, 1]), mse_curve=np.array([1.0, 0.0]),
                curves={}, config_hash="", seed=None, notes={}, timing={})
    RunReport(**good)
    # every field is given: the report holds no default
    assert all(f.default is MISSING and f.default_factory is MISSING
               for f in fields(RunReport))
    # numerical failures: ArithmeticErrors, which the CLI exits 2 on
    with pytest.raises(FlowEvalError, match="log-likelihood metrics must be finite"):
        RunReport(**{**good, "test_ll_nats": np.nan})
    with pytest.raises(FlowEvalError, match="MSE curve must be finite"):
        RunReport(**{**good, "mse_curve": np.array([np.inf, 0.0])})
    with pytest.raises(FlowEvalError, match="full-rank reconstruction MSE 0.5 exceeds"):
        # a visibly nonzero full-rank error means the model is not invertible
        RunReport(**{**good, "mse_curve": np.array([1.0, 0.5])})


def test_report_json_sections(tmp_path):
    m = identity_model()
    r = replace(make_run_report(m, single_point_data(),
                                {"identity": identity_order(3),
                                 "2-1-0": reversed_order(3)},
                                config_hash="h", seed=0),
                timing={"train": 2.0})
    save_report(r.document(), tmp_path, "identity")
    doc = json.loads((tmp_path / "report.json").read_text())
    assert list(doc) == ["results", "timing"]
    # the fields are the results keys in document order, then timing
    assert list(doc["results"]) == ["split", "test_ll_nats", "test_bpd", "drop_order",
                                    "mse_curve", "curves", "config_hash", "seed", "notes"]
    assert list(doc["results"]) + ["timing"] == [f.name for f in fields(RunReport)]
    assert doc["timing"] == {"train": 2.0}
    assert doc["results"]["test_ll_nats"] == r.test_ll_nats
    assert doc["results"]["drop_order"] == [0, 1, 2]
    # one curve CSV per curve the document holds, named by label
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["mse_curve_2-1-0.csv", "mse_curve_identity.csv", "report.json"]
    assert (tmp_path / "mse_curve_2-1-0.csv").read_text().splitlines()[1] == \
        f"1,{format(r.curves['2-1-0']['mse'][0], '.17g')}"


def test_timing_excluded_from_deterministic_bytes(tmp_path):
    m = identity_model()
    r = make_run_report(m, single_point_data(), {"identity": identity_order(3)},
                        config_hash="h", seed=0)
    p1, p2 = tmp_path / "a" / "report.json", tmp_path / "b" / "report.json"
    for path, seconds in ((p1, 0.1), (p2, 99.0)):
        path.parent.mkdir()
        save_report(replace(r, timing={"train": seconds}).document(), path.parent,
                    "identity")
    assert p1.read_bytes() != p2.read_bytes()
    assert deterministic_report_bytes(p1) == deterministic_report_bytes(p2)


def test_curve_csv_layout(tmp_path):
    path = tmp_path / "curve.csv"
    save_curve_csv(path, np.array([0.25, 0.0]))
    assert path.read_text() == "k,mse\n1,0.25\n2,0\n"
