import json
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nestedflow.datasets import Dataset
from nestedflow.evaluation import (
    RunReport,
    avg_log_likelihood,
    bits_per_dim,
    deterministic_report_bytes,
    make_run_report,
    mse_curve,
    report_to_dict,
    save_curve_csv,
    save_report,
)
from nestedflow.coupling import build_multiscale_flow
from nestedflow.experiment import resolve_order
from nestedflow.flows import FlowModel, OffsetTransform, build_lu_flow, build_qr_flow
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
    assert r.notes == {"mode": "demo"} and r.wall_clock == {}
    # without a test split the train split is evaluated
    train_only = Dataset(points=np.array([[1.0, 2.0, 3.0]]), split={"train": (0, 1)})
    assert make_run_report(m, train_only, {"identity": identity_order(3)}).split \
        == "train"


def test_run_report_validation():
    good = dict(test_ll_nats=-1.0, test_bpd=0.5,
                mse_curve=np.array([1.0, 0.0]),
                drop_order=np.array([0, 1]), config_hash="", seed=None)
    RunReport(**good)
    with pytest.raises(ValueError):
        RunReport(**{**good, "test_ll_nats": np.nan})
    with pytest.raises(ValueError):
        RunReport(**{**good, "mse_curve": np.array([np.inf, 0.0])})
    with pytest.raises(ValueError):
        # a visibly nonzero full-rank error means the model is not invertible
        RunReport(**{**good, "mse_curve": np.array([1.0, 0.5])})


def test_report_json_sections(tmp_path):
    m = identity_model()
    r = replace(make_run_report(m, single_point_data(),
                                {"identity": identity_order(3),
                                 "2-1-0": reversed_order(3)},
                                config_hash="h", seed=0),
                wall_clock={"train": 2.0})
    save_report(report_to_dict(r), tmp_path, "identity")
    doc = json.loads((tmp_path / "report.json").read_text())
    assert set(doc) == {"results", "timing"}
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
        save_report(report_to_dict(replace(r, wall_clock={"train": seconds})),
                    path.parent, "identity")
    assert p1.read_bytes() != p2.read_bytes()
    assert deterministic_report_bytes(p1) == deterministic_report_bytes(p2)


def test_curve_csv_layout(tmp_path):
    path = tmp_path / "curve.csv"
    save_curve_csv(path, np.array([0.25, 0.0]))
    assert path.read_text() == "k,mse\n1,0.25\n2,0\n"
