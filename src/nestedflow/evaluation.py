"""Evaluation metrics and run reports.

Metrics: average log likelihood in nats and bits per dimension, and the
reconstruction-MSE-versus-retained-dimensions curve for a given drop
order.  A RunReport bundles the metrics with the drop order, config hash,
and seed; wall-clock timings ride along in a separate section so that
deterministic content can be compared byte for byte across reruns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .flows import FlowModel
from .nested_dropout import as_order, keep_mask


def avg_log_likelihood(m: FlowModel, x: np.ndarray) -> float:
    """Mean log likelihood over the rows of x, in nats."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("cannot average over an empty split")
    return float(np.mean(m.log_likelihood_batch(x)))


def bits_per_dim(ll_nats: float, dim: int) -> float:
    """Negative log likelihood converted to bits per dimension."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return -ll_nats / (dim * math.log(2.0))


def mse_curve(m: FlowModel, x: np.ndarray, order) -> np.ndarray:
    """Per-dimension reconstruction MSE at every truncation level k = 1..K.

    The transforms' weights are built once; then one forward pass and one
    masked inverse pass per k.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate an empty split")
    k_dim = m.dim
    order = as_order(order, k_dim)
    ws = m.weights()
    z = np.asarray(m.forward_pass(ws, x)[0])
    out = np.empty(k_dim)
    for k in range(1, k_dim + 1):
        mask = keep_mask(k, order, k_dim).astype(np.float64)
        x_rec = np.asarray(m.inverse_pass(ws, z * mask))
        diff = x_rec - x
        out[k - 1] = np.mean(np.sum(diff * diff, axis=1)) / k_dim
    return out


@dataclass(frozen=True)
class RunReport:
    """Metrics of one evaluated run.

    ``mse_curve`` and ``drop_order`` describe the primary (training) order;
    ``curves`` may hold additional named order/curve pairs.  ``wall_clock``
    maps phase names to seconds and is excluded from deterministic
    comparison.
    """

    test_ll_nats: float
    test_bpd: float
    mse_curve: np.ndarray
    drop_order: np.ndarray
    config_hash: str
    seed: int | None
    split: str = "test"
    curves: dict = field(default_factory=dict)
    wall_clock: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.test_ll_nats) and np.isfinite(self.test_bpd)):
            raise ValueError("log-likelihood metrics must be finite")
        curve = np.asarray(self.mse_curve, dtype=np.float64)
        object.__setattr__(self, "mse_curve", curve)
        if not np.all(np.isfinite(curve)):
            raise ValueError("MSE curve must be finite")
        if curve[-1] > 1e-8:
            raise ValueError(f"full-rank reconstruction MSE {curve[-1]:g} exceeds 1e-8")


def make_run_report(m: FlowModel, data, order, config_hash: str = "",
                    seed: int | None = None, split: str = "test",
                    extra_orders: dict | None = None,
                    wall_clock: dict | None = None,
                    notes: dict | None = None) -> RunReport:
    """Evaluate a model on one dataset split under a primary drop order
    (plus optional named extra orders)."""
    x = data.get_split(split)
    order = as_order(order, m.dim)
    ll = avg_log_likelihood(m, x)
    curves = {}
    for name, extra in (extra_orders or {}).items():
        curves[name] = {
            "order": as_order(extra, m.dim).tolist(),
            "mse": mse_curve(m, x, extra).tolist(),
        }
    return RunReport(
        test_ll_nats=ll,
        test_bpd=bits_per_dim(ll, m.dim),
        mse_curve=mse_curve(m, x, order),
        drop_order=np.asarray(order),
        config_hash=config_hash,
        seed=seed,
        split=split,
        curves=curves,
        wall_clock=dict(wall_clock or {}),
        notes=dict(notes or {}),
    )


def report_to_dict(r: RunReport) -> dict:
    """JSON form: deterministic content under "results", timings under
    "timing"."""
    return {
        "results": {
            "split": r.split,
            "test_ll_nats": r.test_ll_nats,
            "test_bpd": r.test_bpd,
            "drop_order": r.drop_order.tolist(),
            "mse_curve": r.mse_curve.tolist(),
            "curves": r.curves,
            "config_hash": r.config_hash,
            "seed": r.seed,
            "notes": r.notes,
        },
        "timing": r.wall_clock,
    }


def save_report(r: RunReport, path):
    with open(path, "w") as f:
        json.dump(report_to_dict(r), f, indent=1)
        f.write("\n")


def deterministic_report_bytes(path) -> bytes:
    """Canonical bytes of a stored report's deterministic section."""
    with open(path) as f:
        doc = json.load(f)
    return json.dumps(doc["results"], sort_keys=True).encode()


def save_curve_csv(path, curve):
    """Write an MSE curve as CSV rows (k, mse)."""
    curve = np.asarray(curve)
    with open(path, "w") as f:
        f.write("k,mse\n")
        for k, v in enumerate(curve, start=1):
            f.write(f"{k},{format(v, '.17g')}\n")
