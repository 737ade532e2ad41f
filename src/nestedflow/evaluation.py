"""Evaluation metrics and run reports.

Metrics: average log likelihood in nats and bits per dimension, and the
reconstruction-MSE-versus-retained-dimensions curve for a given drop
order.  A report makes one forward pass over its split, and one inverse
pass per distinct set of kept latents across all its orders' curves.  A
RunReport bundles the metrics with the drop order, config hash, and seed;
wall-clock timings ride along in a separate section so that
deterministic content can be compared byte for byte across reruns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .flows import FlowModel, standard_normal_logpdf_rows
from .nested_dropout import as_order, keep_mask


def _evaluate(m: FlowModel, x: np.ndarray, orders) -> tuple[float, np.ndarray]:
    """Mean log likelihood over the rows of x (nats), and each order's
    per-dimension reconstruction MSE at k = 1..K, from one forward pass and
    one masked inverse pass per distinct keep-set."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate an empty split")
    ws = m.weights()
    z, logdet = m.forward_pass(ws, x)
    mse_of = {}  # keep-mask bytes -> MSE, shared by every (order, k) keeping it
    curves = np.empty((len(orders), m.dim))
    for i, order in enumerate(orders):
        for k in range(1, m.dim + 1):
            mask = keep_mask(k, order, m.dim).astype(np.float64)
            key = mask.tobytes()
            if key not in mse_of:
                diff = m.inverse_pass(ws, z * mask) - x
                mse_of[key] = np.mean(np.sum(diff * diff, axis=1)) / m.dim
            curves[i, k - 1] = mse_of[key]
    return float(np.mean(np.add(standard_normal_logpdf_rows(z), logdet))), curves


def avg_log_likelihood(m: FlowModel, x: np.ndarray) -> float:
    """Mean log likelihood over the rows of x, in nats."""
    return _evaluate(m, x, [])[0]


def bits_per_dim(ll_nats: float, dim: int) -> float:
    """Negative log likelihood converted to bits per dimension."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return -ll_nats / (dim * math.log(2.0))


def mse_curve(m: FlowModel, x: np.ndarray, order) -> np.ndarray:
    """Per-dimension reconstruction MSE at every truncation level k = 1..K:
    one forward pass and one masked inverse pass per k."""
    return _evaluate(m, x, [as_order(order, m.dim)])[1][0]


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
    (plus optional named extra orders), sharing one forward pass."""
    order = as_order(order, m.dim)
    extra = {name: as_order(o, m.dim) for name, o in (extra_orders or {}).items()}
    ll, (primary, *others) = _evaluate(m, data.get_split(split),
                                       [order, *extra.values()])
    curves = {name: {"order": o.tolist(), "mse": c.tolist()}
              for (name, o), c in zip(extra.items(), others)}
    return RunReport(
        test_ll_nats=ll,
        test_bpd=bits_per_dim(ll, m.dim),
        mse_curve=primary,
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
