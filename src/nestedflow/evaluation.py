"""Evaluation metrics and run reports.

Metrics: average log likelihood in nats and bits per dimension, and the
reconstruction-MSE-versus-retained-dimensions curve for a given drop
order.  A report evaluates a table of drop orders, label -> order, on the
test split (the train split when there is no test split): one forward
pass, and one inverse pass per distinct set of kept latents across all
the orders' curves.  The first order is primary; the others become named
curves.  A RunReport bundles the metrics with the drop order, config hash,
and seed; wall-clock timings ride along in a separate section so that
deterministic content can be compared byte for byte across reruns.
``save_report`` is the one writer of a report document: ``report.json``
plus one ``mse_curve_<label>.csv`` per curve it holds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

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

    ``mse_curve`` and ``drop_order`` describe the primary order; ``curves``
    maps the label of each other order to its order and curve.  ``wall_clock``
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


def eval_split(data) -> str:
    """The split a run is evaluated on: test when it has rows, else train."""
    return "test" if data.has_split("test") else "train"


def make_run_report(m: FlowModel, data, orders: dict, config_hash: str = "",
                    seed: int | None = None, notes: dict | None = None) -> RunReport:
    """Evaluate a model on its eval split under a table of drop orders,
    label -> order, sharing one forward pass.  The first entry is the
    primary order; the others become ``curves``, keyed by label."""
    split = eval_split(data)
    orders = {label: as_order(o, m.dim) for label, o in orders.items()}
    ll, curves = _evaluate(m, data.get_split(split), list(orders.values()))
    (_, primary), *extra = orders.items()
    return RunReport(
        test_ll_nats=ll,
        test_bpd=bits_per_dim(ll, m.dim),
        mse_curve=curves[0],
        drop_order=primary,
        config_hash=config_hash,
        seed=seed,
        split=split,
        curves={label: {"order": o.tolist(), "mse": c.tolist()}
                for (label, o), c in zip(extra, curves[1:])},
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


def save_report(doc: dict, out_dir: Path, label: str) -> None:
    """Write a report document as ``report.json`` in ``out_dir``, plus
    ``mse_curve_<label>.csv`` for its primary curve and one CSV for each
    entry of its ``curves``, under that entry's label."""
    with open(out_dir / "report.json", "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    results = doc["results"]
    save_curve_csv(out_dir / f"mse_curve_{label}.csv", results["mse_curve"])
    for name, entry in results.get("curves", {}).items():
        save_curve_csv(out_dir / f"mse_curve_{name}.csv", entry["mse"])


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
