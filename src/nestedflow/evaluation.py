"""Evaluation metrics and run reports.

Metrics: average log likelihood in nats and bits per dimension, and the
reconstruction-MSE-versus-retained-dimensions curve for a given drop
order.  A report evaluates a table of drop orders, label -> order, on the
test split (the train split when there is no test split): one forward
pass, and one inverse pass per distinct set of kept latents (keep-set)
across all the orders' curves.  The first order is primary; the others
become named curves.  The inverse passes may share a thread pool; they
run in row chunks that do not depend on its size, so no result does
either.  A RunReport holds a report document field for field: the
metrics with the drop order, config hash, seed and notes, then the
evaluation's own timing, kept in a separate section so that deterministic
content can be compared byte for byte across reruns.
``save_report`` is the one writer of a report document: ``report.json``
plus one ``mse_curve_<label>.csv`` per curve it holds.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .datasets import write_csv
from .flows import FlowEvalError, FlowModel, standard_normal_logpdf_rows
from .nested_dropout import as_order, keep_mask


EVAL_CHUNK_VALUES = 2 ** 14  # latent values per chunk of an inverse pass
# Parameters times rows of a pass below which threads cost more than they
# save: on 2 CPUs a 16-D coupling flow of width 32 gained from about 1,600
# rows and lost at 100, and QR flows gained at no size tried (to 10^5 rows).
EVAL_THREAD_WORK = 2 ** 24


def _evaluate(m: FlowModel, x: np.ndarray, orders, threads: int = 1) -> tuple[float, np.ndarray]:
    """Mean log likelihood over the rows of x (nats), and each order's
    per-dimension reconstruction MSE at k = 1..K, from one forward pass and
    one masked inverse pass per distinct keep-set (set of kept latents), on
    ``threads`` threads if parameters times rows reach ``EVAL_THREAD_WORK``.
    A pass takes the rows in the fewest near-equal chunks of at most
    ``EVAL_CHUNK_VALUES`` values, the same bits as one whole-split pass
    while BLAS picks one kernel for both row counts.  The first failing
    keep-set in (order, k) order raises its whole pass's error."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate an empty split")
    ws = m.weights()
    z, logdet = m.forward_pass(ws, x)
    keys = [[keep_mask(k, order, m.dim).astype(np.float64).tobytes()
             for k in range(1, m.dim + 1)] for order in orders]
    # Near-equal: a one-row remainder's products would be BLAS vector products.
    count = -(-n * m.dim // EVAL_CHUNK_VALUES)
    bounds = [i * n // count for i in range(count + 1)]
    errstate = np.geterr()  # new threads start from numpy's defaults

    def keep_set_mse(key):
        mask, sq = np.frombuffer(key), np.empty(n)
        with np.errstate(**errstate):
            try:
                for lo, hi in zip(bounds, bounds[1:]):
                    diff = m.inverse_pass(ws, z[lo:hi] * mask) - x[lo:hi]
                    sq[lo:hi] = np.sum(diff * diff, axis=1)
            except FlowEvalError:  # name the transform where any row fails first
                m.inverse_pass(ws, z * mask)
                raise
        return np.mean(sq) / m.dim

    distinct = list(dict.fromkeys(key for row in keys for key in row))
    if threads > 1 and m.n_params * n >= EVAL_THREAD_WORK:
        with ThreadPoolExecutor(threads) as pool:
            mse = dict(zip(distinct, pool.map(keep_set_mse, distinct)))
    else:
        mse = dict(zip(distinct, map(keep_set_mse, distinct)))
    curves = np.array([[mse[key] for key in row] for row in keys]).reshape(len(orders), m.dim)
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
    one forward pass and one chunked, masked inverse pass per k."""
    return _evaluate(m, x, [as_order(order, m.dim)])[1][0]


@dataclass(frozen=True)
class RunReport:
    """Metrics of one evaluated run: the ``results`` keys of ``report.json``
    in document order, then its ``timing``.

    ``mse_curve`` and ``drop_order`` describe the primary order; ``curves``
    maps the label of each other order to its order and curve.  ``timing``
    maps phase names to seconds, plus ``eval_threads``, and is excluded from
    deterministic comparison.
    """

    split: str
    test_ll_nats: float
    test_bpd: float
    drop_order: np.ndarray
    mse_curve: np.ndarray
    curves: dict
    config_hash: str
    seed: int | None
    notes: dict
    timing: dict

    def __post_init__(self):
        if not (np.isfinite(self.test_ll_nats) and np.isfinite(self.test_bpd)):
            raise FlowEvalError("log-likelihood metrics must be finite")
        curve = np.asarray(self.mse_curve, dtype=np.float64)
        object.__setattr__(self, "mse_curve", curve)
        if not np.all(np.isfinite(curve)):
            raise FlowEvalError("MSE curve must be finite")
        if curve[-1] > 1e-8:
            raise FlowEvalError(f"full-rank reconstruction MSE {curve[-1]:g} exceeds 1e-8")

    def document(self) -> dict:
        """JSON form: every field but ``timing`` under "results", arrays as
        lists, and ``timing`` under "timing"."""
        results = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "timing"}
        return {"results": {k: v.tolist() if isinstance(v, np.ndarray) else v
                            for k, v in results.items()},
                "timing": self.timing}


def eval_split(data) -> str:
    """The split a run is evaluated on: test when it has rows, else train."""
    return "test" if data.has_split("test") else "train"


def eval_timing(started: float, threads: int) -> dict:
    """A report's ``timing``: the seconds since ``started`` (a
    ``time.perf_counter`` reading) and the threads it evaluated on."""
    return {"eval_seconds": time.perf_counter() - started, "eval_threads": threads}


def make_run_report(m: FlowModel, data, orders: dict, config_hash: str = "",
                    seed: int | None = None, notes: dict | None = None,
                    threads: int = 1) -> RunReport:
    """Evaluate a model on its eval split under a table of drop orders,
    label -> order, sharing one forward pass, on ``threads`` threads, and
    time it.  The first entry is the primary order; the others become
    ``curves``, keyed by label.  A failed check raises
    :class:`FlowEvalError`."""
    started = time.perf_counter()
    split = eval_split(data)
    orders = {label: as_order(o, m.dim) for label, o in orders.items()}
    ll, curves = _evaluate(m, data.get_split(split), list(orders.values()), threads)
    (_, primary), *extra = orders.items()
    named = {label: {"order": o.tolist(), "mse": c.tolist()}
             for (label, o), c in zip(extra, curves[1:])}
    return RunReport(split, ll, bits_per_dim(ll, m.dim), primary, curves[0], named,
                     config_hash, seed, dict(notes or {}), eval_timing(started, threads))


def save_report(doc: dict, out_dir: Path, label: str) -> None:
    """Write a report document as ``report.json`` in ``out_dir``, plus
    ``mse_curve_<label>.csv`` for its primary curve and one CSV for each
    entry of its ``curves``, under that entry's label."""
    (out_dir / "report.json").write_text(json.dumps(doc, indent=1) + "\n")
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
    write_csv(path, np.column_stack([np.arange(1, len(curve) + 1), curve]), "k,mse\n")
