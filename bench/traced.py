"""Traced run: spans around calls into each nestedflow module, made from
outside the package.

Spans carry a name, start, end and the id of their parent span.  They are
kept in memory and written out when the run ends.  The run

1. runs each CLI command of the workload once and counts what it writes,
2. trains the workload config with ``optim.train`` (untraced, before and
   after) and replays the same loop call by call with a span around each
   call, and
3. times the public functions of each module at the workload's sizes,
   round-robin until the run's time is spent.

End-to-end numbers never come from this run; ``trace.overhead_frac``
compares the replayed step with the untraced ``optim.train`` step measured
here.
"""

from __future__ import annotations

import csv
import time
from pathlib import Path

import numpy as np

from nestedflow import experiment
from nestedflow.autodiff import evaluate_with_gradient
from nestedflow.checkpoint import load_model, save_model
from nestedflow.config import load_config, resolve_config, validate_config
from nestedflow.coupling import build_multiscale_flow
from nestedflow.datasets import (gen_synthetic_gaussian, gen_toy_hierarchical,
                                 load_dataset, save_dataset)
from nestedflow.evaluation import avg_log_likelihood, mse_curve
from nestedflow.flows import build_lu_flow, build_qr_flow
from nestedflow.linalg import random_rotation
from nestedflow.nested_dropout import loss_terms, sample_ks
from nestedflow.optim import adam_step, init_adam, train
from nestedflow.pca import pca_fit

from . import e2e
from . import workloads as wl

# Layer timings: name -> unit.  Each is reported as p50, p99 and sample count.
TIMINGS = {
    "autodiff.grad_us": "us",
    "autodiff.backward_us": "us",
    "nested_dropout.loss_terms_us": "us",
    "nested_dropout.sample_ks_us": "us",
    "flows.qr.forward_us": "us",
    "flows.qr.inverse_us": "us",
    "flows.lu.forward_us": "us",
    "flows.lu.inverse_us": "us",
    "coupling.forward_us": "us",
    "coupling.inverse_us": "us",
    "optim.adam_step_us": "us",
    "optim.replay_step_us": "us",
    "evaluation.mse_curve_ms": "ms",
    "evaluation.log_likelihood_ms": "ms",
    "pca.fit_ms": "ms",
    "linalg.random_rotation_ms": "ms",
    "datasets.generate_ms": "ms",
    "datasets.save_ms": "ms",
    "datasets.load_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "config.validate_ms": "ms",
}
# Single values: name -> unit.
VALUES = {
    "autodiff.graph_nodes": "count",
    "datasets.csv_bytes": "bytes",
    "checkpoint.bytes": "bytes",
    "experiment.files_written": "count",
    "experiment.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.replay_matches_train": "flag",
}
_SCALE = {"us": 1e6, "ms": 1e3}
# A microbenchmark call repeats within one round for at least this long.
ROUND_SECONDS = 0.02
MIN_ROUNDS = 3


class Tracer:
    """In-memory spans of one thread: [id, parent id, name, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def self_times(self, name: str) -> list[float]:
        """Duration minus the time covered by child spans.  Spans come from
        one thread, so children of a span never overlap each other."""
        covered = {}
        for s in self.spans:
            if s[1] >= 0:
                covered[s[1]] = covered.get(s[1], 0.0) + (s[4] - s[3])
        return [s[4] - s[3] - covered.get(s[0], 0.0)
                for s in self.spans if s[2] == name]

    def write_csv(self, path: Path) -> None:
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["id", "parent", "name", "start", "end"])
            out.writerows(self.spans)


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else -1
        self.record = [len(t.spans), parent, self.name, 0.0, 0.0]
        t.spans.append(self.record)
        t._open.append(self.record[0])
        self.record[3] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[4] = time.perf_counter()
        self.tracer._open.pop()
        return False


def count_graph_nodes(loss) -> int:
    """Distinct tape nodes reachable from the loss through Var.parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent, _ in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class TrainSetup:
    """The model, data and training config `nestedflow train` would build
    for a config, built through the same public functions."""

    def __init__(self, cfg: dict):
        self.cfg = resolve_config(validate_config(cfg))
        self.seeds = experiment.derive_seeds(self.cfg["seed"])
        self.data = experiment.get_dataset(self.cfg, self.seeds["data"])
        self.model = experiment.build_model(self.cfg, self.data.dim,
                                            self.seeds["init"])
        self.train_cfg, _ = experiment.make_train_config(self.cfg, self.model)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seeds["train"])


def replay(tr: Tracer, s: TrainSetup) -> list[int]:
    """The loop of ``optim.train``, call by call, with a span per call.
    Returns the graph node count of each step."""
    m, cfg = s.model, s.train_cfg
    rng = s.rng()
    x_all = s.data.get_split("train")
    state = init_adam(m.n_params)
    nodes = []
    for t in range(cfg.iterations):
        losses = []
        with tr.span("optim.replay_step"):
            with tr.span("optim.batch_indices"):
                x = x_all[rng.integers(0, x_all.shape[0], size=cfg.batch_size)]
            ks = None
            if cfg.nd is not None and cfg.nd.lam > 0.0:
                with tr.span("nested_dropout.sample_ks"):
                    ks = sample_ks(cfg.nd.schedule, rng, cfg.batch_size)

            def objective(theta):
                with tr.span("nested_dropout.loss_terms"):
                    total, _, _ = loss_terms(m, x, ks, cfg.nd, theta)
                losses.append(total)
                return total

            lr = cfg.lr_at(t)
            with tr.span("autodiff.grad"):
                record = evaluate_with_gradient(objective, m.params)
            with tr.span("optim.adam_step"):
                theta, state = adam_step(state, m.params.values,
                                         record.gradient, lr)
            with tr.span("flows.set_params"):
                m.set_params(theta)
        nodes.append(count_graph_nodes(losses[0]))
    return nodes


def microbenchmarks(s: TrainSetup, work: Path, dim: int) -> tuple[list, dict]:
    """(span name, call) pairs timing each module's public functions at the
    workload's sizes, on the replayed model where one is needed, and the
    sizes of the files they write."""
    rng = np.random.default_rng(s.seeds["eval"])
    spec = s.cfg["dataset"]
    x_train = s.data.get_split("train")
    x_test = s.data.get_split("test")
    x500 = x_train[:500]
    qr = build_qr_flow(dim, np.random.default_rng(1))
    lu = build_lu_flow(dim, np.random.default_rng(2))
    coupling = build_multiscale_flow(16, 3, 2, np.random.default_rng(3), 32)
    x256 = np.random.default_rng(4).standard_normal((256, 16))
    z_qr, z_lu = qr.forward_batch(x500)[0], lu.forward_batch(x500)[0]
    z_coupling = coupling.forward_batch(x256)[0]
    orders = [experiment.resolve_order(o, s.model, s.seeds["eval"])
              for o in s.cfg["eval"]["orders"]]
    csv_path, ckpt_path = work / "layer.csv", work / "layer_checkpoint.json"
    save_dataset(s.data, csv_path)
    save_model(s.model, ckpt_path)
    config_path = e2e.write_json(work / "layer_config.json", s.cfg)
    if spec["generator"] == "toy-hierarchical":
        def generate():
            return gen_toy_hierarchical(spec["dim"], spec["n"], s.seeds["data"])
    else:
        def generate():
            return gen_synthetic_gaussian(spec["n_train"], spec["n_test"],
                                          s.seeds["data"])
    calls = [
        ("flows.qr.forward", lambda: qr.forward_batch(x500)),
        ("flows.qr.inverse", lambda: qr.inverse_batch(z_qr)),
        ("flows.lu.forward", lambda: lu.forward_batch(x500)),
        ("flows.lu.inverse", lambda: lu.inverse_batch(z_lu)),
        ("coupling.forward", lambda: coupling.forward_batch(x256)),
        ("coupling.inverse", lambda: coupling.inverse_batch(z_coupling)),
        ("evaluation.log_likelihood", lambda: avg_log_likelihood(s.model, x_test)),
        ("pca.fit", lambda: pca_fit(x_train)),
        ("linalg.random_rotation", lambda: random_rotation(dim, rng)),
        ("datasets.generate", generate),
        ("datasets.save", lambda: save_dataset(s.data, csv_path)),
        ("datasets.load", lambda: load_dataset(csv_path)),
        ("checkpoint.save", lambda: save_model(s.model, ckpt_path)),
        ("checkpoint.load", lambda: load_model(ckpt_path)),
        ("config.validate", lambda: load_config(config_path)),
    ]
    calls += [("evaluation.mse_curve", lambda o=o: mse_curve(s.model, x_test, o))
              for o in orders]
    sizes = {"datasets.csv_bytes": csv_path.stat().st_size,
             "checkpoint.bytes": ckpt_path.stat().st_size}
    return calls, sizes


def cli_pass(name: str, seed: int, size: str, work: Path,
             checks: e2e.Checks) -> tuple[int, int]:
    """Run each CLI command of the workload once; total files and bytes in
    the run directories after each command."""
    configs = e2e.write_configs(name, seed, size, work)
    root = work / "cli"
    e2e.Round(name, seed, size, configs, None).run(root, checks)
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run(name: str, seed: int, seconds: float, size: str, work: Path,
        spans_path: Path) -> dict:
    deadline = time.perf_counter() + seconds
    checks = e2e.Checks()
    tr = Tracer()
    values = {}

    with tr.span("experiment.cli_pass"):
        values["experiment.files_written"], values["experiment.bytes_written"] = \
            cli_pass(name, seed, size, work, checks)

    cfg = wl.experiment_config(name, seed, size)
    untraced_steps = []

    def train_untraced() -> TrainSetup:
        ref = TrainSetup(cfg)
        result = train(ref.model, ref.data, ref.train_cfg, ref.rng())
        untraced_steps.append(result.seconds_per_step)
        return ref

    # Untraced training before and after the replay, so that neither side
    # alone pays for cold caches.
    reference = train_untraced()
    s = TrainSetup(cfg)
    nodes = replay(tr, s)
    train_untraced()
    untraced_step = float(np.mean(untraced_steps))
    values["autodiff.graph_nodes"] = float(np.median(nodes)) if nodes else 0.0
    same = s.model.params.values.tobytes() == \
        reference.model.params.values.tobytes()
    values["trace.replay_matches_train"] = 1.0 if same else 0.0
    steps = tr.durations("optim.replay_step")
    values["trace.overhead_frac"] = (
        float(np.mean(steps)) / untraced_step - 1.0
        if steps and untraced_step > 0 else 0.0)

    calls, sizes = microbenchmarks(s, work, wl.dataset_dim(cfg))
    values.update(sizes)
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for span_name, call in calls:
            if rounds >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
            until = time.perf_counter() + ROUND_SECONDS
            while True:
                with tr.span(span_name):
                    call()
                if time.perf_counter() >= until:
                    break
        rounds += 1
    tr.write_csv(spans_path)

    timings = {
        "autodiff.grad_us": tr.durations("autodiff.grad"),
        "autodiff.backward_us": tr.self_times("autodiff.grad"),
    }
    for metric in TIMINGS:
        if metric not in timings:
            timings[metric] = tr.durations(metric.rsplit("_", 1)[0])
    metrics = {}
    for metric, unit in TIMINGS.items():
        got = timings[metric]
        scale = _SCALE[unit]
        p50, p99 = np.percentile(got, (50, 99)) * scale if got else (0.0, 0.0)
        metrics[f"{metric}.p50"] = (float(p50), unit)
        metrics[f"{metric}.p99"] = (float(p99), unit)
        metrics[f"{metric}.n"] = (float(len(got)), "count")
    for metric, unit in VALUES.items():
        metrics[metric] = (float(values[metric]), unit)
    return {
        "metrics": metrics,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
        "rounds": rounds,
        "untraced_step_s": untraced_step,
    }
