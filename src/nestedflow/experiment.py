"""Experiment orchestration: one validated config in, one run directory out.

A run directory contains the resolved config copy, the seed and build
identifier, generated dataset files (when the dataset is inline), the
model checkpoint, the run report, the loss trace, and per-order MSE curve
CSVs.  A report's drop orders form one table, label -> order, built once:
the primary order first (train: the training order; eval: the first
``eval.orders`` entry, else identity), then each ``eval.orders`` entry
whose label is new.  A label is an order's name or its indices joined
with "-", as in sweep child names.  All randomness descends from the
single run seed through fixed SeedSequence spawns (data, model init,
training, evaluation), so re-running from the stored config reproduces
every deterministic output byte for byte.

``train`` and every ``sweep`` job take one path: set each run up, train
them together with :func:`~nestedflow.optim.train_seeds` (which decides
whether they share a seed stack), then evaluate and write each run.  A job
makes and writes each distinct (dataset spec, data seed) once; its other
runs share that dataset and copy its files.  Only ``config``, ``datasets``
and the standard library load with this module; each function imports the
flow, training, evaluation and PCA modules it runs.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import os
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .config import (SWEEP_SCHEMA, ConfigError, _where, config_hash, resolve_config,
                     validate_config)
from .datasets import Dataset, copy_dataset, gen_synthetic_gaussian, \
    gen_toy_hierarchical, load_dataset, save_dataset, spec_dim

if TYPE_CHECKING:
    from .flows import FlowModel
    from .optim import TrainConfig


def derive_seeds(seed: int) -> dict:
    """Child integer seeds for each phase, all descending from the run seed."""
    children = np.random.SeedSequence(seed).spawn(4)
    names = ("data", "init", "train", "eval")
    return {name: int(c.generate_state(1, dtype=np.uint64)[0])
            for name, c in zip(names, children)}


def get_dataset(cfg: dict, data_seed: int) -> Dataset:
    spec = cfg["dataset"]
    if "path" in spec:
        path = Path(spec["path"])
        if not path.exists():
            raise FileNotFoundError(f"dataset file not found: {path}")
        return load_dataset(path)
    if spec["generator"] == "synthetic-gaussian":
        return gen_synthetic_gaussian(spec["n_train"], spec["n_test"], data_seed)
    return gen_toy_hierarchical(spec["dim"], spec["n"], data_seed)


def build_model(cfg: dict, dim: int, init_seed: int) -> FlowModel:
    from . import coupling, flows
    spec = cfg["model"]
    rng = np.random.default_rng(init_seed)
    kind = spec["kind"]
    if kind == "qr-linear":
        return flows.build_qr_flow(dim, rng, spec.get("n_householder"),
                                   offset=spec.get("offset", False))
    if kind == "lu-linear":
        return flows.build_lu_flow(dim, rng, offset=spec.get("offset", False))
    return coupling.build_multiscale_flow(dim, spec["levels"], spec["couplings_per_level"],
                                          rng, spec["hidden_width"], spec["log_scale_bound"])


def resolve_order(name_or_list, model: FlowModel, eval_seed: int) -> np.ndarray:
    """Turn an order name (or explicit index list) into a permutation for
    this model."""
    from . import coupling, nested_dropout
    k = model.dim
    if isinstance(name_or_list, str):
        if name_or_list == "identity":
            return nested_dropout.identity_order(k)
        if name_or_list == "reversed":
            return nested_dropout.reversed_order(k)
        if name_or_list == "random":
            return np.random.default_rng(eval_seed).permutation(k).astype(np.int64)
        if name_or_list in ("depth-reversed", "depth-forward"):
            if not isinstance(model, coupling.MultiScaleFlow):
                raise ValueError(
                    f"order {name_or_list!r} needs a multi-scale model, "
                    f"got {model.transforms[0].kind if model.transforms else 'empty'}")
            return coupling.multiscale_depth_order(model) \
                if name_or_list == "depth-reversed" else coupling.depth_forward_order(model)
        raise ValueError(f"unknown order name {name_or_list!r}")
    return nested_dropout.as_order(name_or_list, k)


def value_label(value) -> str:
    """A config value as file and directory names show it: an order's name,
    or list entries joined with "-" (``[0, 2, 1]`` is ``0-2-1``)."""
    return "-".join(map(value_label, value)) if isinstance(value, list) else str(value)


def order_table(specs, model: FlowModel, eval_seed: int) -> dict:
    """A run's drop orders, label -> permutation, each resolved once and in
    the order given; the first is the report's primary order, and a
    repeated label is kept once."""
    table = {}
    for spec in specs:
        label = value_label(spec)
        if label not in table:
            table[label] = resolve_order(spec, model, eval_seed)
    return table


def train_order(cfg: dict):
    """The configured training drop order: ``nd.order``, else depth-reversed
    for a multi-scale model and identity for any other."""
    multiscale = cfg["model"]["kind"] == "coupling-multiscale"
    return cfg.get("nd", {}).get("order", "depth-reversed" if multiscale else "identity")


def make_train_config(cfg: dict, model: FlowModel) -> tuple[TrainConfig, str]:
    """TrainConfig plus the label of the drop order used for training."""
    from . import nested_dropout, optim
    t = cfg["train"]
    nd_spec = cfg.get("nd")
    order = train_order(cfg)
    nd = None
    if nd_spec is not None:
        nd = nested_dropout.NestedDropoutConfig(
            lam=nd_spec["lambda"],
            schedule=nested_dropout.GeometricSchedule(p=nd_spec["p"], K=model.dim),
            drop_order=resolve_order(order, model, derive_seeds(cfg["seed"])["eval"]),
        )
    return optim.TrainConfig(iterations=t["iterations"], batch_size=t["batch_size"],
                             lr_initial=t["lr_initial"],
                             lr_schedule=t["lr_schedule"], nd=nd), value_label(order)


def build_run(cfg: dict, seeds: dict, dim: int) -> tuple[FlowModel, TrainConfig, dict]:
    """What a training run builds for data of dimension ``dim``: the model,
    its training config and its drop-order table, the training order first."""
    model = build_model(cfg, dim, seeds["init"])
    train_cfg, _ = make_train_config(cfg, model)
    orders = order_table([train_order(cfg), *cfg.get("eval", {}).get("orders", [])],
                         model, seeds["eval"])
    return model, train_cfg, orders


@functools.cache
def build_identifier() -> dict:
    """The package version and git commit of the code this process
    imported, resolved once per process."""
    ident = {"package": "nestedflow", "version": __version__}
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            ident["git_commit"] = head.stdout.strip()
    except OSError:
        pass
    return ident


def _prepare_run_dir(cfg: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    run = {"seed": cfg["seed"], "config_hash": config_hash(cfg), "build": build_identifier()}
    (out_dir / "run.json").write_text(json.dumps(run, indent=1) + "\n")


def default_output_dir(cfg: dict) -> Path:
    return Path("runs") / f"{config_hash(cfg)[:10]}-s{cfg['seed']}"


def _setup(cfg: dict, out_dir):
    """The prologue of generate, train and eval: the validated and resolved
    config, the run directory and the phase seeds."""
    cfg = resolve_config(validate_config(cfg))
    return (cfg, Path(out_dir or cfg.get("output_dir") or default_output_dir(cfg)),
            derive_seeds(cfg["seed"]))


def run_generate(cfg: dict, out_dir=None) -> tuple[Path, Dataset]:
    """Write the configured dataset (CSV + sidecar) into the run directory;
    returns its path and the dataset."""
    cfg, out_dir, seeds = _setup(cfg, out_dir)
    data = get_dataset(cfg, seeds["data"])
    _prepare_run_dir(cfg, out_dir)
    path = out_dir / "dataset.csv"
    save_dataset(data, path)
    return path, data


def dataset_notes(data: Dataset) -> dict:
    notes = {
        "generator": data.provenance.get("generator"),
        "seed": data.provenance.get("seed"),
    }
    if notes["generator"] == "toy-hierarchical":
        notes["substitute_for"] = "image-scale multi-scale experiments"
    return notes


@dataclass(frozen=True)
class _TrainRun:
    """A training run, set up to its first step."""

    cfg: dict
    out_dir: Path
    seeds: dict
    data: Dataset
    model: FlowModel
    train_cfg: TrainConfig
    orders: dict  # the training drop order's label first


def _start_train(cfg: dict, out_dir, datasets: dict) -> _TrainRun:
    """What a training run does before its first step: the model, its
    training config and drop orders, and the run directory with the config,
    the run record and, for an inline dataset, the data.  ``datasets`` maps
    each (dataset spec, data seed) that earlier runs of the job met to the
    dataset and, for an inline one, the CSV it was written to; a run that
    finds its own there shares the dataset and copies the CSV and its
    sidecar."""
    cfg, out_dir, seeds = _setup(cfg, out_dir)
    key = (json.dumps(cfg["dataset"], sort_keys=True), seeds["data"])
    data, written = datasets.get(key) or (get_dataset(cfg, seeds["data"]), None)
    model, train_cfg, orders = build_run(cfg, seeds, data.dim)
    _prepare_run_dir(cfg, out_dir)
    if "path" not in cfg["dataset"]:
        path = out_dir / "dataset.csv"
        if written is None:
            save_dataset(data, path)
            written = path
        else:
            copy_dataset(written, path)
    datasets[key] = data, written
    return _TrainRun(cfg, out_dir, seeds, data, model, train_cfg, orders)


def _finish_train(run: _TrainRun, result, threads: int):
    """What a training run does after its last step: evaluation on
    ``threads`` threads, then the checkpoint, trace and report, whose
    ``timing`` adds the training seconds to the evaluation's."""
    from . import checkpoint, evaluation
    label = next(iter(run.orders))
    report = evaluation.make_run_report(
        run.model, run.data, run.orders, config_hash=config_hash(run.cfg),
        seed=run.cfg["seed"],
        notes={
            "mode": "nested-dropout" if run.train_cfg.nd is not None else "baseline",
            "train_order": label,
            "dataset": dataset_notes(run.data),
        },
        threads=threads,
    )
    report = replace(report, timing={
        "train_seconds": result.seconds,
        "train_seconds_per_step": result.seconds_per_step,
        **report.timing,
        "total_seconds": result.seconds + report.timing["eval_seconds"],
    })

    checkpoint.save_model(run.model, run.out_dir / "checkpoint.json", rng_seed=run.cfg["seed"])
    result.trace.save_csv(run.out_dir / "trace.csv")
    evaluation.save_report(report.document(), run.out_dir, label)
    return report, run.out_dir


def _train_runs(cfgs, out_dirs, threads: int) -> list:
    """Training runs whose configs differ only in seed and ``nd.lambda``,
    trained together by :func:`~nestedflow.optim.train_seeds` and each
    evaluated on ``threads`` threads; returns each run's (RunReport, run
    directory), or the exception that ends it."""
    from .optim import train_seeds
    outcomes, runs, datasets = [None] * len(cfgs), {}, {}
    for i, (cfg, out_dir) in enumerate(zip(cfgs, out_dirs)):
        try:
            runs[i] = _start_train(cfg, out_dir, datasets)
        except Exception as e:
            outcomes[i] = e
    if not runs:
        return outcomes
    ready = list(runs.values())
    train_cfg = ready[0].train_cfg
    if train_cfg.nd is not None:
        train_cfg = replace(train_cfg, nd=replace(
            train_cfg.nd, lam=np.array([r.train_cfg.nd.lam for r in ready])))
    try:
        results = train_seeds([r.model for r in ready], [r.data for r in ready], train_cfg,
                              [np.random.default_rng(r.seeds["train"]) for r in ready])
    except Exception as e:
        results = [e] * len(runs)
    for (i, run), result in zip(runs.items(), results):
        try:
            outcomes[i] = result if isinstance(result, Exception) else \
                _finish_train(run, result, threads)
        except Exception as e:
            outcomes[i] = e
    return outcomes


def run_train(cfg: dict, out_dir=None, threads: int = 1):
    """Full training run: dataset, model, training, evaluation on
    ``threads`` threads, artifacts.

    Returns (RunReport, run directory).
    """
    (outcome,) = _train_runs([cfg], [out_dir], threads)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_eval(cfg: dict, checkpoint_path=None, out_dir=None, threads: int = 1):
    """Evaluate a stored checkpoint (or, without one, the PCA oracle) on the
    configured dataset, on ``threads`` threads."""
    cfg, out_dir, seeds = _setup(cfg, out_dir)
    data = get_dataset(cfg, seeds["data"])
    _prepare_run_dir(cfg, out_dir)
    if checkpoint_path is None:
        return _run_pca_oracle(cfg, data, out_dir)

    from . import checkpoint, evaluation
    model = checkpoint.load_model(checkpoint_path)
    if model.dim != data.dim:
        raise ValueError(
            f"checkpoint dimension {model.dim} does not match dataset "
            f"dimension {data.dim}")
    orders = order_table(cfg.get("eval", {}).get("orders", ["identity"]), model,
                         seeds["eval"])
    report = evaluation.make_run_report(
        model, data, orders, config_hash=config_hash(cfg), seed=cfg["seed"],
        notes={"mode": "eval", "checkpoint": str(checkpoint_path),
               "dataset": dataset_notes(data)},
        threads=threads,
    )
    evaluation.save_report(report.document(), out_dir, next(iter(orders)))
    return report, out_dir


def _run_pca_oracle(cfg: dict, data: Dataset, out_dir: Path):
    """Baseline evaluation without a flow: fit PCA on the train split and
    report its reconstruction curve on the eval split."""
    from . import evaluation, pca
    started = time.perf_counter()
    fit = pca.pca_fit(data.get_split("train"))
    split = evaluation.eval_split(data)
    x = data.get_split(split)
    doc = {
        "results": {
            "mode": "pca-oracle",
            "split": split,
            "mse_curve": [pca.pca_mse(fit, x, k) for k in range(1, data.dim + 1)],
            "eigenvalues": fit.eigenvalues.tolist(),
            "config_hash": config_hash(cfg),
            "seed": cfg["seed"],
            "dataset": dataset_notes(data),
        },
        "timing": evaluation.eval_timing(started, 1),
    }
    evaluation.save_report(doc, out_dir, "pca")
    return doc, out_dir


def apply_override(cfg: dict, dotted: str, value) -> None:
    """Set config key "a.b.c" to value, creating intermediate objects; a
    key through a value that is not an object is a ConfigError."""
    node = cfg
    *heads, last = dotted.split(".")
    for i, p in enumerate(heads):
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{_where(('grid', dotted))}: {_where(heads[:i + 1])} "
                              "is not an object")
    node[last] = value


def worker_count() -> int:
    """CPUs one command may keep busy: ``NESTEDFLOW_THREADS``, default 1, at
    most the CPUs this process may run on."""
    raw = os.environ.get("NESTEDFLOW_THREADS", "1")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        return min(max(1, int(raw)), cpus or 1)
    except ValueError:
        raise ValueError(f"NESTEDFLOW_THREADS must be an integer, got {raw!r}")


def run_sweep(sweep_cfg: dict, out_dir=None) -> Path:
    """One training run per (grid point, seed).  A child that fails in
    training or evaluation, or whose ``path`` dataset cannot be used, is a
    ``failed`` row of the aggregate table and does not stop the sweep.

    Every child's config is validated first, and one with an inline dataset
    is set up as ``train`` sets it up (:func:`build_run`), so an invalid
    child fails the sweep before its directory exists.  Children whose
    configs differ only in seed and ``nd.lambda`` form one pool job, trained
    together (see :func:`_train_runs`).  Jobs are halved, largest first,
    until there are at least as many jobs as pool workers.  Each worker
    evaluates on its share of ``worker_count()`` threads."""
    validate_config(sweep_cfg, SWEEP_SCHEMA)
    base = sweep_cfg["base"]
    grid = sweep_cfg["grid"]
    for key, owner in (("seed", '"seeds"'), ("output_dir", 'the sweep\'s "output_dir"')):
        if key in grid:
            raise ConfigError(f"config.grid.{key}: the sweep sets each child's {key}; "
                              f"use {owner}")
    seeds = sweep_cfg.get("seeds", [base.get("seed", 0)])
    out_dir = Path(out_dir or sweep_cfg.get("output_dir") or "runs/sweep")

    keys = sorted(grid)
    children = []
    named = {}  # child directory name -> the child that took it
    for values in itertools.product(*(grid[k] for k in keys)):
        for seed in seeds:
            cfg = json.loads(json.dumps(base))
            for k, v in zip(keys, values):
                apply_override(cfg, k, v)
            cfg["seed"] = int(seed)
            cfg.pop("output_dir", None)
            tag = "_".join(f"{k.split('.')[-1]}={value_label(v)}"
                           for k, v in zip(keys, values))
            # Path separators in values would nest directories.
            name = f"{tag}_s{seed}".replace("/", "").replace("\\", "")
            params = dict(zip(keys, values))
            child = f"{params} seed {seed}"
            try:
                cfg = resolve_config(validate_config(cfg))
                dim = spec_dim(cfg["dataset"])
                if dim is not None:
                    build_run(cfg, derive_seeds(cfg["seed"]), dim)
            except ValueError as e:
                raise ConfigError(f"sweep child {child}: {e}") from None
            if name in named:
                raise ConfigError(f"sweep children {named[name]} and {child} "
                                  f"would share the run directory {name!r}")
            named[name] = child
            children.append((params, seed, cfg, out_dir / name))
    out_dir.mkdir(parents=True, exist_ok=True)
    build_identifier()  # resolved once here, so forked workers inherit it

    budget = worker_count()
    workers = min(budget, len(children))
    run_job = functools.partial(_run_sweep_job, threads=budget // workers)
    groups = {}
    for i, (_, _, cfg, _) in enumerate(children):
        groups.setdefault(_job_key(cfg), []).append(i)
    jobs = list(groups.values())
    while len(jobs) < workers:  # some job has two children: workers <= children
        k = max(range(len(jobs)), key=lambda j: len(jobs[j]))
        half = len(jobs[k]) // 2
        jobs[k : k + 1] = [jobs[k][:half], jobs[k][half:]]
    payloads = [[children[i][2:] for i in job] for job in jobs]
    if workers > 1:
        # Imported here so that commands which start no pool do not import
        # multiprocessing, and forked workers inherit the run modules.
        from concurrent.futures import ProcessPoolExecutor
        from . import checkpoint, evaluation, optim  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers, initializer=one_line_warnings) as pool:
            results = list(pool.map(run_job, payloads))
    else:
        results = [run_job(p) for p in payloads]
    cells = dict(zip(itertools.chain(*jobs), itertools.chain(*results)))
    with open(out_dir / "aggregate.csv", "w", newline="") as f:
        # csv quotes cells holding commas, such as list or object grid values
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(keys + ["seed", "status", "test_ll_nats", "mse_1", "mse_2",
                                "error", "run_dir"])
        writer.writerows([*params.values(), seed, *cells[i], str(child_dir)]
                         for i, (params, seed, _, child_dir) in enumerate(children))
    return out_dir


def _job_key(cfg: dict) -> str:
    """Sweep children with equal keys differ only in seed and ``nd.lambda``
    and form one job.  A random training drop order is drawn from the seed,
    so such a child keeps its seed in its key and trains alone."""
    key = {**cfg, "seed": None}
    if "nd" in cfg:
        key["nd"] = {**cfg["nd"], "lambda": None}
        if cfg["nd"].get("order") == "random":
            key["seed"] = cfg["seed"]
    return json.dumps(key, sort_keys=True)


def one_line_warnings():
    """Print each warning as one line: in the CLI and in each sweep pool worker,
    with one write, so that workers' lines do not interleave."""
    warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")


def _run_sweep_job(payloads, threads: int):
    """One pool job, children that differ only in seed and ``nd.lambda``,
    evaluated on ``threads`` threads: each child's ``aggregate.csv`` cells.
    Numpy's floating-point warnings are off, since the non-finite checks
    report each failure."""
    with np.errstate(all="ignore"):
        return [_aggregate_cells(o) for o in _train_runs(*zip(*payloads), threads)]


def _aggregate_cells(outcome) -> list:
    """A child's ``aggregate.csv`` cells from ``status`` to ``error``."""
    if isinstance(outcome, Exception):
        # keep the aggregate CSV one-cell-per-column
        flat = f"{type(outcome).__name__}: {outcome}".replace(",", ";").replace("\n", " ")
        return ["failed", "", "", "", flat]
    report, _ = outcome
    curve = report.mse_curve.tolist()
    return ["ok", report.test_ll_nats, curve[0], curve[1] if len(curve) > 1 else "", ""]
