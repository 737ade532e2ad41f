"""End-to-end run: the user-facing CLI, untraced, with output checks.

One run sets up several times in fresh interpreters, then repeats
train / train with zero steps / eval / sweep in-process until its time is
spent, and reports the median of each timing.  Every timing is taken under
a `speed.Sampler` and reported scaled to the reference machine speed; the
plain wall times are kept beside them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from nestedflow import cli

from . import workloads as wl
from .speed import Sampler

SETUP_REPEATS = 3
# Directory that holds the bench package, for the set-up interpreters.
BENCH_ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter: cold import of the CLI, then `generate`,
# sampling its own speed.  The sampler imports numpy first, which the CLI
# imports anyway, so the timed import work is the same.
_SETUP_CHILD = """\
import sys, time
started = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from bench.speed import Sampler
before = time.perf_counter() - started
with Sampler() as s:
    import nestedflow.cli
    code = nestedflow.cli.main(["generate", "--config", sys.argv[3],
                                "--output", sys.argv[4]])
wall = before + s.wall
print(repr(wall), repr(s.scale(wall - s.overhead)))
sys.exit(code)
"""


class Checks:
    """Counts commands attempted and failed; keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def command(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(f"{label}: {p}" for p in problems)


def write_json(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def write_configs(name: str, seed: int, size: str, work: Path) -> dict:
    """Write the workload's experiment, zero-step and sweep configs; returns
    their paths for Round."""
    cfg = wl.experiment_config(name, seed, size)
    return {
        "exp": write_json(work / "experiment.json", cfg),
        "fixed": write_json(work / "fixed.json", wl.with_iterations(cfg, 0)),
        "sweep": write_json(work / "sweep.json", wl.sweep_config(name, seed, size)),
    }


def run_cli(argv: list[str]) -> tuple[int, tuple[float, float], str]:
    """Run one CLI command in this process; returns (exit code, (wall
    seconds, scaled seconds), error).  stdout is captured so that printing
    costs what it costs in a pipe, not on a terminal."""
    sink = io.StringIO()
    err = ""
    with Sampler() as s:
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a crash is a failed command, not a failed run
            code, err = -1, f"{type(e).__name__}: {e}"
    return code, (s.wall, s.scaled), err


def load_report(path: Path) -> tuple[dict | None, list[str]]:
    try:
        with open(path) as f:
            return json.load(f), []
    except (OSError, ValueError) as e:
        return None, [f"report unreadable: {e}"]


def command_problems(code: int, error: str) -> list[str]:
    if code == 0:
        return []
    return [f"exit code {code}" + (f" ({error})" if error else "")]


def read_aggregate(sweep_dir: Path) -> tuple[list[dict], list[str]]:
    try:
        with open(sweep_dir / "aggregate.csv", newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as e:
        return [], [f"aggregate.csv unreadable: {e}"]
    problems = [f"row {r.get('run_dir')} has status {r.get('status')!r}"
                for r in rows if r.get("status") != "ok"]
    for r in rows:
        _, bad = load_report(Path(r["run_dir"]) / "report.json")
        problems.extend(f"{r['run_dir']}: {p}" for p in bad)
    return rows, problems


def sweep_reference_problems(rows: list[dict]) -> list[str]:
    """Check every sweep child's test LL and MSE(1) against its references."""
    problems = []
    for r in rows:
        key = wl.sweep_reference_key(r["model.kind"], r["nd.lambda"])
        problems += wl.trained_problems(
            key, int(r["seed"]), float(r["test_ll_nats"]), float(r["mse_1"]),
            Path(r["run_dir"]) / "dataset.csv")
    return problems


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def setup_once(src: Path, config: Path,
               out: Path) -> tuple[int, tuple[float, float], str]:
    """Set up in a fresh interpreter, which times itself: (exit code,
    (wall seconds, scaled seconds), error)."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(src), str(BENCH_ROOT),
         str(config), str(out)], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return proc.returncode, (0.0, 0.0), proc.stderr.strip()[-300:]
    wall, scaled = map(float, proc.stdout.strip().splitlines()[-1].split())
    return 0, (wall, scaled), ""


class Round:
    """One train / train-with-zero-steps / eval / sweep round.

    Every command is checked: exit code 0 and readable reports.  The first
    round also checks outputs against independent references; later rounds
    must reproduce the first round's deterministic outputs exactly.
    """

    def __init__(self, name: str, seed: int, size: str, configs: dict,
                 first: dict | None):
        self.name, self.seed, self.size = name, seed, size
        self.configs, self.first = configs, first

    def run(self, root: Path, checks: Checks) -> tuple[dict, dict]:
        c = {k: str(v) for k, v in self.configs.items()}
        times, view = {}, {}

        code, times["train"], err = run_cli(
            ["train", "--config", c["exp"], "--output", str(root / "train")])
        doc, bad = report_of(code, err, root / "train")
        view["train"] = doc and doc["results"]
        if doc and self.first is None and self.size == "full":
            res = doc["results"]
            bad += wl.trained_problems(
                self.name, self.seed, res["test_ll_nats"],
                res["mse_curve"][0], root / "train" / "dataset.csv")
        checks.command("train", bad + self._rerun("train", view))

        code, times["fixed"], err = run_cli(
            ["train", "--config", c["fixed"], "--output", str(root / "fixed")])
        doc, bad = report_of(code, err, root / "fixed")
        view["fixed"] = doc and doc["results"]
        checks.command("train (0 steps)", bad + self._rerun("fixed", view))

        # Both evals are short on linear3d, so they repeat there to give
        # eval_s as many samples as the other timings.
        times["eval"] = []
        for _ in range(wl.EVAL_REPEATS[self.size][self.name]):
            code, t_eval, err = run_cli(
                ["eval", "--config", c["exp"], "--checkpoint",
                 str(root / "train" / "checkpoint.json"),
                 "--output", str(root / "eval")])
            doc, bad = report_of(code, err, root / "eval")
            view["eval"] = doc and doc["results"]
            if view["eval"] and view["train"]:
                bad += eval_matches_train(view["train"], view["eval"])
            checks.command("eval --checkpoint", bad + self._rerun("eval", view))

            code, t_pca, err = run_cli(
                ["eval", "--config", c["exp"], "--output", str(root / "pca")])
            doc, bad = report_of(code, err, root / "pca")
            view["pca"] = doc and doc["results"]
            if doc and self.first is None:
                bad += pca_problems(doc["results"]["mse_curve"][0],
                                    root / "train" / "dataset.csv")
            checks.command("eval (PCA)", bad + self._rerun("pca", view))
            times["eval"].append((t_eval[0] + t_pca[0], t_eval[1] + t_pca[1]))

        code, times["sweep"], err = run_cli(
            ["sweep", "--config", c["sweep"], "--output", str(root / "sweep")])
        bad = command_problems(code, err)
        rows = []
        if not bad:
            rows, bad = read_aggregate(root / "sweep")
        if rows and self.first is None and self.size == "full" \
                and self.name == "linear3d":
            bad += sweep_reference_problems(rows)
        view["sweep"] = [{k: v for k, v in r.items() if k != "run_dir"}
                         for r in rows]
        checks.command("sweep", bad + self._rerun("sweep", view))
        return times, view

    def _rerun(self, key: str, view: dict) -> list[str]:
        if self.first is None or view[key] is None or view[key] == self.first[key]:
            return []
        return ["output differs from the first round's run of the same config"]


def pca_problems(got: float, dataset_csv: Path) -> list[str]:
    """The PCA baseline's MSE(1) against a numpy eigendecomposition."""
    try:
        want = wl.gaussian_reference(*wl.load_points(dataset_csv)).pca_mse1
    except (OSError, ValueError, KeyError) as e:
        return [f"dataset unreadable for the reference: {e}"]
    if abs(got - want) > 1e-9 * want:
        return [f"PCA MSE(1) {got!r} != numpy reference {want!r}"]
    return []


def report_of(code: int, err: str, out_dir: Path):
    bad = command_problems(code, err)
    if bad:
        return None, bad
    return load_report(out_dir / "report.json")


def eval_matches_train(train: dict, ev: dict) -> list[str]:
    """Same checkpoint, same regenerated data: equal bit for bit."""
    out = []
    if train["test_ll_nats"] != ev["test_ll_nats"]:
        out.append(f"eval LL {ev['test_ll_nats']!r} != train LL "
                   f"{train['test_ll_nats']!r}")
    if train["mse_curve"] != ev["mse_curve"]:
        out.append("eval MSE curve differs from the one train reported")
    return out


def run(name: str, seed: int, seconds: float, size: str, src: Path,
        work: Path) -> dict:
    """Set up SETUP_REPEATS times, then run rounds until about `seconds`
    have passed since the start (at least one round); medians of each
    timing.

    Samples are (wall seconds, scaled seconds) pairs; the metrics are
    medians of the scaled ones, and the wall medians are returned beside
    them."""
    deadline = time.perf_counter() + seconds
    checks = Checks()
    iterations = wl.ITERATIONS[size][name]
    configs = write_configs(name, seed, size, work)

    samples: dict[str, list[tuple[float, float]]] = {
        "setup": [], "train": [], "fixed": [], "step": [], "eval": [],
        "sweep": []}
    first_csv = None
    for i in range(SETUP_REPEATS):
        out_dir = work / f"setup{i}"
        code, secs, err = setup_once(src, configs["exp"], out_dir)
        bad = command_problems(code, err)
        if not bad:
            samples["setup"].append(secs)
            csv_path = out_dir / "dataset.csv"
            if first_csv is None:
                first_csv = csv_path.read_bytes()
            elif csv_path.read_bytes() != first_csv:
                bad.append("generate wrote a different dataset for the same seed")
        checks.command("generate", bad)
        shutil.rmtree(out_dir, ignore_errors=True)

    # Every round writes to the same directory, so paths recorded in the
    # reports are equal across rounds and outputs compare exactly.
    root = work / "round"
    first = None
    while True:
        started = time.perf_counter()
        times, view = Round(name, seed, size, configs, first).run(root, checks)
        first = first or view
        samples["eval"] += times.pop("eval")
        for key, value in times.items():
            samples[key].append(value)
        samples["step"].append(tuple((t - f) / max(iterations, 1) for t, f
                                     in zip(times["train"], times["fixed"])))
        shutil.rmtree(root, ignore_errors=True)
        # Stop where the next round would end nearer past the deadline than
        # before it, so a run of long rounds keeps its count of rounds.
        took = time.perf_counter() - started
        if time.perf_counter() + took / 2 > deadline:
            break

    def medians(which):
        out = {}
        for key, unit, scale in (("setup", "s", 1), ("train", "s", 1),
                                 ("fixed", "s", 1), ("step", "us", 1e6),
                                 ("eval", "s", 1), ("sweep", "s", 1)):
            values = [pair[which] for pair in samples[key]]
            out[f"{key}_{unit}"] = (
                statistics.median(values) * scale if values else 0.0, unit)
        return out

    metrics = medians(1)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return {
        "metrics": metrics,
        "wall": medians(0),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
        "samples": samples,
        "iterations": iterations,
    }
