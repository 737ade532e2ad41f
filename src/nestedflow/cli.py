"""Command-line entry point: generate, train, eval, sweep.

Exit codes: 0 success, 1 usage/config/I-O error, 2 numerical failure: any
``ArithmeticError``, the base of the package's own numerical errors
(non-finite loss, training divergence, a non-finite flow output, a singular
QR/LU factor met in an inverse pass or a zero Householder vector met while
building a QR layer's weights, a PCA covariance that overflows, a report's
failed checks).
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .config import SWEEP_SCHEMA, load_config
from . import experiment

NUMERICAL_ERRORS = ArithmeticError
# ConfigError, CheckpointError and DatasetFormatError are ValueErrors.
USAGE_ERRORS = (ValueError, OSError)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nestedflow",
                     description="Train and evaluate dimension-ordered "
                                 "normalizing flows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (for sweep: run "
                            "only this seed)")
        p.add_argument("--output", default=None, help="run directory")

    p = sub.add_parser("generate", help="write the configured dataset to disk")
    add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a flow and write checkpoint, "
                                     "report, and trace")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint (or the PCA "
                                    "baseline) on a dataset")
    add_common(p)
    p.add_argument("--checkpoint", default=None,
                   help="model checkpoint; omit for the PCA baseline")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid of training runs with an "
                                     "aggregate table")
    add_common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def _load(args) -> dict:
    """The experiment config, with the --seed override applied."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def cmd_generate(args) -> int:
    cfg = _load(args)
    path, data = experiment.run_generate(cfg, args.output)
    mean = data.points.mean(axis=0)
    var = data.points.var(axis=0)
    print(f"wrote {path}: {data.points.shape[0]} rows x {data.dim} columns")
    print("per-coordinate mean:", np.array2string(mean, precision=4))
    print("per-coordinate variance:", np.array2string(var, precision=4))
    for name in ("train", "val", "test"):
        if data.has_split(name):
            start, stop = data.split[name]
            print(f"split {name}: rows [{start}, {stop})")
    return 0


def cmd_train(args) -> int:
    cfg = _load(args)
    report, out_dir = experiment.run_train(cfg, args.output, experiment.worker_count())
    print(f"run directory: {out_dir}")
    print(f"{report.split} LL: {report.test_ll_nats:.4f} nats "
          f"({report.test_bpd:.4f} bits/dim)")
    curve = report.mse_curve
    shown = ", ".join(f"MSE({k + 1})={curve[k]:.4f}"
                      for k in range(min(3, curve.size)))
    print(f"reconstruction: {shown}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load(args)
    result, out_dir = experiment.run_eval(cfg, args.checkpoint, args.output,
                                          experiment.worker_count())
    print(f"run directory: {out_dir}")
    if args.checkpoint is None:
        curve = result["results"]["mse_curve"]
        print("PCA baseline MSE(1..{}): {}".format(
            len(curve), ", ".join(f"{v:.4f}" for v in curve)))
    else:
        print(f"{result.split} LL: {result.test_ll_nats:.4f} nats")
        print("MSE curve:", ", ".join(f"{v:.4f}" for v in result.mse_curve))
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, SWEEP_SCHEMA)
    if args.seed is not None:
        cfg["seeds"] = [args.seed]
    out_dir = experiment.run_sweep(cfg, args.output)
    print(f"sweep directory: {out_dir}")
    print(f"aggregate table: {out_dir / 'aggregate.csv'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # The non-finite checks report each failure in one line, so numpy's
        # floating-point warnings would only repeat it; others print in one.
        with np.errstate(all="ignore"), warnings.catch_warnings():
            experiment.one_line_warnings()
            return args.func(args)
    except NUMERICAL_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
