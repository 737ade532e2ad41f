"""Adam, cosine learning-rate annealing, and the minibatch training loop.

Training is deterministic given (config, rng): per iteration the loop draws
batch indices with replacement, then truncation indices (when the
reconstruction penalty is active), evaluates the objective and its gradient
(one call of the objective's VJP, the flow's explicit reverse sweep), and
applies one bias-corrected Adam step.  The loss terms and learning rate of
every iteration are recorded as a trace.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import NonFiniteLossError, evaluate_with_gradient
from .flows import FlowEvalError, FlowModel
from .nested_dropout import NestedDropoutConfig, loss_terms, sample_ks

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

LR_SCHEDULES = ("constant", "cosine-to-zero")


class TrainDivergenceError(ArithmeticError):
    """Training hit a non-finite loss, gradient or flow output; the message
    carries the iteration index, the transform index, kind and direction
    when a flow output went non-finite, and the last finite loss terms."""


@dataclass(frozen=True)
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0


def init_adam(n_params: int) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params))


def adam_step(state: AdamState, theta: np.ndarray, gradient: np.ndarray,
              lr: float):
    """One bias-corrected Adam update; returns (new_theta, new_state)."""
    if not np.all(np.isfinite(gradient)):
        raise TrainDivergenceError(
            f"non-finite gradient at optimizer step {state.step_count + 1}")
    t = state.step_count + 1
    m = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * gradient
    v = ADAM_BETA2 * state.second_moment + (1.0 - ADAM_BETA2) * gradient ** 2
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    theta = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return theta, replace(state, first_moment=m, second_moment=v, step_count=t)


def cosine_lr(t: int, total: int, lr0: float) -> float:
    """Anneal from lr0 at t=0 down to zero at t=total."""
    if not 0 <= t <= total:
        raise ValueError(f"step {t} outside [0, {total}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * t / total))


@dataclass(frozen=True)
class TrainConfig:
    iterations: int
    batch_size: int
    lr_initial: float
    lr_schedule: str = "constant"
    nd: NestedDropoutConfig | None = None

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.lr_initial <= 0.0:
            raise ValueError("initial learning rate must be positive")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")

    def lr_at(self, t: int) -> float:
        if self.lr_schedule == "constant":
            return self.lr_initial
        return cosine_lr(t, self.iterations, self.lr_initial)


@dataclass(frozen=True)
class TrainTrace:
    """Per-iteration objective decomposition."""

    iteration: np.ndarray
    nll_term: np.ndarray
    recon_term: np.ndarray
    lr: np.ndarray

    def save_csv(self, path):
        with open(path, "w") as f:
            f.write("iteration,nll_term,recon_term,lr\n")
            for i in range(self.iteration.size):
                f.write(f"{self.iteration[i]},"
                        f"{format(self.nll_term[i], '.17g')},"
                        f"{format(self.recon_term[i], '.17g')},"
                        f"{format(self.lr[i], '.17g')}\n")


@dataclass(frozen=True)
class TrainResult:
    model: FlowModel
    trace: TrainTrace
    seconds: float
    seconds_per_step: float


def train(m: FlowModel, train_points: np.ndarray, cfg: TrainConfig,
          rng: np.random.Generator) -> TrainResult:
    """Run cfg.iterations Adam steps of the (optionally ND-penalized)
    objective on minibatches sampled with replacement.

    The model is updated in place and also returned.  Per iteration the rng
    is consumed in a fixed order (batch indices, then truncation indices),
    so identical (config, rng state) give bit-identical trajectories.
    """
    if hasattr(train_points, "get_split"):
        train_points = train_points.get_split("train")
    x_all = np.asarray(train_points, dtype=np.float64)
    if x_all.ndim != 2 or x_all.shape[0] == 0:
        raise ValueError("training split must be a nonempty (N, D) table")
    n_total = x_all.shape[0]
    state = init_adam(m.n_params)
    it = np.arange(cfg.iterations)
    trace_nll = np.empty(cfg.iterations)
    trace_recon = np.empty(cfg.iterations)
    trace_lr = np.empty(cfg.iterations)
    started = time.perf_counter()
    for t in range(cfg.iterations):
        idx = rng.integers(0, n_total, size=cfg.batch_size)
        x = x_all[idx]
        if cfg.nd is not None and cfg.nd.lam > 0.0:
            ks = sample_ks(cfg.nd.schedule, rng, cfg.batch_size)
        else:
            ks = None

        def objective(theta):
            total, trace_nll[t], trace_recon[t] = loss_terms(m, x, ks, cfg.nd, theta)
            return total

        lr = cfg.lr_at(t)
        try:
            record = evaluate_with_gradient(objective, m.params)
        except (NonFiniteLossError, FlowEvalError) as e:
            last = _last_finite(trace_nll, trace_recon, t)
            raise TrainDivergenceError(
                f"training diverged at iteration {t}: {e}; "
                f"last finite terms: {last}") from e
        theta, state = adam_step(state, m.params.values, record.gradient, lr)
        m.set_params(theta)
        trace_lr[t] = lr
    seconds = time.perf_counter() - started
    trace = TrainTrace(iteration=it, nll_term=trace_nll,
                       recon_term=trace_recon, lr=trace_lr)
    per_step = seconds / cfg.iterations if cfg.iterations else 0.0
    return TrainResult(model=m, trace=trace, seconds=seconds,
                       seconds_per_step=per_step)


def _last_finite(nll, recon, t) -> str:
    if t == 0:
        return "none (failed on the first iteration)"
    return (f"iteration {t - 1}: nll={nll[t - 1]:.6g}, "
            f"recon={recon[t - 1]:.6g}")
