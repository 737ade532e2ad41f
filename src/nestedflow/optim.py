"""Adam, cosine learning-rate annealing, and the minibatch training loop.

Training is deterministic given (config, rng): per iteration the loop draws
batch indices with replacement, then truncation indices with
:func:`~nestedflow.nested_dropout.sample_ks` (when the reconstruction
penalty is active), evaluates the objective and its gradient
(one call of the objective's VJP, the flow's explicit reverse sweep), and
applies one bias-corrected Adam step.  The loss terms and learning rate of
every iteration are recorded as a trace.

:func:`train_seeds` is the one entry that knows about seed stacks: given
two or more models it trains them as one stack in the same loop.  Each
seed makes its solo run's draws with its solo run's calls, from its own
generator and training split, and keeps its own nested-dropout weight λ;
the stack takes one step on (S, B, D) batches, and Adam updates its (S, P)
parameters and moments elementwise.  A stack whose step fails numerically
gives way to one solo run per seed.  A solo run, and :func:`train`, take
the plain 2-D path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import NonFiniteLossError, evaluate_with_gradient
from .datasets import write_csv
from .flows import FlowEvalError, FlowModel, stack_models
from .nested_dropout import NestedDropoutConfig, loss_terms, sample_ks

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

LR_SCHEDULES = ("constant", "cosine-to-zero")


class TrainDivergenceError(ArithmeticError):
    """Training hit a non-finite loss, gradient, flow output or parameter
    update, or a singular factor; the message carries the iteration index,
    the failing transform's index, kind and direction, if any, and the last
    finite loss terms."""


@dataclass(frozen=True)
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0


def init_adam(n_params) -> AdamState:
    """Zero moments for ``n_params`` parameters, or for the (S, P) shape of
    a seed stack's."""
    return AdamState(np.zeros(n_params), np.zeros(n_params))


def adam_step(state: AdamState, theta: np.ndarray, gradient: np.ndarray,
              lr: float):
    """One bias-corrected Adam update; returns (new_theta, new_state).
    Every operation is elementwise, so a seed stack's (S, P) parameters,
    gradients and moments update each row as its solo run does."""
    if not np.isfinite(gradient).all():
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
        write_csv(path, np.column_stack([self.iteration, self.nll_term, self.recon_term,
                                         self.lr]), "iteration,nll_term,recon_term,lr\n")


@dataclass(frozen=True)
class TrainResult:
    model: FlowModel
    trace: TrainTrace
    seconds: float
    seconds_per_step: float


def train(m: FlowModel, train_points, cfg: TrainConfig, rng) -> TrainResult:
    """Run cfg.iterations Adam steps of the (optionally ND-penalized)
    objective on minibatches sampled with replacement.

    The model is updated in place and also returned.  Per iteration the rng
    is consumed in a fixed order (batch indices, then truncation indices
    from :func:`~nestedflow.nested_dropout.sample_ks`), so identical
    (config, rng state) give bit-identical trajectories.
    Raises :class:`TrainDivergenceError` when the run diverges.
    """
    (result,) = train_seeds([m], [train_points], cfg, [rng])
    if isinstance(result, Exception):
        raise result
    return result


def train_seeds(models, train_points, cfg: TrainConfig, rngs) -> list:
    """Train each model as :func:`train` does, on its own training set and
    generator; returns, per model, its :class:`TrainResult` or the error
    its solo run raises.  ``cfg.nd.lam`` is one weight for every model or
    one per model.

    One model trains solo.  Two or more train as one seed stack
    (:func:`~nestedflow.flows.stack_models`): each consumes its generator as
    its solo run does, and one step moves every seed.  A stack in which some
    seeds have λ > 0 runs the reconstruction pass for all (see
    :func:`~nestedflow.nested_dropout.loss_terms`).  A stack is all or
    nothing: when a stacked step raises an ``ArithmeticError``, every
    generator is reset to its state at entry and every model, untouched
    until a stack succeeds, trains alone, so each result or error is its
    solo run's.  Such a stack costs its steps up to the failure plus one
    solo run per seed.  Each result's ``seconds`` time the loop that made
    it: the whole stack, or its solo run.
    """
    lams = np.broadcast_to(0.0 if cfg.nd is None else cfg.nd.lam, len(models)).tolist()
    if len(models) > 1:
        entry = [rng.bit_generator.state for rng in rngs]
        try:
            return _train_together(models, train_points, cfg, lams, rngs)
        except ArithmeticError:
            for rng, state in zip(rngs, entry):
                rng.bit_generator.state = state
    return [_train_together([m], [points], cfg, [lam], [rng])[0]
            for m, points, lam, rng in zip(models, train_points, lams, rngs)]


def _train_together(models, train_points, cfg: TrainConfig, lams: list, rngs) -> list:
    """Train ``models``, each with its λ in ``lams``, as one model: itself
    when there is one, else their seed stack.  A solo run returns its
    result or its error; a stack returns each model's result, having set
    its parameters, or raises the first error of a stacked step."""
    stacked = len(models) > 1
    m = stack_models(models) if stacked else models[0]
    tables = [_train_table(points) for points in train_points]
    penalised = [lam > 0.0 for lam in lams]
    step_cfg = _with_lam(cfg, np.array(lams) if stacked else lams[0])
    terms = np.empty((3, len(models), cfg.iterations))  # nll, recon, lr per seed
    state = init_adam(m.params.values.shape)
    started = time.perf_counter()
    for t in range(cfg.iterations):
        x, ks = _draws(tables, cfg, penalised, rngs)
        try:
            state = _step(m, x, ks, step_cfg, state, t, terms)
        except ArithmeticError as e:
            if stacked:
                raise
            return [_diverged(e, terms[:, 0], t)]
    seconds = time.perf_counter() - started
    if stacked:
        for model, theta in zip(models, m.params.values):
            model.set_params(theta)
    per_step = seconds / cfg.iterations if cfg.iterations else 0.0
    steps = np.arange(cfg.iterations)
    return [TrainResult(model, TrainTrace(steps, *terms[:, s]), seconds, per_step)
            for s, model in enumerate(models)]


def _train_table(points) -> np.ndarray:
    if hasattr(points, "get_split"):
        points = points.get_split("train")
    x_all = np.asarray(points, dtype=np.float64)
    if x_all.ndim != 2 or x_all.shape[0] == 0:
        raise ValueError("training split must be a nonempty (N, D) table")
    return x_all


def _with_lam(cfg: TrainConfig, lam) -> TrainConfig:
    """``cfg`` with nested-dropout weight ``lam``: one, or a stack's (S,)."""
    if cfg.nd is None:
        return cfg
    return replace(cfg, nd=replace(cfg.nd, lam=lam))


def _draws(tables: list, cfg: TrainConfig, penalised: list, rngs):
    """One iteration's draws for every seed, each from its own generator
    with its solo run's calls: the batch rows of its own table, then, when
    its λ > 0, :func:`~nestedflow.nested_dropout.sample_ks`.  Returns a solo
    run's (B, D) batch and (B,) truncation indices, or a stack's (S, B, D)
    and (S, B), with K (every coordinate kept) for a λ = 0 seed; the indices
    are None when no seed has λ > 0."""
    b = cfg.batch_size
    xs, ks = [], []
    for table, rng, keep in zip(tables, rngs, penalised):
        xs.append(np.take(table, rng.integers(0, len(table), size=b), axis=0))
        if keep:
            ks.append(sample_ks(cfg.nd.schedule, rng, b))
        elif any(penalised):
            ks.append(np.full(b, cfg.nd.schedule.K))
    if len(xs) == 1:
        return xs[0], ks[0] if ks else None
    return np.stack(xs), np.stack(ks) if ks else None


def _step(m, x, ks, cfg: TrainConfig, state: AdamState, t: int, terms):
    """Iteration t of a model or a stack: its loss terms and learning rate
    go to column t of ``terms``, its parameters take one Adam step; returns
    the new Adam state."""
    def objective(theta):
        total, terms[0, :, t], terms[1, :, t] = loss_terms(m, x, ks, cfg.nd, theta)
        return total

    lr = cfg.lr_at(t)
    record = evaluate_with_gradient(objective, m.params)
    theta, state = adam_step(state, m.params.values, record.gradient, lr)
    if not np.isfinite(theta).all():
        raise TrainDivergenceError(f"training diverged at iteration {t}: the Adam "
                                   f"step made the parameters non-finite")
    m.set_params(theta)
    terms[2, :, t] = lr
    return state


def _diverged(e: ArithmeticError, terms, t: int) -> ArithmeticError:
    """The error a solo run raises for its failed iteration t: a non-finite
    loss or gradient, or a FlowEvalError, becomes a TrainDivergenceError with
    the last finite loss terms; any other error stands as it is."""
    if not isinstance(e, (NonFiniteLossError, FlowEvalError)):
        return e
    err = TrainDivergenceError(f"training diverged at iteration {t}: {e}; "
                               f"last finite terms: {_last_finite(terms[0], terms[1], t)}")
    err.__cause__ = e
    return err


def _last_finite(nll, recon, t) -> str:
    if t == 0:
        return "none (failed on the first iteration)"
    return (f"iteration {t - 1}: nll={nll[t - 1]:.6g}, "
            f"recon={recon[t - 1]:.6g}")
