"""Reverse-mode gradients of scalar losses over a flat parameter vector.

A small tape: :func:`evaluate_with_gradient` hands the loss its parameters
as a leaf :class:`Var`, and the loss registers its value through
:func:`record` together with a VJP per input; the tape is then replayed
backwards.  The package's one loss, :func:`nestedflow.nested_dropout.loss_terms`,
computes in plain numpy and records its total as a single node whose VJP
runs the flow's explicit reverse sweep, so a training step tapes two
nodes: the parameters and the loss.

``record`` returns a node only while this thread is recording and some
input is a node, and the plain value otherwise, so the same loss code
evaluates without a tape (:func:`loss_value`, finite differences) and
builds the tape under :func:`evaluate_with_gradient`.  One gradient
evaluation is single-threaded.  The recording tape is per thread, so
independent evaluations may run concurrently in separate threads; they
must not share a model whose parameters another thread changes meanwhile.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Var",
    "NonFiniteLossError",
    "record",
    "ParameterVector",
    "GradientRecord",
    "evaluate_with_gradient",
    "loss_value",
    "finite_difference_gradient",
]


class NonFiniteLossError(ArithmeticError):
    """A loss or gradient evaluation produced NaN/Inf."""


class Var:
    """A node in the computation graph: a value plus backward hooks."""

    __slots__ = ("value", "parents", "op")

    def __init__(self, value, parents=(), op="leaf"):
        self.value = value
        self.parents = parents  # tuple of (Var, vjp) pairs
        self.op = op

    @property
    def shape(self):
        return np.shape(self.value)

    def __repr__(self):
        return f"Var(op={self.op!r}, shape={self.shape})"


class _Local(threading.local):
    # This thread's active recording; a class default, so a thread that
    # never recorded reads None without raising and catching AttributeError.
    tape = None


_LOCAL = _Local()


class _Recording:
    """Context manager activating a fresh tape for the calling thread."""

    def __enter__(self):
        if _LOCAL.tape is not None:
            raise RuntimeError("gradient evaluations cannot be nested")
        _LOCAL.tape = []
        return _LOCAL.tape

    def __exit__(self, *exc):
        _LOCAL.tape = None
        return False


def record(value, parents, op):
    """Return ``value``, as a new tape node when it depends on one.

    ``parents`` holds ``(input, vjp)`` pairs; ``vjp`` maps the gradient of
    the output to the gradient of that input, with the input's shape.  Pairs
    whose input is not a :class:`Var` are constants and are dropped.  Only
    when this thread is recording and some input is a node does the output
    become a node on the tape; otherwise ``value`` comes back as it is.
    """
    tape = _LOCAL.tape
    if tape is None:
        return value
    parents = tuple(p for p in parents if isinstance(p[0], Var))
    if not parents:
        return value
    node = Var(value, parents, op)
    tape.append(node)
    return node


# -- parameters and gradient evaluation -------------------------------------

@dataclass(frozen=True)
class ParameterVector:
    """Flat, finite, 1-D parameter storage."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError("parameter vector must be 1-D")
        if not np.all(np.isfinite(v)):
            raise ValueError("parameter vector contains non-finite entries")

    def __len__(self):
        return self.values.size

    def with_values(self, values: np.ndarray) -> "ParameterVector":
        return ParameterVector(values)


@dataclass(frozen=True)
class GradientRecord:
    """Loss value and its gradient with respect to the flat parameters."""

    value: float
    gradient: np.ndarray


def _backward(tape, out: Var, leaf: Var) -> np.ndarray:
    grads = {id(out): np.float64(1.0)}
    for node in reversed(tape):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, vjp in node.parents:
            pg = vjp(g)
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg
    g = grads.get(id(leaf))
    if g is None:
        g = np.zeros_like(leaf.value)
    return np.asarray(g, dtype=np.float64)


def evaluate_with_gradient(loss, theta: ParameterVector) -> GradientRecord:
    """Evaluate ``loss`` at ``theta`` and return value plus exact gradient.

    ``loss`` must be a scalar function that receives the parameters as a
    single 1-D :class:`Var` and returns a node registered through
    :func:`record`.
    """
    with _Recording() as tape:
        leaf = Var(np.array(theta.values, dtype=np.float64))
        out = loss(leaf)
        if not isinstance(out, Var):
            raise TypeError("loss must return a tape node registered through record")
        value = float(out.value)
        if not np.isfinite(value):
            raise NonFiniteLossError(f"loss evaluated to {value}")
        gradient = _backward(tape, out, leaf)
    if not np.all(np.isfinite(gradient)):
        bad = int(np.flatnonzero(~np.isfinite(gradient))[0])
        raise NonFiniteLossError(f"gradient is non-finite at parameter index {bad}")
    return GradientRecord(value=value, gradient=gradient)


def loss_value(loss, theta: ParameterVector) -> float:
    """Evaluate the loss on the plain parameter array, without a tape."""
    return float(loss(np.asarray(theta.values, dtype=np.float64)))


def finite_difference_gradient(loss, theta: ParameterVector,
                               step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate, one coordinate at a time.

    The step is ``step * max(1, |theta_i|)`` per coordinate, which keeps
    relative truncation error uniform across parameter magnitudes.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    base = np.array(theta.values, dtype=np.float64)
    grad = np.empty_like(base)
    for i in range(base.size):
        h = step * max(1.0, abs(base[i]))
        bumped = base.copy()
        bumped[i] = base[i] + h
        up = loss_value(loss, theta.with_values(bumped))
        bumped[i] = base[i] - h
        down = loss_value(loss, theta.with_values(bumped))
        grad[i] = (up - down) / (2.0 * h)
    return grad
