"""Reverse-mode automatic differentiation over batched numpy arrays.

A small tape machine: model code builds scalar losses out of the primitive
functions in this module (``add``/``sub``/``mul``/``square``, ``vsum``, and
the structural ``slice_1d`` and ``gather_cols``), and
:func:`evaluate_with_gradient` replays the tape backwards to accumulate exact
parameter gradients.  A layer computes its whole map in numpy and
registers it as one fused node with a hand-written VJP through
:func:`record`, as the affine coupling and the QR/LU linear layers do; the
primitives compose those nodes with the loss.

A :class:`Var` is a tape node.  Each primitive computes its value once and
hands it to :func:`record` with one VJP per input; ``record`` returns a node
only while this thread is recording and some input is a node, and the plain
value otherwise.  So the same model code evaluates plain arrays without a
tape (:func:`loss_value`, evaluation) and builds the tape under
:func:`evaluate_with_gradient`.  One gradient evaluation is
single-threaded.  The recording tape is per thread, so independent
evaluations may run concurrently in separate threads; they must not share a
model whose parameters another thread changes meanwhile.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

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
    """A loss or gradient evaluation produced NaN/Inf.

    ``op`` names the first primitive whose output went non-finite.
    """

    def __init__(self, message: str, op: str | None = None):
        super().__init__(message)
        self.op = op


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


def _val(x):
    return x.value if isinstance(x, Var) else x


def record(value, parents, op):
    """Return ``value``, as a new tape node when it depends on one.

    ``parents`` holds ``(input, vjp)`` pairs; ``vjp`` maps the gradient of
    the output to the gradient of that input, with the input's shape.  Pairs
    whose input is not a :class:`Var` are constants and are dropped.  Only
    when this thread is recording and some input is a node does the output
    become a node on the tape; otherwise ``value`` comes back as it is.
    Every primitive of this module ends here; a fused layer calls it
    directly with its own VJPs.
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


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    g = np.asarray(grad)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, n in enumerate(shape):
        if n == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- arithmetic -------------------------------------------------------------

def add(a, b):
    av, bv = _val(a), _val(b)
    return record(np.add(av, bv),
                  ((a, lambda g: _unbroadcast(g, np.shape(av))),
                   (b, lambda g: _unbroadcast(g, np.shape(bv)))), "add")


def sub(a, b):
    av, bv = _val(a), _val(b)
    return record(np.subtract(av, bv),
                  ((a, lambda g: _unbroadcast(g, np.shape(av))),
                   (b, lambda g: _unbroadcast(-g, np.shape(bv)))), "sub")


def mul(a, b):
    av, bv = _val(a), _val(b)
    return record(np.multiply(av, bv),
                  ((a, lambda g: _unbroadcast(g * bv, np.shape(av))),
                   (b, lambda g: _unbroadcast(g * av, np.shape(bv)))), "mul")


def square(a):
    av = _val(a)
    return record(np.square(av), ((a, lambda g: g * (2.0 * av)),), "square")


def vsum(a, axis=None):
    """Summation (optionally along one axis)."""
    av = _val(a)

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, np.shape(av)).copy()

    return record(np.sum(av, axis=axis), ((a, vjp),), "sum")


# -- structural ops ---------------------------------------------------------

def slice_1d(a, start, stop):
    """Contiguous slice of a 1-D array (parameter block extraction)."""
    av = _val(a)

    def vjp(g):
        out = np.zeros(av.shape[0])
        out[start:stop] = g
        return out

    return record(av[start:stop], ((a, vjp),), "slice_1d")


def gather_cols(x, idx):
    """Select columns ``idx`` of a 2-D array: an index array (also permutes,
    when idx is a permutation), a slice, or one index (a 1-D column).

    The indices must be distinct: the VJP writes each column's gradient
    by plain assignment instead of accumulating repeats.
    """
    if not isinstance(idx, slice):
        idx = np.asarray(idx)
    xv = _val(x)

    def vjp(g):
        out = np.zeros(xv.shape)
        out[:, idx] = g
        return out

    return record(xv[:, idx], ((x, vjp),), "gather_cols")


# -- parameters and gradient evaluation -------------------------------------

@dataclass(frozen=True)
class ParameterVector:
    """Flat parameter storage with named block ranges.

    ``registry`` maps block names to half-open ``(start, stop)`` index ranges;
    the ranges are disjoint and cover the whole vector.
    """

    values: np.ndarray
    registry: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError("parameter vector must be 1-D")
        spans = sorted(self.registry.values())
        covered = 0
        for start, stop in spans:
            if start != covered:
                raise ValueError("registry ranges must be disjoint and cover the vector")
            covered = stop
        if covered != v.size:
            raise ValueError("registry ranges must cover the full vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("parameter vector contains non-finite entries")

    def __len__(self):
        return self.values.size

    def block(self, name: str) -> np.ndarray:
        start, stop = self.registry[name]
        return self.values[start:stop]

    def with_values(self, values: np.ndarray) -> "ParameterVector":
        return ParameterVector(values, self.registry)


@dataclass(frozen=True)
class GradientRecord:
    """Loss value and its gradient with respect to the flat parameters."""

    value: float
    gradient: np.ndarray


def _first_nonfinite_op(tape) -> str | None:
    for node in tape:
        if not np.all(np.isfinite(node.value)):
            return node.op
    return None


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

    ``loss`` must be a scalar function built from the primitives of this
    module; it receives the parameters as a single 1-D :class:`Var`.
    """
    with _Recording() as tape:
        leaf = Var(np.array(theta.values, dtype=np.float64))
        out = loss(leaf)
        if not isinstance(out, Var):
            raise TypeError("loss must return a Var built from autodiff primitives")
        value = float(out.value)
        if not np.isfinite(value):
            op = _first_nonfinite_op(tape)
            raise NonFiniteLossError(
                f"loss evaluated to {value}" + (f" (first non-finite op: {op})" if op else ""),
                op=op,
            )
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
