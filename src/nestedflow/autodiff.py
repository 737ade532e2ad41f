"""Reverse-mode gradients of scalar losses over a flat parameter vector.

:func:`evaluate_with_gradient` hands the loss its parameters as a leaf
:class:`Var`; the loss returns its value as a :class:`Var` whose one
parent is that leaf, paired with the loss's vector-Jacobian product, and
the gradient is that VJP applied to 1.  The package's one loss,
:func:`nestedflow.nested_dropout.loss_terms`, computes in plain numpy and
returns its total this way when given a ``Var``; its VJP runs the flow's
explicit reverse sweep.  Given a plain array it returns the plain value,
which is how :func:`finite_difference_gradient` evaluates it.

The module holds no state, so evaluations in separate threads are
independent of each other; they must not share a model whose parameters
another thread changes meanwhile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Var",
    "NonFiniteLossError",
    "ParameterVector",
    "GradientRecord",
    "evaluate_with_gradient",
    "finite_difference_gradient",
]


class NonFiniteLossError(ArithmeticError):
    """A loss or gradient evaluation produced NaN/Inf."""


class Var:
    """A value and the ``(input, vjp)`` pairs it was computed from; ``vjp``
    maps the gradient of the value to the gradient of that input."""

    __slots__ = ("value", "parents")

    def __init__(self, value, parents=()):
        self.value = value
        self.parents = parents


# -- parameters and gradient evaluation -------------------------------------

@dataclass(frozen=True)
class ParameterVector:
    """Flat, finite parameter storage: 1-D, or (S, P) for a seed stack of S
    models with one row each."""

    values: np.ndarray
    stacked: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 + self.stacked:
            raise ValueError("parameter vector must be 1-D, or 2-D for a seed stack")
        if not np.isfinite(v).all():
            raise ValueError("parameter vector contains non-finite entries")

    def __len__(self):
        """Parameters per model."""
        return self.values.shape[-1]


@dataclass(frozen=True)
class GradientRecord:
    """Loss value and its gradient with respect to the flat parameters (one
    of each per seed of a stack)."""

    value: float | np.ndarray
    gradient: np.ndarray


def evaluate_with_gradient(loss, theta: ParameterVector) -> GradientRecord:
    """Evaluate ``loss`` at ``theta`` and return value plus exact gradient.

    ``loss`` receives the parameters as a leaf :class:`Var` and must return
    a ``Var`` whose one parent is that leaf.  For a seed stack of parameters
    the loss returns one value per seed, the record holds them all, and the
    VJP applied to 1 gives each seed's gradient in its row.
    """
    leaf = Var(np.array(theta.values, dtype=np.float64))
    out = loss(leaf)
    if not (isinstance(out, Var) and len(out.parents) == 1
            and out.parents[0][0] is leaf):
        raise TypeError("loss must return a Var whose one input is the parameters")
    value = out.value if np.ndim(out.value) else float(out.value)
    if not np.isfinite(value).all():
        raise NonFiniteLossError(f"loss evaluated to {value}")
    gradient = np.asarray(out.parents[0][1](np.float64(1.0)), dtype=np.float64)
    if not np.isfinite(gradient).all():
        bad = int(np.nonzero(~np.isfinite(gradient))[-1][0])
        raise NonFiniteLossError(f"gradient is non-finite at parameter index {bad}")
    return GradientRecord(value=value, gradient=gradient)


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
        up = float(loss(bumped))
        bumped[i] = base[i] - h
        down = float(loss(bumped))
        grad[i] = (up - down) / (2.0 * h)
    return grad
