"""Limited-memory BFGS with a backtracking Armijo line search.

The objective is a callable objective(x, grad=True) -> (value, gradient)
over a flat float64 vector. With grad=False only the value is used, and
the objective may return (value, None) and skip its gradient work. The
line search asks for values only: an Armijo test compares objective
values and nothing else, so trial steps never pay for a gradient. The
starting point and each accepted point are evaluated with the gradient;
an accepted point is thus evaluated twice, once per kind of call.

Armijo-only backtracking is used on purpose: the attack objective
is nonsmooth at the budget boundary, and curvature conditions reject
useful steps near such kinks. Setting history to 0 degenerates into plain
gradient descent with the same line search, which serves as a cross-check
implementation in the tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LbfgsParams", "OptimTrace", "NumericError", "lbfgs_minimize"]


class NumericError(ArithmeticError):
    """Non-finite value or gradient; carries the trace accumulated so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class LbfgsParams:
    max_steps: int = 20
    history: int = 10
    initial_step: float = 1.0
    contraction: float = 0.5
    sufficient_decrease: float = 1e-4
    grad_tol: float = 0.0
    max_backtracks: int = 40

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.history < 0:
            raise ValueError("history must be >= 0")
        if not (0.0 < self.contraction < 1.0):
            raise ValueError("contraction must lie in (0, 1)")
        if not (0.0 < self.sufficient_decrease < 1.0):
            raise ValueError("sufficient_decrease must lie in (0, 1)")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be >= 0")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")


@dataclass
class OptimTrace:
    """Per accepted step: objective value, gradient norm, step length.

    value_evals counts value-only objective calls and grad_evals the calls
    that also computed the gradient. backtracks holds, per accepted step,
    the number of rejected trials before it. stop_reason is "max_steps",
    "grad_tol" or "line_search" (no backtracked step decreased enough).
    """

    values: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    step_lengths: list[float] = field(default_factory=list)
    initial_value: float = float("nan")
    value_evals: int = 0
    grad_evals: int = 0
    stop_reason: str = "max_steps"
    backtracks: list[int] = field(default_factory=list)

    def __len__(self):
        return len(self.values)


def _two_loop(g, pairs):
    """H*g via the standard two-loop recursion over (s, y, 1/s'y) pairs."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= a * y
    s_last, y_last, _ = pairs[-1]
    q *= float(np.dot(s_last, y_last)) / float(np.dot(y_last, y_last))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return q


def lbfgs_minimize(objective, x0, params: LbfgsParams | None = None):
    """Minimize `objective` from `x0`; returns (x, OptimTrace).

    Trial steps of the line search call objective(x, grad=False); the
    start and every accepted point call objective(x) for the gradient.
    The objective must return the same value from both kinds of call.

    Stops at max_steps, when the gradient norm falls to grad_tol, or when
    no backtracked step achieves sufficient decrease (a kink); the trace
    records which. Objective values along accepted steps are strictly
    non-increasing. Encountering a non-finite value (at any trial) or
    gradient (at the start or an accepted point) raises NumericError.
    """
    params = params or LbfgsParams()
    x = np.asarray(x0, dtype=np.float64).ravel().copy()
    trace = OptimTrace()

    def value(z):
        trace.value_evals += 1
        f, _ = objective(z, grad=False)
        if not np.isfinite(f):
            raise NumericError("non-finite objective", trace)
        return float(f)

    def evaluate(z):
        trace.grad_evals += 1
        f, g = objective(z)
        g = np.asarray(g, dtype=np.float64).ravel()
        if not np.isfinite(f) or not np.all(np.isfinite(g)):
            raise NumericError("non-finite objective or gradient", trace)
        return float(f), g

    f, g = evaluate(x)
    trace.initial_value = f
    pairs = deque(maxlen=params.history) if params.history > 0 else None

    for _ in range(params.max_steps):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= params.grad_tol:
            trace.stop_reason = "grad_tol"
            break
        if pairs:
            d = -_two_loop(g, pairs)
        else:
            d = -g
        slope = float(np.dot(g, d))
        if slope >= 0.0:  # curvature info unusable; fall back to steepest descent
            d = -g
            slope = -gnorm * gnorm
        t = params.initial_step
        accepted = False
        for rejected in range(params.max_backtracks):
            xn = x + t * d
            fn = value(xn)
            if fn <= f + params.sufficient_decrease * t * slope:
                accepted = True
                break
            t *= params.contraction
        if not accepted:
            trace.stop_reason = "line_search"
            break
        _, gn = evaluate(xn)
        s = xn - x
        y = gn - g
        if pairs is not None:
            sy = float(np.dot(s, y))
            if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
                pairs.append((s, y, 1.0 / sy))
            else:
                # the step gained no usable curvature (kink or indefinite
                # region); stale memory would freeze the step scale, so
                # restart the model from steepest descent
                pairs.clear()
        x, f, g = xn, fn, gn
        trace.values.append(f)
        trace.grad_norms.append(float(np.linalg.norm(g)))
        trace.step_lengths.append(t)
        trace.backtracks.append(rejected)

    return x, trace
