"""Limited-memory BFGS with a backtracking Armijo line search.

The objective is a callable objective(x, grad=True, ceiling=inf) ->
(value, gradient) over a flat float64 vector. With grad=False only the
value is used, and the objective may return (value, None) and skip its
gradient work. The line search asks for values only: an Armijo test
compares objective values and nothing else, so trial steps never pay for
a gradient. The starting point and each accepted point but the last one
max_steps permits are evaluated with the gradient; such an accepted
point is thus called twice, once per kind of call, with the same array.
An objective may keep the value call's work for the gradient call that
follows (the attack objective keeps its last solve and runs only the
adjoint). Nothing reads a gradient at the last permitted step, so none
is computed there.

A trial passes the Armijo test when its value is at most the bar
f + SUFFICIENT_DECREASE * t * slope, and the optimizer hands that bar to
the value call as `ceiling`. The contract: once an objective has proved
that its exact value exceeds `ceiling`, it may return any value above
`ceiling` instead (a lower bound it computed more cheaply, say), since
the trial is rejected either way. A non-finite return still raises
NumericError. An objective that ignores `ceiling` stays correct; it only
forgoes the saving.

Each search starts from the scale of the last accepted step, not from
scratch: on the attack objective accepted steps shrink to 1e-4..1e-11,
so a search that restarted at the unit step would spend most of its
trials rediscovering that scale (Nocedal & Wright, Numerical
Optimization, sec. 3.5). The first search of a call has no previous
step and starts at the unit step.

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

# Armijo backtracking: the first search of a call starts at INITIAL_STEP,
# every later one at min(INITIAL_STEP, t_prev / CONTRACTION**2) with t_prev
# the last accepted step, so a search may grow the step by two contractions.
# Each trial multiplies the step by CONTRACTION until the value falls by at
# least SUFFICIENT_DECREASE times the step's predicted decrease.
INITIAL_STEP = 1.0
CONTRACTION = 0.5
SUFFICIENT_DECREASE = 1e-4


class NumericError(ArithmeticError):
    """Non-finite value or gradient; carries the trace accumulated so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class LbfgsParams:
    max_steps: int = 20
    history: int = 10
    grad_tol: float = 0.0
    max_backtracks: int = 40

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.history < 0:
            raise ValueError("history must be >= 0")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be >= 0")


@dataclass
class OptimTrace:
    """Per accepted step: objective value and step length.

    value_evals counts value-only objective calls and grad_evals the calls
    that also computed the gradient. backtracks holds, per accepted step,
    the number of rejected trials before it. stop_reason is "max_steps",
    "grad_tol" or "line_search" (no backtracked step decreased enough).
    """

    values: list[float] = field(default_factory=list)
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

    Trial steps of the line search call objective(x, grad=False,
    ceiling=bar) with bar the trial's Armijo threshold; the start and
    every accepted point but the last permitted one call objective(x) for
    the gradient. The objective must return the same value from both
    kinds of call, except that a value call may return any value above
    `ceiling` once its exact value is known to exceed it.

    Each search after the first starts near the last accepted step (see
    INITIAL_STEP); nothing carries over between calls.

    Stops at max_steps, when the gradient norm falls to grad_tol, or when
    no backtracked step achieves sufficient decrease (a kink); the trace
    records which. Objective values along accepted steps are strictly
    non-increasing. Encountering a non-finite value (at any trial) or
    gradient (at the start or an accepted point) raises NumericError.
    """
    params = params or LbfgsParams()
    x = np.asarray(x0, dtype=np.float64).ravel().copy()
    trace = OptimTrace()

    def value(z, ceiling):
        trace.value_evals += 1
        f, _ = objective(z, grad=False, ceiling=ceiling)
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
    t_start = INITIAL_STEP

    for step in range(params.max_steps):
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
        t = t_start
        accepted = False
        for rejected in range(params.max_backtracks):
            xn = x + t * d
            bar = f + SUFFICIENT_DECREASE * t * slope
            fn = value(xn, bar)
            if fn <= bar:
                accepted = True
                break
            t *= CONTRACTION
        if not accepted:
            trace.stop_reason = "line_search"
            break
        trace.values.append(fn)
        trace.step_lengths.append(t)
        trace.backtracks.append(rejected)
        if step + 1 == params.max_steps:  # no search reads a gradient here
            x = xn
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
        t_start = min(INITIAL_STEP, t / CONTRACTION ** 2)

    return x, trace
