import numpy as np
import pytest

from flowattack.optim import LbfgsParams, NumericError, lbfgs_minimize


def quadratic(center):
    def fun(x, grad=True):
        d = x - center
        return 0.5 * float(np.dot(d, d)), d
    return fun


def rosenbrock(x, grad=True):
    a, b = x
    val = (1 - a) ** 2 + 100 * (b - a * a) ** 2
    grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a),
                     200 * (b - a * a)])
    return val, grad


def test_quadratic_solved_in_first_step():
    center = np.array([1.0, -2.0, 3.0, 0.5])
    x0 = np.array([5.0, 5.0, -5.0, 2.0])
    x, trace = lbfgs_minimize(quadratic(center), x0, LbfgsParams(max_steps=3))
    assert np.linalg.norm(x - center) <= 1e-8
    assert len(trace) <= 3


def test_rosenbrock():
    x, trace = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]),
                              LbfgsParams(max_steps=100, grad_tol=1e-10))
    assert np.linalg.norm(x - np.array([1.0, 1.0])) <= 1e-5
    assert len(trace) <= 100


def test_stationary_start_returns_x0():
    x0 = np.array([2.0, -1.0])
    x, trace = lbfgs_minimize(quadratic(x0.copy()), x0, LbfgsParams())
    assert np.array_equal(x, x0)
    assert len(trace) == 0


def test_monotone_descent():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(6, 6))
    psd = mat @ mat.T + np.eye(6)
    rhs = rng.normal(size=6)

    def fun(x, grad=True):
        return 0.5 * float(x @ psd @ x) - float(rhs @ x), psd @ x - rhs

    _, trace = lbfgs_minimize(fun, rng.normal(size=6), LbfgsParams(max_steps=30))
    values = [trace.initial_value] + trace.values
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_nonsmooth_objective_descends():
    # kinked objective: |x| + quadratic; optimizer must not oscillate upward
    def fun(x, grad=True):
        return float(np.sum(np.abs(x))) + 0.5 * float(np.dot(x, x)), \
            np.sign(x) + x

    x, trace = lbfgs_minimize(fun, np.array([3.0, -2.0]),
                              LbfgsParams(max_steps=50))
    values = [trace.initial_value] + trace.values
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert float(np.max(np.abs(x))) < 1.0


def test_history_zero_matches_gradient_descent():
    rng = np.random.default_rng(4)
    mat = rng.normal(size=(4, 4))
    psd = mat @ mat.T + np.eye(4)

    def fun(x, grad=True):
        return 0.5 * float(x @ psd @ x), psd @ x

    x0 = rng.normal(size=4)
    got, _ = lbfgs_minimize(fun, x0, LbfgsParams(max_steps=5, history=0))

    # hand-rolled gradient descent with the same Armijo backtracking
    x = x0.copy()
    for _ in range(5):
        f, g = fun(x)
        if np.linalg.norm(g) == 0:
            break
        t = 1.0
        while True:
            xn = x - t * g
            fn, _ = fun(xn)
            if fn <= f - 1e-4 * t * float(np.dot(g, g)):
                break
            t *= 0.5
        x = xn
    assert np.allclose(got, x, rtol=0, atol=1e-12)


def test_nonfinite_raises_numeric_error():
    calls = {"n": 0}

    def fun(x, grad=True):
        calls["n"] += 1
        if calls["n"] > 2:
            return float("nan"), np.zeros_like(x)
        return float(np.sum(x ** 2)), 2 * x

    with pytest.raises(NumericError) as excinfo:
        lbfgs_minimize(fun, np.array([4.0]), LbfgsParams(max_steps=10))
    assert excinfo.value.trace is not None


def test_trials_are_value_only():
    calls = {True: 0, False: 0}

    def fun(x, grad=True):
        calls[grad] += 1
        val, g = rosenbrock(x)
        return val, g if grad else None

    _, trace = lbfgs_minimize(fun, np.array([-1.2, 1.0]),
                              LbfgsParams(max_steps=30))
    # the start and every accepted point pay for a gradient, trials do not
    assert trace.grad_evals == calls[True] == 1 + len(trace)
    assert trace.value_evals == calls[False] >= len(trace)
    assert trace.stop_reason == "max_steps"


def test_stop_reasons():
    x0 = np.array([2.0, -1.0])
    _, trace = lbfgs_minimize(quadratic(x0.copy()), x0, LbfgsParams())
    assert trace.stop_reason == "grad_tol"
    assert (trace.value_evals, trace.grad_evals) == (0, 1)

    def uphill(x, grad=True):
        # the reported gradient points uphill, so no trial decreases
        return float(np.dot(x, x)), -2 * x

    _, trace = lbfgs_minimize(uphill, np.array([1.0, 1.0]),
                              LbfgsParams(max_backtracks=5))
    assert trace.stop_reason == "line_search"
    assert len(trace) == 0
    assert (trace.value_evals, trace.grad_evals) == (5, 1)


def test_nonfinite_trial_value_raises_numeric_error():
    def fun(x, grad=True):
        if not grad:
            return float("nan"), None
        return float(np.sum(x ** 2)), 2 * x

    with pytest.raises(NumericError) as excinfo:
        lbfgs_minimize(fun, np.array([4.0]), LbfgsParams(max_steps=10))
    trace = excinfo.value.trace
    assert (trace.value_evals, trace.grad_evals) == (1, 1)


def test_nonfinite_gradient_at_accepted_point_raises():
    def fun(x, grad=True):
        g = 2 * x if abs(x[0]) == 4.0 else np.full_like(x, np.inf)
        return float(np.sum(x ** 2)), g

    with pytest.raises(NumericError) as excinfo:
        lbfgs_minimize(fun, np.array([4.0]), LbfgsParams(max_steps=10))
    assert excinfo.value.trace.grad_evals == 2


def test_param_validation():
    with pytest.raises(ValueError):
        LbfgsParams(max_steps=0)
    with pytest.raises(ValueError):
        LbfgsParams(contraction=1.0)
    with pytest.raises(ValueError):
        LbfgsParams(sufficient_decrease=0.0)
    with pytest.raises(ValueError):
        LbfgsParams(grad_tol=-1.0)


def _spent_as_counted(trace, params):
    """value_evals from the backtracks: each accepted step took its rejected
    trials plus one, and a failed line search took every trial."""
    failed = params.max_backtracks if trace.stop_reason == "line_search" else 0
    return sum(b + 1 for b in trace.backtracks) + failed


@pytest.mark.parametrize("fun, x0, params", [
    (rosenbrock, [-1.2, 1.0], LbfgsParams(max_steps=30)),
    (rosenbrock, [-1.2, 1.0], LbfgsParams(max_steps=30, history=0)),
    (quadratic(np.array([1.0, -2.0])), [5.0, 5.0], LbfgsParams()),
    (lambda x, grad=True: (float(np.dot(x, x)), -2 * x), [1.0, 1.0],
     LbfgsParams(max_backtracks=5)),
])
def test_backtracks_account_for_every_value_eval(fun, x0, params):
    _, trace = lbfgs_minimize(fun, np.array(x0), params)
    assert len(trace.backtracks) == len(trace)
    assert all(0 <= b < params.max_backtracks for b in trace.backtracks)
    assert trace.value_evals == _spent_as_counted(trace, params)


def test_backtracks_record_rejected_trials():
    # f(x) = |x|^2 from x = 4 along -grad: t = 1 overshoots to -4 (rejected),
    # t = 0.5 lands on the minimum
    _, trace = lbfgs_minimize(quadratic(np.zeros(1)), np.array([4.0]),
                              LbfgsParams(max_steps=1, history=0))
    assert trace.backtracks == [0]
    _, trace = lbfgs_minimize(lambda x, grad=True: (float(x @ x), 2 * x),
                              np.array([4.0]), LbfgsParams(max_steps=1, history=0))
    assert trace.backtracks == [1]
    assert trace.step_lengths == [0.5]
