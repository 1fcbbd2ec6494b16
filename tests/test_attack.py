import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowattack.attack import (GROUP_PIXELS, BoxConstraint, IfgsmConfig,
                               LossKind, Parametrization, PcfaConfig,
                               PenalizedObjective, Target, TargetKind,
                               _loss_floor, _pair_groups, apply_cov,
                               cov_init, default_mu,
                               ifgsm_attack, loss_aee, loss_cs, loss_mse,
                               loss_with_grad, pcfa_attack, penalty_value_grad)
from flowattack.core import FlowField, PerturbMode, ShapeError, scale_bound
from flowattack.diffflow import EstimatorConfig, FlowEstimator, \
    builtin_estimators
from flowattack.evaluation import attack_strength
from flowattack.optim import LbfgsParams, NumericError, lbfgs_minimize
from flowattack.synthetic import make_pair


def single_pixel_flow(u, v):
    return np.array([[[u]], [[v]]], dtype=float)


class TestLossValues:
    def test_aee_three_four_five(self):
        assert loss_aee(single_pixel_flow(3, 4), single_pixel_flow(0, 0)) == 5.0

    def test_aee_identity_within_smoothing(self):
        f = single_pixel_flow(1.2, -0.7)
        assert loss_aee(f, f) <= 1e-9

    def test_aee_mean_of_unit_norms(self):
        f = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        assert loss_aee(f, np.zeros_like(f)) == 1.0

    def test_mse_values(self):
        assert loss_mse(single_pixel_flow(3, 4), single_pixel_flow(0, 0)) == 25.0
        f = single_pixel_flow(2, -1)
        assert loss_mse(f, f) == 0.0
        f2 = np.array([[[1.0, 3.0]], [[0.0, 4.0]]])
        assert loss_mse(f2, np.zeros_like(f2)) == 13.0

    def test_cs_parallel_antiparallel_orthogonal(self):
        f = np.array([[[1.0, 2.0]], [[0.5, -1.0]]])
        assert loss_cs(f, f) == pytest.approx(1.0, abs=1e-7)
        assert loss_cs(f, -f) == pytest.approx(-1.0, abs=1e-7)
        a = single_pixel_flow(1, 0)
        b = single_pixel_flow(0, 1)
        assert loss_cs(a, b) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_aee(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


class TestLossGradients:
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(10)
        flow = rng.normal(0, 1.0, (2, 5, 6))
        target = rng.normal(0, 1.0, (2, 5, 6))
        val, grad = loss_with_grad(kind, flow, target)
        h = 1e-6
        worst = 0.0
        for _ in range(40):
            c = int(rng.integers(2))
            i = int(rng.integers(5))
            j = int(rng.integers(6))
            fp = flow.copy()
            fp[c, i, j] += h
            fm = flow.copy()
            fm[c, i, j] -= h
            fd = (loss_with_grad(kind, fp, target)[0]
                  - loss_with_grad(kind, fm, target)[0]) / (2 * h)
            den = max(abs(fd), abs(grad[c, i, j]), 1e-9)
            worst = max(worst, abs(fd - grad[c, i, j]) / den)
        assert worst < 1e-6

    def test_cs_zero_target_is_degenerate(self):
        rng = np.random.default_rng(11)
        flow = rng.normal(0, 1.0, (2, 4, 4))
        val, grad = loss_with_grad(LossKind.CS, flow, np.zeros_like(flow))
        assert val == 0.0
        assert not grad.any()


class TestPenalty:
    def test_feasible_interior(self):
        d = np.full(8, 0.25)  # squared norm 0.5
        val, grad = penalty_value_grad(d, 1.0, 10.0)
        assert val == 0.0
        assert not grad.any()

    def test_violated(self):
        d = np.array([1.0, 1.0])  # squared norm 2
        val, grad = penalty_value_grad(d, 1.0, 10.0)
        assert val == 10.0
        assert np.array_equal(grad, 20.0 * d)

    def test_kink_uses_inactive_side(self):
        d = np.array([1.0])  # squared norm exactly eps_hat^2
        val, grad = penalty_value_grad(d, 1.0, 10.0)
        assert val == 0.0
        assert not grad.any()

    def test_mu_positive_required(self):
        with pytest.raises(ValueError):
            penalty_value_grad(np.ones(2), 1.0, 0.0)


class TestChangeOfVariables:
    def test_midpoint(self):
        img = np.full((1, 2, 2), 0.3)
        delta, perturbed = apply_cov(np.zeros((1, 2, 2)), img)
        assert np.all(perturbed == 0.5)
        assert np.allclose(delta, 0.2)

    def test_saturation_stays_open(self):
        img = np.zeros((1, 1, 1))
        _, hi = apply_cov(np.full((1, 1, 1), 30.0), img)
        _, lo = apply_cov(np.full((1, 1, 1), -30.0), img)
        assert 1.0 - 1e-12 <= hi[0, 0, 0] < 1.0
        assert 0.0 < lo[0, 0, 0] <= 1e-12

    def test_init_gives_zero_distortion(self):
        rng = np.random.default_rng(12)
        img = rng.uniform(0, 1, (2, 4, 4))
        img[0, 0, 0] = 0.0
        img[1, 0, 0] = 1.0
        delta, _ = apply_cov(cov_init(img), img)
        assert np.max(np.abs(delta)) <= 2e-6


class TestDefaultMu:
    @pytest.mark.parametrize("eps2,mu", [(5e-2, 5e4), (1e-2, 1e5), (5e-3, 5e5),
                                         (1e-3, 1e6), (5e-4, 5e6)])
    def test_tabulated_pairings(self, eps2, mu):
        assert default_mu(LossKind.AEE, TargetKind.ZERO, eps2) == pytest.approx(
            mu, rel=1e-9)

    def test_other_losses_anchor(self):
        assert default_mu(LossKind.MSE, TargetKind.ZERO, 5e-3) == pytest.approx(5e6)
        assert default_mu(LossKind.CS, TargetKind.ZERO, 5e-3) == pytest.approx(5e6)
        assert default_mu(LossKind.MSE, TargetKind.NEGATIVE, 5e-3) == pytest.approx(7e6)
        assert default_mu(LossKind.CS, TargetKind.NEGATIVE, 5e-3) == pytest.approx(7e6)

    def test_interpolation_monotone(self):
        grid = np.geomspace(2e-4, 8e-2, 25)
        mus = [default_mu(LossKind.AEE, TargetKind.ZERO, e) for e in grid]
        assert all(b < a for a, b in zip(mus, mus[1:]))

    def test_zero_budget_pins(self):
        assert default_mu(LossKind.AEE, TargetKind.ZERO, 0.0) >= 1e10

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_nan_budget_rejected(self, loss):
        with pytest.raises(ValueError):
            default_mu(loss, TargetKind.ZERO, math.nan)

    @pytest.mark.parametrize("loss,eps2", [
        (LossKind.AEE, 1e-300), (LossKind.AEE, 6e-134), (LossKind.MSE, 1e-305),
        (LossKind.CS, 1e-305), (LossKind.MSE, 5e-324)])
    def test_budget_without_finite_weight_rejected(self, loss, eps2):
        """Below these budgets the default weight overflows (aee's
        extrapolation) or is inf (mse, cs): a ValueError naming both, when
        the configuration is built; an explicit mu still runs."""
        for target in TargetKind:
            with pytest.raises(ValueError, match="eps2.*mu"):
                default_mu(loss, target, eps2)
        with pytest.raises(ValueError, match="eps2.*mu"):
            PcfaConfig(epsilon2=eps2, loss=loss)
        assert PcfaConfig(epsilon2=eps2, loss=loss, mu=1.0).budget(
            (1, 4, 4))[1] == 1.0

    @pytest.mark.parametrize("loss,eps2", [
        (LossKind.AEE, 7e-134), (LossKind.AEE, 1e300), (LossKind.MSE, 1e-303),
        (LossKind.CS, 1e300)])
    def test_extreme_budget_weight_finite(self, loss, eps2):
        assert 0 < default_mu(loss, TargetKind.ZERO, eps2) < math.inf


class TestConfig:
    def test_cov_joint_rejected(self):
        with pytest.raises(ValueError):
            PcfaConfig(epsilon2=1e-3, box=BoxConstraint.COV,
                       mode=PerturbMode.JOINT)

    @pytest.mark.parametrize("eps2,mu", [(math.nan, None), (math.inf, None),
                                         (1e-3, math.inf)])
    def test_budget_must_be_finite(self, eps2, mu):
        with pytest.raises(ValueError):
            PcfaConfig(epsilon2=eps2, mu=mu)

    def test_custom_target_needs_flow(self):
        with pytest.raises(ValueError):
            Target(TargetKind.CUSTOM)


class TestPcfaAttack:
    def test_zero_budget_pins_perturbation(self, fast_estimator, small_pair):
        f1, f2, _ = small_pair
        cfg = PcfaConfig(epsilon2=0.0, steps=8)
        result = pcfa_attack(fast_estimator, f1, f2, cfg)
        limit = 1e-6 * scale_bound(1.0, 32 * 32, 1)
        assert result.l2_norm <= limit
        assert attack_strength(result.flow_adv, result.flow_init) <= 1e-6

    def test_flow_erasing_beats_half_baseline(self, fast_estimator):
        f1, f2, _ = make_pair(3, 64, 64)
        cfg = PcfaConfig(epsilon2=5e-2, steps=20, loss=LossKind.AEE,
                         box=BoxConstraint.COV)
        result = pcfa_attack(fast_estimator, f1, f2, cfg)
        zero = np.zeros_like(result.flow_init.data)
        baseline = attack_strength(result.flow_init, zero)  # oracle first
        assert attack_strength(result.flow_adv, zero) < 0.5 * baseline

    def test_constraint_and_box_clipping(self, fast_estimator, small_pair):
        f1, f2, _ = small_pair
        cfg = PcfaConfig(epsilon2=5e-3, steps=15, loss=LossKind.AEE,
                         box=BoxConstraint.CLIPPING, mode=PerturbMode.JOINT)
        result = pcfa_attack(fast_estimator, f1, f2, cfg)
        assert result.l2_norm <= 1.01 * result.eps_hat
        assert result.box_min_seen >= 0.0
        assert result.box_max_seen <= 1.0

    def test_cov_box_strictly_inside(self, fast_estimator, small_pair):
        f1, f2, _ = small_pair
        cfg = PcfaConfig(epsilon2=5e-3, steps=15, box=BoxConstraint.COV)
        result = pcfa_attack(fast_estimator, f1, f2, cfg)
        assert result.box_min_seen > 0.0
        assert result.box_max_seen < 1.0
        assert result.l2_norm <= 1.01 * result.eps_hat

    def test_result_flow_matches_stored_frames(self, fast_estimator, small_pair):
        f1, f2, _ = small_pair
        cfg = PcfaConfig(epsilon2=5e-3, steps=6)
        result = pcfa_attack(fast_estimator, f1, f2, cfg)
        recomputed = fast_estimator.estimate_flow(result.frame1_adv,
                                                  result.frame2_adv)
        assert np.array_equal(recomputed.data, result.flow_adv.data)

    def test_negative_target_moves_toward_inverse(self, fast_estimator,
                                                  small_pair):
        f1, f2, _ = small_pair
        cfg = PcfaConfig(epsilon2=5e-2, steps=15, box=BoxConstraint.COV,
                         target=Target.negative_initial())
        result = pcfa_attack(fast_estimator, f1, f2, cfg)
        inverse = -result.flow_init.data
        assert (attack_strength(result.flow_adv, inverse)
                < attack_strength(result.flow_init, inverse))

    def test_objective_gradient_all_combos(self, fast_estimator):
        f1, f2, _ = make_pair(21, 16, 16)
        rng = np.random.default_rng(13)
        combos = [(BoxConstraint.CLIPPING, PerturbMode.DISJOINT),
                  (BoxConstraint.CLIPPING, PerturbMode.JOINT),
                  (BoxConstraint.COV, PerturbMode.DISJOINT)]

        def target_for(loss):
            return (Target.negative_initial() if loss == LossKind.CS
                    else Target.zero())

        objectives = []
        for loss in LossKind:
            for box, mode in combos:
                cfg = PcfaConfig(epsilon2=5e-3, loss=loss, box=box, mode=mode,
                                 target=target_for(loss))
                param = Parametrization(
                    box, mode, realized=mode == PerturbMode.DISJOINT)
                eps_hat, mu = cfg.budget(f1.data.shape)
                target = cfg.target.resolve(
                    fast_estimator.estimate_flow(f1, f2).data)
                fun = PenalizedObjective(fast_estimator, param,
                                         [(f1.data, f2.data, target)], loss,
                                         eps_hat, mu)
                objectives.append((fun, param.start(f1.data, f2.data)))
        # the universal objective: raw fields shared by a batch of two pairs,
        # with a bound small enough that the penalty is active
        batch = []
        for seed in (22, 23):
            a, b, _ = make_pair(seed, 16, 16)
            flow = fast_estimator.estimate_flow(a, b).data
            batch.append((a.data, b.data, flow))
        for loss in LossKind:
            pairs = [(a, b, target_for(loss).resolve(flow))
                     for a, b, flow in batch]
            for mode in PerturbMode:
                param = Parametrization(BoxConstraint.CLIPPING, mode,
                                        realized=False)
                fun = PenalizedObjective(fast_estimator, param, pairs, loss,
                                         eps_hat=1e-2, mu=1.0)
                objectives.append((fun, param.start(*pairs[0][:2])))
        for fun, x0 in objectives:
            x = x0 + rng.normal(0, 1e-3, x0.shape)
            _, grad = fun(x)
            direction = rng.normal(size=x.shape)
            direction /= np.linalg.norm(direction)
            h = 1e-6
            fp, _ = fun(x + h * direction)
            fm, _ = fun(x - h * direction)
            fd = (fp - fm) / (2 * h)
            assert float(direction @ grad) == pytest.approx(fd, rel=1e-4)


class CountingEstimator(FlowEstimator):
    """Counts its forward calls and the adjoint sweeps its VJP closures run."""

    def __init__(self, config):
        super().__init__(config, label="counting")
        self.forward_calls = 0
        self.vjp_calls = 0

    def value_and_vjp(self, frame1, frame2):
        self.forward_calls += 1
        flow, vjp = super().value_and_vjp(frame1, frame2)

        def counted(cotangent):
            self.vjp_calls += 1
            return vjp(cotangent)
        return flow, counted


class UphillEstimator(CountingEstimator):
    """Reports the negated input gradient, so every L-BFGS direction points
    uphill: the line search rejects each trial that reaches the solver and
    the attack stops at `line_search` without an accepted step."""

    def value_and_vjp(self, frame1, frame2):
        flow, vjp = super().value_and_vjp(frame1, frame2)
        return flow, lambda cotangent: tuple(-g for g in vjp(cotangent))


def value_only_cases(estimator):
    """(name, objective factory taking eps_hat, start point) for each
    penalty placement: cov and clipped disjoint fields penalized as
    realized, a clipped joint field and a two-pair disjoint batch
    penalized raw."""
    f1, f2, _ = make_pair(31, 16, 16)
    a, b, _ = make_pair(32, 16, 16)
    one = [(f1.data, f2.data, np.zeros((2, 16, 16)))]
    two = one + [(a.data, b.data, -estimator.estimate_flow(a, b).data)]
    cases = {"cov": (BoxConstraint.COV, PerturbMode.DISJOINT, True, one),
             "clip-disjoint": (BoxConstraint.CLIPPING, PerturbMode.DISJOINT,
                               True, one),
             "clip-joint": (BoxConstraint.CLIPPING, PerturbMode.JOINT,
                            False, one),
             "batch-raw": (BoxConstraint.CLIPPING, PerturbMode.DISJOINT,
                           False, two)}
    for name, (box, mode, realized, pairs) in cases.items():
        param = Parametrization(box, mode, realized)

        def make(eps_hat, param=param, pairs=pairs):
            return PenalizedObjective(estimator, param, pairs, LossKind.AEE,
                                      eps_hat=eps_hat, mu=10.0)
        yield name, make, param.start(*pairs[0][:2])


class TestValueOnlyObjective:
    @pytest.mark.parametrize("active", [True, False])
    def test_value_bitwise_equal_and_box_recorded(self, fast_estimator, active):
        rng = np.random.default_rng(17)
        for name, make, x0 in value_only_cases(fast_estimator):
            x = x0 + rng.normal(0, 1e-2, x0.shape)
            eps_hat = 1e-3 if active else 1e3
            full, lazy = make(eps_hat), make(eps_hat)
            value, grad = full(x)
            lazy_value, lazy_grad = lazy(x, grad=False)
            assert lazy_grad is None
            assert lazy_value == value, name
            assert (lazy.box_min, lazy.box_max) == (full.box_min, full.box_max)
            assert np.isfinite(lazy.box_min) and np.isfinite(lazy.box_max)
            # the penalty term is present exactly when active
            assert (make(1e3)(x, grad=False)[0] < value) == active, name

    def test_optimizer_iterates_unchanged(self, fast_estimator):
        for name, make, x0 in value_only_cases(fast_estimator):
            fun, always = make(1e-1), make(1e-1)
            params = LbfgsParams(max_steps=4)
            x, trace = lbfgs_minimize(fun, x0, params)
            x_ref, trace_ref = lbfgs_minimize(
                lambda z, grad=True, ceiling=None: always(z), x0, params)
            assert np.array_equal(x, x_ref), name
            assert np.array_equal(trace.values, trace_ref.values), name
            assert (fun.box_min, fun.box_max) == (always.box_min, always.box_max)
            assert trace.value_evals > 0

    def test_adjoint_runs_once_per_gradient_evaluation(self, fast_estimator):
        estimator = CountingEstimator(fast_estimator.config)
        for name, make, x0 in value_only_cases(estimator):
            fun = make(1e-1)
            calls_before = estimator.vjp_calls
            _, trace = lbfgs_minimize(fun, x0, LbfgsParams(max_steps=3))
            assert estimator.vjp_calls - calls_before == \
                trace.grad_evals * len(_pair_groups(fun.pairs)), name


class FixedFlowEstimator(FlowEstimator):
    """Predicts one given flow for every pair, so a test can put the loss
    anywhere in its range; value calls only."""

    def __init__(self, flow):
        super().__init__(EstimatorConfig(), label="fixed")
        self.flow = flow

    def value_and_vjp(self, frame1, frame2):
        lead = frame1.shape[:-3]
        return np.broadcast_to(self.flow, lead + self.flow.shape).copy(), None


# five 64x64 pairs run as two groups, four pairs and one
FLOOR_GRID = 64


@st.composite
def floor_cases(draw):
    """An objective over 1 or 5 pairs (one when the penalty is realized)
    whose predicted flow is `scale` times a random field and whose targets
    are that field scaled by +-[0.5, 2] (aligned or anti-aligned), a point
    x, and a ceiling placed below, at or between the floor and the exact
    value, or above both."""
    loss = draw(st.sampled_from(list(LossKind)))
    realized = draw(st.booleans())
    count = 1 if realized else draw(st.sampled_from([1, 5]))
    scale = 10.0 ** draw(st.integers(-3, 60))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    eps_hat = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    spot = draw(st.sampled_from(["below", "floor", "between", "value", "above"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    grid = (FLOOR_GRID, FLOOR_GRID)
    flow = scale * rng.normal(size=(2,) + grid)
    pairs = [(rng.uniform(size=(1,) + grid), rng.uniform(size=(1,) + grid),
              sign * rng.uniform(0.5, 2.0) * flow) for _ in range(count)]
    mode = PerturbMode.DISJOINT if realized else PerturbMode.JOINT
    param = Parametrization(BoxConstraint.CLIPPING, mode, realized)
    x = rng.normal(0.0, 0.1, param.start(*pairs[0][:2]).shape)

    def make():
        return PenalizedObjective(FixedFlowEstimator(flow), param, pairs, loss,
                                  eps_hat, mu=10.0)
    return make, x, spot


class TestPenaltyFloor:
    """A value call given a ceiling returns the exact value, or a value
    above the ceiling that is no larger than the exact value."""

    @settings(max_examples=80, deadline=None)
    @given(floor_cases())
    def test_ceiling_returns_exact_value_or_a_lower_bound_above_it(self, case):
        make, x, spot = case
        exact = make()(x, grad=False)[0]
        floor = make().floor(x)
        assert floor <= exact
        ceiling = {"below": floor - abs(floor) * 1e-3 - 1e-12, "floor": floor,
                   "between": 0.5 * (floor + exact), "value": exact,
                   "above": exact + abs(exact) + 1.0}[spot]
        got, grad = make()(x, grad=False, ceiling=ceiling)
        assert grad is None
        assert got == exact or ceiling < got <= exact

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 300), st.integers(0, 2 ** 16))
    def test_cs_floor_holds_for_anti_aligned_flows(self, npx, exponent, seed):
        # rounding takes such a mean a few ulps below -1
        rng = np.random.default_rng(seed)
        a = 10.0 ** (exponent - 150) * rng.normal(size=(2, 1, npx))
        b = -rng.uniform(0.5, 2.0) * a
        assert loss_cs(a, b) >= _loss_floor(LossKind.CS, npx)

    def test_floor_rejected_trial_runs_no_estimator(self, fast_estimator):
        estimator = CountingEstimator(fast_estimator.config)
        for name, make, x0 in value_only_cases(estimator):
            fun = make(1e-3)
            x = x0 + 0.5  # far outside the budget
            floor = fun.floor(x)
            assert floor > 0.0, name
            calls = estimator.forward_calls
            assert fun(x, grad=False, ceiling=0.5 * floor) == (floor, None), name
            assert estimator.forward_calls == calls, name
            # at the floor nothing is proved, so the estimator runs
            value, _ = fun(x, grad=False, ceiling=floor)
            assert value >= floor, name
            assert estimator.forward_calls == \
                calls + len(_pair_groups(fun.pairs)), name

    def test_line_search_skips_the_estimator_on_rejected_trials(
            self, fast_estimator):
        estimator = CountingEstimator(fast_estimator.config)
        skipped = 0
        for name, make, x0 in value_only_cases(estimator):
            fun = make(1e-1)
            calls = estimator.forward_calls
            _, trace = lbfgs_minimize(fun, x0, LbfgsParams(max_steps=4))
            solved = (estimator.forward_calls - calls) // len(_pair_groups(fun.pairs))
            assert solved <= trace.value_evals + trace.grad_evals, name
            skipped += trace.value_evals + trace.grad_evals - solved
        assert skipped > 0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_infinite_penalty_still_raises_numeric_error(self, fast_estimator):
        estimator = CountingEstimator(fast_estimator.config)
        f1, f2, _ = make_pair(31, 16, 16)
        param = Parametrization(BoxConstraint.CLIPPING, PerturbMode.JOINT, False)
        fun = PenalizedObjective(estimator, param,
                                 [(f1.data, f2.data, np.zeros((2, 16, 16)))],
                                 LossKind.AEE, eps_hat=1e-3, mu=1e160)
        x0 = np.full(f1.data.size, 1e-2)
        assert fun(np.full_like(x0, 1e160), grad=False, ceiling=0.0) == \
            (math.inf, None)
        assert estimator.forward_calls == 0
        with pytest.raises(NumericError) as excinfo:
            lbfgs_minimize(fun, x0, LbfgsParams(max_steps=3))
        assert (excinfo.value.trace.value_evals,
                excinfo.value.trace.grad_evals) == (1, 1)
        assert estimator.forward_calls == 1  # the start only


class TestPenaltyTerm:
    """The penalty is one term per call, computed once."""

    def test_realized_penalty_over_several_pairs_rejected(self):
        f1, f2, _ = make_pair(31, 16, 16)
        pair = (f1.data, f2.data, np.zeros((2, 16, 16)))
        param = Parametrization(BoxConstraint.CLIPPING, PerturbMode.DISJOINT,
                                realized=True)
        with pytest.raises(ValueError, match="realized penalty"):
            PenalizedObjective(FixedFlowEstimator(pair[2]), param,
                               [pair, pair], LossKind.AEE, eps_hat=1.0, mu=1.0)

    def test_raw_change_of_variables_rejected(self):
        with pytest.raises(ValueError, match="change of variables"):
            Parametrization(BoxConstraint.COV, PerturbMode.DISJOINT,
                            realized=False)

    @pytest.mark.parametrize("eps_hat", [1e-3, 1e3])
    def test_penalty_computed_once(self, fast_estimator, monkeypatch, eps_hat):
        import flowattack.attack as attack
        calls = []

        def spy(delta_hat, eps_hat, mu, grad=True):
            calls.append(grad)
            return penalty_value_grad(delta_hat, eps_hat, mu, grad)
        monkeypatch.setattr(attack, "penalty_value_grad", spy)
        rng = np.random.default_rng(5)
        for name, make, x0 in value_only_cases(fast_estimator):
            x = x0 + rng.normal(0, 1e-2, x0.shape)
            fun = make(eps_hat)
            value, _ = fun(x)
            floor = fun.floor(x)
            for ceiling in (value, floor - 1.0):  # solved, and floor-rejected
                calls.clear()
                assert fun(x, grad=False, ceiling=ceiling)[0] == \
                    (value if ceiling == value else floor), name
                assert calls == [False], name
            if fun.param.realized:  # a frame-specific gradient call
                calls.clear()
                assert fun(x)[0] == value
                assert calls == [True], name


def reference_objective(fun, x, grad=True):
    """The objective's original pair loop, one estimator call and one tape
    per pair, kept as the oracle: (value, gradient, box_min, box_max)."""
    param = fun.param
    total = 0.0
    box_min, box_max = math.inf, -math.inf
    gx = np.zeros_like(x)
    for i1, i2, target in fun.pairs:
        d1, d2, p1, p2 = param.apply(x, i1, i2)
        box_min = min(box_min, float(p1.min()), float(p2.min()))
        box_max = max(box_max, float(p1.max()), float(p2.max()))
        flow, vjp = fun.estimator.value_and_vjp(p1, p2)
        lval, gflow = loss_with_grad(fun.loss, flow, target)
        if param.realized:
            pval, g1, g2 = fun._penalty(d1, d2)
            lval += pval
        total += lval
        if grad:
            gp1, gp2 = vjp(gflow)
            if param.realized:
                gp1, gp2 = gp1 + g1, gp2 + g2
            gx += param.pullback(x, i1, i2, gp1, gp2)
        del vjp
    total /= len(fun.pairs)
    if not param.realized:
        pval, g1, g2 = fun._penalty(*param.fields(x, fun.pairs[0][0].shape))
        total += pval
    if not grad:
        return total, None, box_min, box_max
    gx /= len(fun.pairs)
    if not param.realized:
        gx += param.gather(g1, g2)
    return total, gx, box_min, box_max


def universal_cases(estimator):
    """(name, objective, start) for joint universal batches: 4 pairs of
    32x32 in one group, and 5 pairs of 64x64 in a group of 4 and one."""
    for name, count, size in (("4x32", 4, 32), ("5x64", 5, 64)):
        pairs = []
        for seed in range(60, 60 + count):
            a, b, _ = make_pair(seed, size, size, channels=3)
            pairs.append((a.data, b.data, -estimator.estimate_flow(a, b).data))
        param = Parametrization(BoxConstraint.CLIPPING, PerturbMode.JOINT,
                                realized=False)
        fun = PenalizedObjective(estimator, param, pairs, LossKind.AEE,
                                 eps_hat=1e-2, mu=10.0)
        yield name, fun, param.start(*pairs[0][:2])


class TestGroupedObjective:
    """Pairs go through the estimator in groups, one call per group; value,
    gradient and box extremes match the per-pair loop byte for byte."""

    def test_groups_are_consecutive_and_bounded(self):
        def pairs(*grids):
            return [(np.zeros((3, m, n)), None, k) for k, (m, n) in enumerate(grids)]
        fit = GROUP_PIXELS // (32 * 32)
        groups = _pair_groups(pairs(*[(32, 32)] * (fit + 1)))
        assert [len(g) for g in groups] == [fit, 1]
        big = (GROUP_PIXELS // 64 + 1, 64)
        groups = _pair_groups(pairs((32, 32), big, big, (32, 32), (32, 32)))
        assert [[p[2] for p in g] for g in groups] == [[0], [1], [2], [3, 4]]

    @pytest.mark.parametrize("active", [True, False])
    def test_value_only_cases_match_pair_loop(self, fast_estimator, active):
        rng = np.random.default_rng(27)
        for name, make, x0 in value_only_cases(fast_estimator):
            x = x0 + rng.normal(0, 1e-2, x0.shape)
            fun = make(1e-3 if active else 1e3)
            value, grad = fun(x)
            ref_value, ref_grad, *box = reference_objective(fun, x)
            assert value == ref_value, name
            assert grad.tobytes() == ref_grad.tobytes(), name
            assert [fun.box_min, fun.box_max] == box, name
            assert fun(x, grad=False)[0] == reference_objective(
                fun, x, grad=False)[0], name

    @pytest.mark.parametrize("label", ["hs", "hs-pyr"])
    def test_universal_batch_matches_pair_loop(self, label):
        estimator = builtin_estimators()[label]
        counting = CountingEstimator(estimator.config)
        rng = np.random.default_rng(28)
        for name, fun, x0 in universal_cases(estimator):
            x = x0 + rng.normal(0, 1e-2, x0.shape)
            value, grad = fun(x)
            ref_value, ref_grad, *box = reference_objective(fun, x)
            assert value == ref_value, name
            assert grad.tobytes() == ref_grad.tobytes(), name
            assert [fun.box_min, fun.box_max] == box, name
            fun.estimator = counting
            assert fun(x)[0] == value
            assert counting.vjp_calls == len(_pair_groups(fun.pairs)), name
            counting.vjp_calls = 0


class TestIfgsm:
    def test_linf_bound_exact(self, fast_estimator, small_pair):
        f1, f2, _ = small_pair
        result = ifgsm_attack(fast_estimator, f1, f2,
                              IfgsmConfig(eps_inf=5e-3, steps=10))
        assert result.linf_norm <= 5e-3 + 1e-15

    def test_zero_gradient_leaves_delta(self, fast_estimator):
        img = np.full((1, 8, 8), 0.5)
        result = ifgsm_attack(fast_estimator, img, img.copy(),
                              IfgsmConfig(eps_inf=1e-2, steps=4))
        assert result.l2_norm == 0.0

    def test_tracks_l2_and_reduces_loss(self, fast_estimator, small_pair):
        f1, f2, _ = small_pair
        result = ifgsm_attack(fast_estimator, f1, f2,
                              IfgsmConfig(eps_inf=5e-3, steps=10))
        zero = np.zeros_like(result.flow_init.data)
        assert result.l2_norm > 0.0
        assert (attack_strength(result.flow_adv, zero)
                < attack_strength(result.flow_init, zero))

    def test_trace_counts_gradient_steps(self, fast_estimator, small_pair):
        f1, f2, _ = small_pair
        trace = ifgsm_attack(fast_estimator, f1, f2,
                             IfgsmConfig(eps_inf=5e-3, steps=3)).trace
        assert (trace.value_evals, trace.grad_evals) == (0, 3)
        assert trace.stop_reason == "max_steps"

    def test_trace_records_no_backtracks(self, fast_estimator, small_pair):
        f1, f2, _ = small_pair
        trace = ifgsm_attack(fast_estimator, f1, f2,
                             IfgsmConfig(eps_inf=5e-3, steps=3)).trace
        assert trace.backtracks == []

    def test_step_validation(self):
        with pytest.raises(ValueError, match="steps"):
            IfgsmConfig(eps_inf=1e-3, steps=0)
        for eps_inf in (math.nan, math.inf, -1e-3):
            with pytest.raises(ValueError, match="eps_inf"):
                IfgsmConfig(eps_inf=eps_inf, steps=1)
        # an L-infinity budget takes no penalty weight, so one that has no
        # finite default mu is valid
        IfgsmConfig(eps_inf=1e-300, steps=1)


def frame_bytes(frame1, frame2) -> bytes:
    return b"".join(np.asarray(getattr(f, "data", f)).tobytes()
                    for f in (frame1, frame2))


@pytest.fixture
def forwards(monkeypatch):
    """Every estimator forward (each one is a `value_and_vjp` call or a
    tape-free `estimate_flow` one), recorded as the bytes of the frames it
    solves (`keys`, in order), and a weak reference to the VJP closure
    each `value_and_vjp` call returns (`vjps`)."""
    seen = SimpleNamespace(keys=[], vjps=[])
    value_and_vjp, estimate_flow = FlowEstimator.value_and_vjp, FlowEstimator.estimate_flow

    def solve(estimator, frame1, frame2):
        seen.keys.append(frame_bytes(frame1, frame2))
        flow, vjp = value_and_vjp(estimator, frame1, frame2)
        seen.vjps.append(weakref.ref(vjp))
        return flow, vjp

    def flow_only(estimator, frame1, frame2):
        seen.keys.append(frame_bytes(frame1, frame2))
        return estimate_flow(estimator, frame1, frame2)
    monkeypatch.setattr(FlowEstimator, "value_and_vjp", solve)
    monkeypatch.setattr(FlowEstimator, "estimate_flow", flow_only)
    return seen


class TestOneSolvePerFrameStack:
    """An attack solves each frame stack once in a row: the setup solve
    serves a start on the clean frames, the gradient call at an accepted
    point runs only the adjoint, and the final flow comes from the last
    solve when that solved the final frames."""

    @pytest.mark.parametrize("steps", [1, 3])
    def test_ifgsm_makes_steps_plus_one_forwards(self, fast_estimator,
                                                 small_pair, forwards, steps):
        f1, f2, _ = small_pair
        result = ifgsm_attack(fast_estimator, f1, f2,
                              IfgsmConfig(eps_inf=5e-3, steps=steps))
        assert len(forwards.keys) == steps + 1
        assert forwards.keys[0] == frame_bytes(f1, f2)  # step 0's too
        assert forwards.keys[-1] == frame_bytes(result.frame1_adv,
                                                result.frame2_adv)
        assert len(set(forwards.keys)) == steps + 1

    @pytest.mark.parametrize("box", list(BoxConstraint))
    def test_pcfa_solves_each_frame_stack_once(self, fast_estimator,
                                               small_pair, forwards, box):
        f1, f2, _ = small_pair
        cfg = PcfaConfig(epsilon2=5e-3, steps=6, box=box)
        result = pcfa_attack(fast_estimator, f1, f2, cfg)
        assert result.trace.stop_reason == "max_steps"
        assert result.trace.grad_evals == cfg.steps
        assert len(set(forwards.keys)) == len(forwards.keys)
        assert forwards.keys[0] == frame_bytes(f1, f2)
        # the last accepted trial solved the final frames
        assert forwards.keys[-1] == frame_bytes(result.frame1_adv,
                                                result.frame2_adv)

    @pytest.mark.parametrize("box", list(BoxConstraint))
    def test_line_search_stop_solves_flow_adv(self, fast_estimator,
                                              small_pair, forwards, box):
        f1, f2, _ = small_pair
        estimator = UphillEstimator(fast_estimator.config)
        result = pcfa_attack(estimator, f1, f2,
                             PcfaConfig(epsilon2=5e-3, steps=3, box=box))
        assert result.trace.stop_reason == "line_search"
        assert len(result.trace) == 0
        # rejected trials replaced the start's solve, so the start's frames
        # are solved once more for flow_adv, and no other stack twice
        final = frame_bytes(result.frame1_adv, result.frame2_adv)
        start = 0 if box == BoxConstraint.CLIPPING else 1
        assert forwards.keys[start] == forwards.keys[-1] == final
        assert len(set(forwards.keys)) == len(forwards.keys) - 1
        assert len(forwards.keys) > start + 2  # trials reached the solver
        recomputed = fast_estimator.estimate_flow(result.frame1_adv,
                                                  result.frame2_adv)
        assert result.flow_adv.data.tobytes() == recomputed.data.tobytes()

    @pytest.mark.parametrize("negative_zero", [False, True])
    @pytest.mark.parametrize("method", ["clipping", "cov", "ifgsm"])
    def test_flows_are_bytes_of_a_fresh_solve(self, fast_estimator,
                                              small_pair, forwards, method,
                                              negative_zero):
        f1, f2, _ = small_pair
        a, b = f1.data.copy(), f2.data.copy()
        if negative_zero:
            a[:, :5] = -0.0
            b[:, :, :3] = -0.0
        if method == "ifgsm":
            result = ifgsm_attack(fast_estimator, a, b,
                                  IfgsmConfig(eps_inf=5e-3, steps=2))
        else:
            result = pcfa_attack(fast_estimator, a, b, PcfaConfig(
                epsilon2=5e-3, steps=3, box=BoxConstraint(method)))
        if method == "clipping":
            # the start clip(i + 0) turns -0.0 into +0.0: only then a miss
            start = frame_bytes(np.clip(a + 0.0, 0.0, 1.0),
                                np.clip(b + 0.0, 0.0, 1.0))
            assert (forwards.keys[1] == start) == negative_zero
            assert (forwards.keys[0] == start) != negative_zero
        fresh = [fast_estimator.estimate_flow(a, b),
                 fast_estimator.estimate_flow(result.frame1_adv,
                                              result.frame2_adv)]
        assert result.flow_init.data.tobytes() == fresh[0].data.tobytes()
        assert result.flow_adv.data.tobytes() == fresh[1].data.tobytes()

    @pytest.mark.parametrize("method", ["clipping", "cov", "ifgsm"])
    def test_no_vjp_outlives_the_attack(self, fast_estimator, small_pair,
                                        forwards, method):
        f1, f2, _ = small_pair
        if method == "ifgsm":
            result = ifgsm_attack(fast_estimator, f1, f2,
                                  IfgsmConfig(eps_inf=5e-3, steps=2))
        else:
            result = pcfa_attack(fast_estimator, f1, f2, PcfaConfig(
                epsilon2=5e-3, steps=2, box=BoxConstraint(method)))
        # the result is alive, every VJP closure and its tape is not
        assert isinstance(result.flow_adv, FlowField)
        assert forwards.vjps and all(ref() is None for ref in forwards.vjps)


@pytest.fixture
def forward_counts(monkeypatch):
    """How often the estimator was asked for a solve (`value_and_vjp` or
    the tape-free `estimate_flow`) and how often it ran a forward pass
    (`FlowEstimator._forward`)."""
    counts = SimpleNamespace(solves=0, forwards=0)
    value_and_vjp, estimate_flow = FlowEstimator.value_and_vjp, FlowEstimator.estimate_flow
    forward = FlowEstimator._forward

    def solve(estimator, frame1, frame2):
        counts.solves += 1
        return value_and_vjp(estimator, frame1, frame2)

    def flow_only(estimator, frame1, frame2):
        counts.solves += 1
        return estimate_flow(estimator, frame1, frame2)

    def run_forward(estimator, frame1, frame2, tape):
        counts.forwards += 1
        return forward(estimator, frame1, frame2, tape)
    monkeypatch.setattr(FlowEstimator, "value_and_vjp", solve)
    monkeypatch.setattr(FlowEstimator, "estimate_flow", flow_only)
    monkeypatch.setattr(FlowEstimator, "_forward", run_forward)
    return counts


class TestNoHiddenResolve:
    """A VJP's first call consumes its tape and a repeat call solves again.
    No attack calls a VJP twice, so every forward pass is a solve it
    asked for."""

    @pytest.mark.parametrize("method", ["clipping", "cov", "ifgsm"])
    def test_single_pair(self, pyramid_estimator, small_pair, forward_counts,
                         method):
        f1, f2, _ = small_pair
        if method == "ifgsm":
            ifgsm_attack(pyramid_estimator, f1, f2, IfgsmConfig(5e-3, steps=3))
        else:
            pcfa_attack(pyramid_estimator, f1, f2, PcfaConfig(
                epsilon2=5e-3, steps=4, box=BoxConstraint(method)))
        assert forward_counts.forwards == forward_counts.solves > 3

    @pytest.mark.parametrize("size", [16, 128])  # groups of 4, single pairs
    def test_universal(self, pyramid_estimator, forward_counts, size):
        from flowattack.universal import UniversalTrainConfig, train_universal
        pairs = [make_pair(60 + k, size, size)[:2] for k in range(5)]
        train_universal(pyramid_estimator, pairs, UniversalTrainConfig(
            PcfaConfig(epsilon2=5e-3, target=Target.negative_initial()),
            epochs=1, batch_size=4, steps_per_batch=2))
        assert forward_counts.forwards == forward_counts.solves > 5


def traced_peak(fn):
    """Peak traced allocation, in bytes, while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPairSetup:
    """Both attacks validate the pair and resolve the target in one place
    and return that target with the result."""

    @staticmethod
    def attack(method, estimator, f1, f2, target):
        if method == "pcfa":
            return pcfa_attack(estimator, f1, f2,
                               PcfaConfig(epsilon2=5e-3, steps=2, target=target))
        return ifgsm_attack(estimator, f1, f2,
                            IfgsmConfig(eps_inf=5e-3, steps=2, target=target))

    @pytest.mark.parametrize("kind", ["zero", "negative", "custom"])
    @pytest.mark.parametrize("method", ["pcfa", "ifgsm"])
    def test_result_carries_the_resolved_target(self, fast_estimator,
                                                small_pair, method, kind):
        f1, f2, gt = small_pair
        target = {"zero": Target.zero(), "negative": Target.negative_initial(),
                  "custom": Target.custom_flow(gt)}[kind]
        result = self.attack(method, fast_estimator, f1, f2, target)
        assert np.array_equal(result.target.data,
                              target.resolve(result.flow_init.data))

    @pytest.mark.parametrize("mismatch", ["frames", "target"])
    @pytest.mark.parametrize("method", ["pcfa", "ifgsm"])
    def test_grid_mismatch(self, fast_estimator, small_pair, method, mismatch):
        f1, f2, _ = small_pair
        target = Target.zero()
        if mismatch == "frames":
            f2 = make_pair(5, 32, 24)[1]
        else:
            target = Target.custom_flow(FlowField(np.zeros((2, 5, 5))))
        with pytest.raises(ShapeError,
                           match="frame shapes differ|custom target does not"):
            self.attack(method, fast_estimator, f1, f2, target)

    def test_budget_is_scaled_bound_and_default_mu(self):
        cfg = PcfaConfig(epsilon2=5e-3, loss=LossKind.MSE,
                         target=Target.negative_initial())
        assert cfg.budget((3, 24, 32)) == (
            scale_bound(5e-3, 24 * 32, 3),
            default_mu(LossKind.MSE, TargetKind.NEGATIVE, 5e-3))
        assert PcfaConfig(epsilon2=5e-3, mu=7.0).budget((1, 8, 8))[1] == 7.0


def gradient_peak(estimator, frame1, frame2):
    """Traced peak of one forward pass plus one VJP call."""
    def one_gradient():
        flow, vjp = estimator.value_and_vjp(frame1, frame2)
        vjp(np.ones(flow.shape))
    return traced_peak(one_gradient)


class TestOneTapeAtATime:
    """An attack holds at most one tape: each VJP closure is dropped
    before the next forward pass builds its tape. The bound is a fifth
    above one forward pass plus one VJP call of the pairs one group
    holds; two live tapes exceed it by far (about 1.6x at this grid)."""

    @pytest.fixture(scope="class")
    def setting(self):
        estimator = builtin_estimators()["hs-pyr"]
        f1, f2, _ = make_pair(41, 64, 96, channels=3)
        return estimator, f1, f2, gradient_peak(estimator, f1, f2)

    def test_ifgsm(self, setting):
        estimator, f1, f2, one = setting
        peak = traced_peak(lambda: ifgsm_attack(estimator, f1, f2,
                                                IfgsmConfig(0.01, steps=3)))
        assert peak < 1.2 * one

    @staticmethod
    def two_pair_peak(estimator, f1, f2, height, width):
        a, b, _ = make_pair(42, height, width, channels=3)
        pairs = [(f1.data, f2.data, np.zeros((2, height, width))),
                 (a.data, b.data, np.zeros((2, height, width)))]
        param = Parametrization(BoxConstraint.CLIPPING, PerturbMode.DISJOINT,
                                realized=False)
        fun = PenalizedObjective(estimator, param, pairs, LossKind.AEE,
                                 eps_hat=1e-2, mu=10.0)
        x = param.start(*pairs[0][:2])
        return pairs, traced_peak(lambda: fun(x))

    def test_two_pair_objective(self, setting):
        """Both pairs fit one group: one batched tape, for both."""
        estimator, f1, f2, _ = setting
        pairs, peak = self.two_pair_peak(estimator, f1, f2, 64, 96)
        assert len(_pair_groups(pairs)) == 1
        group = gradient_peak(estimator, np.stack([p[0] for p in pairs]),
                              np.stack([p[1] for p in pairs]))
        assert peak < 1.2 * group

    def test_two_pairs_above_group_size(self):
        """Each pair is above GROUP_PIXELS, so each runs alone with its own
        tape, one at a time: the bound is one pair's."""
        estimator = builtin_estimators()["hs-pyr"]
        f1, f2, _ = make_pair(41, 128, 136, channels=3)
        pairs, peak = self.two_pair_peak(estimator, f1, f2, 128, 136)
        assert len(_pair_groups(pairs)) == 2
        assert peak < 1.2 * gradient_peak(estimator, f1, f2)

    @staticmethod
    def optimizer_peak(size, steps):
        """Traced peak of L-BFGS alone over `steps` steps on a quadratic in
        `size` variables: the iterates, gradients, directions and curvature
        pairs a PCFA run holds besides the tape, about a third of one
        gradient evaluation at this grid."""
        scale = np.linspace(1.0, 10.0, size)

        def quadratic(z, grad=True, ceiling=None):
            return float(z @ (scale * z)), 2.0 * scale * z if grad else None
        return traced_peak(lambda: lbfgs_minimize(
            quadratic, np.ones(size), LbfgsParams(max_steps=steps)))

    @pytest.mark.parametrize("uphill", [False, True])
    @pytest.mark.parametrize("box", list(BoxConstraint))
    def test_pcfa(self, setting, box, uphill):
        """The setup solve and each kept trial solve are dropped before the
        next forward. Uphill, every trial that reaches the solver is
        rejected, and the line_search stop solves the final frames once
        more for flow_adv. The bound adds the optimizer's own state to one
        gradient evaluation; a second live tape adds about 0.6 of one."""
        estimator, f1, f2, one = setting
        counting = (UphillEstimator if uphill else CountingEstimator)(
            estimator.config)
        cfg = PcfaConfig(epsilon2=5e-3, steps=3, box=box)
        results = []
        peak = traced_peak(lambda: results.append(
            pcfa_attack(counting, f1, f2, cfg)))
        trace = results[0].trace
        assert trace.stop_reason == ("line_search" if uphill else "max_steps")
        if uphill:  # the setup, the cov start, solved trials, flow_adv
            assert counting.forward_calls > 2 + (box == BoxConstraint.COV)
        state = self.optimizer_peak(2 * f1.data.size, cfg.steps)
        assert peak < 1.2 * (one + state)
