import numpy as np
import pytest

from flowattack.attack import BoxConstraint, LossKind, PcfaConfig
from flowattack.core import FlowField, Perturbation, PerturbMode, ShapeError
from flowattack.diffflow import EstimatorConfig, FlowEstimator
from flowattack.evaluation import (AttackReport, TraceSummary,
                                   adversarial_robustness, attack_strength,
                                   masked_aee, patch_equivalent_epsilon,
                                   transfer_matrix)
from flowattack.synthetic import make_suite
from flowattack.universal import UniversalTrainConfig, train_universal


class TestStrengthAndRobustness:
    def test_identity_is_zero_exact(self):
        rng = np.random.default_rng(0)
        f = FlowField(rng.normal(size=(2, 4, 4)))
        assert attack_strength(f, f) == 0.0
        assert adversarial_robustness(f, f) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 5, 5))
        b = rng.normal(size=(2, 5, 5))
        assert attack_strength(a, b) == attack_strength(b, a)

    def test_definitional_ordering(self):
        target = np.zeros((2, 3, 3))
        closer = np.full((2, 3, 3), 0.1)
        farther = np.full((2, 3, 3), 1.0)
        assert attack_strength(closer, target) < attack_strength(farther, target)

    def test_no_smoothing_in_evaluation(self):
        # exactly |3,4| = 5 with no epsilon inflation anywhere
        a = np.zeros((2, 1, 1))
        a[0], a[1] = 3.0, 4.0
        assert attack_strength(a, np.zeros_like(a)) == 5.0

    def test_robustness_ignores_target(self):
        rng = np.random.default_rng(2)
        adv = rng.normal(size=(2, 4, 4))
        init = rng.normal(size=(2, 4, 4))
        # no target argument exists; value depends only on the two flows
        assert adversarial_robustness(adv, init) == attack_strength(adv, init)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            attack_strength(np.zeros((2, 2, 2)), np.zeros((2, 3, 2)))


class TestMaskedAee:
    def test_selects_only_valid_pixels(self):
        flow = np.zeros((2, 2, 2))
        ref = np.zeros((2, 2, 2))
        flow[0, 0, 0] = 7.0
        mask = np.array([[False, True], [True, True]])
        assert masked_aee(flow, ref, mask) == 0.0
        assert masked_aee(flow, ref, np.ones((2, 2), bool)) == pytest.approx(7 / 4)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            masked_aee(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
                       np.zeros((2, 2), bool))


class TestPatchEquivalentEpsilon:
    def test_reference_range(self):
        low = patch_equivalent_epsilon(8171, 465750, 0.03)
        high = patch_equivalent_epsilon(8171, 465750, 0.30)
        assert low * 100 == pytest.approx(0.40, abs=0.01)
        assert high * 100 == pytest.approx(3.97, abs=0.01)

    def test_full_frame_patch(self):
        assert patch_equivalent_epsilon(100, 100, 0.25) == 0.25

    def test_patch_larger_than_image_rejected(self):
        with pytest.raises(ValueError):
            patch_equivalent_epsilon(101, 100, 0.1)


class TestAttackReport:
    def make_report(self):
        return AttackReport(estimator="hs", eps2=5e-3, mu=5e5, loss="aee",
                            target="zero", box="cov", mode="disjoint",
                            strength=1.25, robustness=0.5, l2=0.169,
                            linf=0.012, steps=20, seed=7, runtime_ms=0.0,
                            initial_quality=None,
                            trace=TraceSummary(12, 2.0, 1.2))

    def test_roundtrip_identity(self):
        report = self.make_report()
        back = AttackReport.from_json_line(report.to_json_line())
        assert back == report

    def test_roundtrip_optimizer_spend(self):
        from dataclasses import replace
        report = replace(self.make_report(),
                         trace=TraceSummary(12, 2.0, 1.2, 41, 13, "line_search"))
        line = report.to_json_line()
        assert '"value_evals":41,"grad_evals":13,"stop_reason":"line_search"' in line
        assert AttackReport.from_json_line(line) == report

    def test_roundtrip_backtracks(self):
        from dataclasses import replace
        report = replace(self.make_report(), trace=TraceSummary(
            3, 2.0, 1.2, 9, 4, "line_search", [0, 3, 1]))
        line = report.to_json_line()
        assert '"stop_reason":"line_search","backtracks":[0,3,1]' in line
        back = AttackReport.from_json_line(line)
        assert back == report and back.trace.backtracks == (0, 3, 1)

    def test_reads_report_without_backtracks(self):
        import json
        record = json.loads(self.make_report().to_json_line())
        del record["trace"]["backtracks"]
        back = AttackReport.from_json_line(json.dumps(record))
        assert back.trace.backtracks == ()
        assert back == self.make_report()

    def test_reads_report_without_loss_init(self):
        import json
        from dataclasses import replace
        report = replace(self.make_report(),
                         trace=TraceSummary(12, 2.0, 1.2, loss_init=2.5))
        record = json.loads(report.to_json_line())
        assert record["trace"]["loss_init"] == 2.5
        del record["trace"]["loss_init"]
        back = AttackReport.from_json_line(json.dumps(record))
        assert back.trace.loss_init is None
        assert back == self.make_report()

    def test_loss_init_is_the_start_objective(self):
        from flowattack.optim import OptimTrace
        summary = TraceSummary.from_trace(
            OptimTrace(values=[1.5, 1.2], initial_value=2.5))
        assert (summary.loss_init, summary.loss_first, summary.loss_last) == \
            (2.5, 1.5, 1.2)
        # a trace that never evaluated its start reports none
        assert TraceSummary.from_trace(OptimTrace()).loss_init is None

    def test_equal_reports_serialize_identically(self):
        assert self.make_report().to_json_line() == self.make_report().to_json_line()

    def test_fixed_field_names_present(self):
        import json
        record = json.loads(self.make_report().to_json_line())
        for name in ("estimator", "eps2", "mu", "loss", "target", "box", "mode",
                     "strength", "robustness", "l2", "linf", "steps", "seed",
                     "runtime_ms"):
            assert name in record

    def test_key_order_is_fixed(self):
        import json
        from dataclasses import replace
        line = replace(self.make_report(), trace=TraceSummary(
            2, 2.0, 1.2, 3, 3, "max_steps", [1, 0], loss_init=2.5)).to_json_line()
        assert list(json.loads(line)) == [
            "estimator", "eps2", "mu", "loss", "target", "box", "mode",
            "strength", "robustness", "l2", "linf", "steps", "seed",
            "runtime_ms", "initial_quality", "trace"]
        assert line.endswith(
            '"trace":{"steps_taken":2,"loss_init":2.5,"loss_first":2.0,"loss_last":1.2,'
            '"value_evals":3,"grad_evals":3,"stop_reason":"max_steps",'
            '"backtracks":[1,0]}}')

    def test_strength_and_robustness_are_separate_fields(self):
        import json
        record = json.loads(self.make_report().to_json_line())
        assert record["strength"] != record["robustness"]
        assert not any("score" in key for key in record)


class TestTransferMatrix:
    def test_single_entry_equals_white_box_mean(self, fast_estimator):
        suite = make_suite(3, seed=30, height=24, width=24)
        data = [(a, b) for a, b, _ in suite]
        rng = np.random.default_rng(3)
        pert = Perturbation(PerturbMode.JOINT,
                            rng.normal(0, 5e-3, suite[0][0].data.shape))
        mat, valid = transfer_matrix([fast_estimator], [pert], data)
        assert mat.shape == (1, 1) and valid.all()

        from flowattack.universal import apply_universal
        vals = []
        for f1, f2, _ in suite:
            base = fast_estimator.estimate_flow(f1, f2)
            a1, a2 = apply_universal(pert, f1, f2)
            vals.append(adversarial_robustness(
                fast_estimator.estimate_flow(a1, a2), base))
        assert mat[0, 0] == pytest.approx(np.mean(vals), rel=1e-12)

    def test_zero_perturbations_give_zero_matrix(self, fast_estimator,
                                                 pyramid_estimator):
        suite = make_suite(2, seed=31, height=24, width=24)
        data = [(a, b) for a, b, _ in suite]
        zeros = [Perturbation.zeros(PerturbMode.JOINT, suite[0][0].data.shape)]
        mat, valid = transfer_matrix([fast_estimator, pyramid_estimator],
                                     zeros, data)
        assert valid.all()
        assert np.array_equal(mat, np.zeros((2, 1)))

    def test_grid_mismatch_marks_entry_invalid(self, fast_estimator):
        suite = make_suite(2, seed=32, height=24, width=24)
        data = [(a, b) for a, b, _ in suite]
        good = Perturbation.zeros(PerturbMode.JOINT, suite[0][0].data.shape)
        bad = Perturbation.zeros(PerturbMode.JOINT, (1, 8, 8))
        mat, valid = transfer_matrix([fast_estimator], [good, bad], data)
        assert valid[0, 0] and not valid[0, 1]
        assert np.isnan(mat[0, 1])

    def test_seeded_regression_two_estimators(self):
        """Trained-perturbation transfer values, frozen from a seeded run.

        The hurt-source-most pattern (off-diagonal <= diagonal per column)
        does not hold for this estimator pair: the warped pyramid is less
        robust under either perturbation, so only the measured values are
        asserted."""
        est_a = FlowEstimator(EstimatorConfig(alpha=0.05, iterations=25,
                                              pyramid_levels=1, warp=False),
                              label="single")
        est_b = FlowEstimator(EstimatorConfig(alpha=0.05, iterations=20,
                                              pyramid_levels=2, warp=True),
                              label="pyr")
        suite = make_suite(4, seed=77, height=32, width=32)
        data = [(a, b) for a, b, _ in suite]
        perts = []
        for est in (est_a, est_b):
            perts.append(train_universal(est, data, UniversalTrainConfig(
                attack=PcfaConfig(epsilon2=5e-3, steps=20, loss=LossKind.AEE,
                                  box=BoxConstraint.CLIPPING,
                                  mode=PerturbMode.JOINT, seed=3),
                epochs=3, batch_size=2, steps_per_batch=1)))
        mat, valid = transfer_matrix([est_a, est_b], perts, data)
        assert valid.all()
        expected = np.array([[0.00823439, 0.00443508],
                             [0.01027090, 0.01421199]])
        assert np.allclose(mat, expected, rtol=1e-4)
