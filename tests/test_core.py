import math

import numpy as np
import pytest

from flowattack.core import (FlowField, Image, Perturbation, PerturbMode,
                             ShapeError, clip01, joint_l2_norm, scale_bound)


class TestContainers:
    def test_image_validates_range(self):
        with pytest.raises(ValueError):
            Image(np.full((1, 2, 2), 1.5))
        with pytest.raises(ValueError):
            Image(np.full((1, 2, 2), -0.1))

    def test_image_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            Image(np.zeros((2, 2)))

    def test_image_rejects_nonfinite(self):
        bad = np.zeros((1, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Image(bad)

    def test_image_is_immutable(self):
        img = Image(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 1.0

    def test_frozen_owner_is_kept_and_caller_arrays_copied(self):
        """A read-only array that owns its memory, a payload frozen before,
        becomes the data uncopied; a writeable array or a read-only view
        is copied, so the caller's array keeps its flag and changing it
        changes no field."""
        fresh = np.zeros((2, 3, 4))
        fresh.flags.writeable = False
        assert np.shares_memory(FlowField(fresh).data, fresh)
        field = FlowField(np.ones((2, 3, 4)))
        assert np.shares_memory(FlowField(field.data).data, field.data)
        img = Image(np.zeros((1, 2, 2)))
        assert np.shares_memory(Image(img.data).data, img.data)
        mine = np.ones((2, 3, 4))
        kept = FlowField(mine)
        assert not np.shares_memory(kept.data, mine) and mine.flags.writeable
        mine[0, 0, 0] = 7.0
        assert kept.data[0, 0, 0] == 1.0
        base = np.ones((2, 3, 4))
        view = base.view()
        view.flags.writeable = False
        assert not np.shares_memory(FlowField(view).data, base)
        with pytest.raises(ValueError):
            kept.data[0, 0, 0] = 2.0

    def test_flow_shape_and_finiteness(self):
        with pytest.raises(ShapeError):
            FlowField(np.zeros((3, 2, 2)))
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            FlowField(bad)

    def test_joint_perturbation_stores_one_field(self):
        d = np.ones((1, 2, 2))
        p = Perturbation(PerturbMode.JOINT, d)
        f1, f2 = p.fields()
        assert f1 is f2
        with pytest.raises(ShapeError):
            Perturbation(PerturbMode.JOINT, d, d)

    def test_disjoint_needs_matching_fields(self):
        d = np.ones((1, 2, 2))
        with pytest.raises(ShapeError):
            Perturbation(PerturbMode.DISJOINT, d)
        with pytest.raises(ShapeError):
            Perturbation(PerturbMode.DISJOINT, d, np.ones((1, 2, 3)))

    @pytest.mark.parametrize("mode", list(PerturbMode))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_perturbation_rejects_nonfinite(self, mode, value):
        d = np.zeros((1, 2, 2))
        bad = d.copy()
        bad[0, 1, 0] = value
        fields = [bad] if mode == PerturbMode.JOINT else [d, bad]
        with pytest.raises(ValueError, match="non-finite"):
            Perturbation(mode, *fields)

    def test_perturbation_rejects_empty_field(self):
        with pytest.raises(ShapeError):
            Perturbation(PerturbMode.JOINT, np.zeros((1, 0, 2)))


class TestJointL2Norm:
    def test_zero_field(self):
        p = Perturbation.zeros(PerturbMode.DISJOINT, (1, 3, 3))
        assert joint_l2_norm(p) == 0.0

    def test_three_four_five(self):
        d1 = np.zeros((1, 1, 1))
        d2 = np.zeros((1, 1, 1))
        d1[0, 0, 0] = 3.0
        d2[0, 0, 0] = 4.0
        assert joint_l2_norm(Perturbation(PerturbMode.DISJOINT, d1, d2)) == 5.0

    def test_joint_counts_once_per_frame(self):
        d = np.zeros((1, 1, 1))
        d[0, 0, 0] = 1.0
        assert joint_l2_norm(Perturbation(PerturbMode.JOINT, d)) == math.sqrt(2.0)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            d1 = rng.normal(size=(2, 4, 5))
            d2 = rng.normal(size=(2, 4, 5))
            c = rng.normal()
            base = joint_l2_norm(Perturbation(PerturbMode.DISJOINT, d1, d2))
            scaled = joint_l2_norm(Perturbation(PerturbMode.DISJOINT, c * d1,
                                                c * d2))
            assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


class TestScaleBound:
    def test_direct_evaluation(self):
        assert scale_bound(0.01, 5000, 3) == pytest.approx(1.7320508, abs=1e-7)

    def test_zero(self):
        assert scale_bound(0.0, 10, 1) == 0.0

    def test_linear_in_eps(self):
        assert scale_bound(0.02, 5000, 3) == pytest.approx(
            2 * scale_bound(0.01, 5000, 3), rel=1e-14)

    def test_monotone_in_size(self):
        assert scale_bound(0.01, 5001, 3) > scale_bound(0.01, 5000, 3)
        assert scale_bound(0.01, 5000, 4) > scale_bound(0.01, 5000, 3)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            scale_bound(-0.1, 10, 1)
        with pytest.raises(ValueError):
            scale_bound(0.1, 0, 1)
        with pytest.raises(ValueError):
            scale_bound(math.nan, 10, 1)


class TestClip01:
    def test_clips_high_and_low(self):
        out = clip01(np.array([[[1.3, -0.2]]]))
        assert out.data[0, 0, 0] == 1.0
        assert out.data[0, 0, 1] == 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        field = rng.normal(0.5, 1.0, (2, 6, 6))
        once = clip01(field)
        twice = clip01(once.data)
        assert np.array_equal(once.data, twice.data)

    def test_valid_image_unchanged(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(0, 1, (1, 4, 4))
        assert np.array_equal(clip01(data).data, data)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            clip01(np.array([[[np.inf]]]))
