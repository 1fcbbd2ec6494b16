import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowattack import io as flowio
from flowattack import universal
from flowattack.attack import (BoxConstraint, LossKind, PcfaConfig, Target,
                               TargetKind, pcfa_attack)
from flowattack.core import (FlowField, Image, Perturbation, PerturbMode,
                             ShapeError, joint_l2_norm, scale_bound)
from flowattack.diffflow import FlowEstimator
from flowattack.evaluation import transfer_matrix
from flowattack.optim import INITIAL_STEP, lbfgs_minimize
from flowattack.synthetic import make_pair, make_suite
from flowattack.universal import (DatasetManifest, UniversalTrainConfig,
                                  apply_universal, train_universal)


def joint_cfg(eps2=5e-3, steps=20):
    return PcfaConfig(epsilon2=eps2, steps=steps, loss=LossKind.AEE,
                      box=BoxConstraint.CLIPPING, mode=PerturbMode.JOINT)


class TestConfig:
    def test_cov_rejected(self):
        with pytest.raises(ValueError):
            UniversalTrainConfig(attack=PcfaConfig(epsilon2=1e-3,
                                                   box=BoxConstraint.COV))

    def test_positive_schedule(self):
        with pytest.raises(ValueError):
            UniversalTrainConfig(attack=joint_cfg(), epochs=0)


class TestApplyUniversal:
    def test_zero_perturbation_identity(self, small_pair):
        f1, f2, _ = small_pair
        from flowattack.core import Perturbation
        p = Perturbation.zeros(PerturbMode.JOINT, f1.data.shape)
        a1, a2 = apply_universal(p, f1, f2)
        assert np.array_equal(a1.data, f1.data)
        assert np.array_equal(a2.data, f2.data)

    def test_joint_equal_shift_where_unclipped(self, small_pair):
        f1, f2, _ = small_pair
        from flowattack.core import Perturbation
        rng = np.random.default_rng(0)
        d = rng.normal(0, 0.01, f1.data.shape)
        p = Perturbation(PerturbMode.JOINT, d)
        a1, a2 = apply_universal(p, f1, f2)
        raw1 = f1.data + d
        raw2 = f2.data + d
        free = ((raw1 > 0) & (raw1 < 1) & (raw2 > 0) & (raw2 < 1))
        assert np.allclose((a1.data - f1.data)[free], (a2.data - f2.data)[free],
                           atol=1e-15)

    def test_saturated_pixel_stays(self):
        ones = Image(np.ones((1, 4, 4)))
        from flowattack.core import Perturbation
        p = Perturbation(PerturbMode.JOINT, np.full((1, 4, 4), 0.3))
        a1, a2 = apply_universal(p, ones, ones)
        assert np.all(a1.data == 1.0)
        assert np.all(a2.data == 1.0)

    def test_size_mismatch_rejected(self, small_pair):
        f1, f2, _ = small_pair
        from flowattack.core import Perturbation
        p = Perturbation.zeros(PerturbMode.JOINT, (1, 8, 8))
        with pytest.raises(ShapeError):
            apply_universal(p, f1, f2)


class TestManifest:
    def test_file_parsing(self, tmp_path):
        img = np.full((1, 4, 4), 0.5)
        for name in ("a1.png", "a2.png", "b1.png", "b2.png"):
            flowio.write_image_png(tmp_path / name, img)
        flowio.write_flo(tmp_path / "gt.flo",
                         __import__("flowattack").FlowField(np.zeros((2, 4, 4))))
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("# comment line\n"
                            "a1.png a2.png\n"
                            "b1.png b2.png gt.flo\n")
        data = DatasetManifest.from_file(manifest)
        assert data.entries[0][2] is None
        assert data.entries[1][2] == str(tmp_path / "gt.flo")
        pairs = data.load_pairs()  # frames only: ground truth is not read
        assert [len(pair) for pair in pairs] == [2, 2]

    def test_unread_corrupt_ground_truth_keeps_its_pair(self, tmp_path):
        img = np.full((1, 4, 4), 0.5)
        for name in ("a1.png", "a2.png", "b1.png", "b2.png"):
            flowio.write_image_png(tmp_path / name, img)
        (tmp_path / "bad.flo").write_bytes(b"PIEH\x01\x00\x00")
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("a1.png a2.png bad.flo\nb1.png b2.png\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = DatasetManifest.from_file(manifest).load_pairs()
        assert len(pairs) == 2

    def test_unreadable_pair_skipped_with_warning(self, tmp_path):
        img = np.full((1, 4, 4), 0.5)
        flowio.write_image_png(tmp_path / "ok1.png", img)
        flowio.write_image_png(tmp_path / "ok2.png", img)
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("missing1.png missing2.png\nok1.png ok2.png\n")
        data = DatasetManifest.from_file(manifest)
        with pytest.warns(UserWarning):
            pairs = data.load_pairs()
        assert len(pairs) == 1

    def test_all_unreadable_is_error(self, tmp_path):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("gone1.png gone2.png\n")
        data = DatasetManifest.from_file(manifest)
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError):
                data.load_pairs()

    def test_size_mismatch_is_error(self, tmp_path, fast_estimator):
        """The manifest reads pairs of any size; training and the transfer
        matrix refuse pairs of two sizes."""
        flowio.write_image_png(tmp_path / "a1.png", np.full((1, 4, 4), 0.5))
        flowio.write_image_png(tmp_path / "a2.png", np.full((1, 4, 4), 0.5))
        flowio.write_image_png(tmp_path / "b1.png", np.full((1, 6, 6), 0.5))
        flowio.write_image_png(tmp_path / "b2.png", np.full((1, 6, 6), 0.5))
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("a1.png a2.png\nb1.png b2.png\n")
        pairs = DatasetManifest.from_file(manifest).load_pairs()
        message = r"frame shapes differ: \(1, 4, 4\) vs \(1, 6, 6\)"
        with pytest.raises(ShapeError, match=message):
            train_universal(fast_estimator, pairs,
                            UniversalTrainConfig(attack=joint_cfg(), epochs=1))
        with pytest.raises(ShapeError, match=message):
            transfer_matrix([fast_estimator], [Perturbation.zeros(
                PerturbMode.JOINT, (1, 4, 4))], pairs)

    def test_bad_line_rejected(self, tmp_path):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("only_one_path.png\n")
        with pytest.raises(ValueError):
            DatasetManifest.from_file(manifest)

    @pytest.mark.parametrize("blob", [b"a b c d\n", b"\xff\xfe a b\n"])
    def test_malformed_is_format_error(self, tmp_path, blob):
        path = tmp_path / "pairs.txt"
        path.write_bytes(blob)
        with pytest.raises(flowio.FormatError):
            DatasetManifest.from_file(path)


_TOKENS = st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]),
                  min_size=1, max_size=8).filter(
    lambda t: len(t.split()) == 1 and t == t.split()[0] and t[0] != "#")


class TestManifestFuzz:
    @settings(deadline=500)
    @given(st.lists(st.lists(_TOKENS, min_size=2, max_size=3), max_size=4),
           st.sampled_from(["\n", "\r\n"]))
    def test_roundtrip(self, tmp_path_factory, lines, newline):
        root = tmp_path_factory.mktemp("manifest")
        path = root / "pairs.txt"
        path.write_bytes("".join(" ".join(line) + newline
                                 for line in lines).encode("utf-8"))
        expected = [tuple(str(root / t) for t in line) + (None,) * (3 - len(line))
                    for line in lines]
        assert DatasetManifest.from_file(path).entries == expected

    @settings(deadline=500)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("manifest") / "pairs.txt"
        path.write_bytes(blob)
        try:
            manifest = DatasetManifest.from_file(path)
        except flowio.FormatError:
            return
        for entry in manifest.entries:
            assert len(entry) == 3
            assert all(isinstance(p, str) for p in entry[:2])


class TestTrainUniversal:
    def test_single_pair_matches_frame_specific(self, fast_estimator):
        """With one pair and the same total step budget, universal joint
        training optimizes the very same objective as the frame-specific
        joint attack, so it must arrive at the very same perturbation."""
        f1, f2, _ = make_pair(8, 48, 48)
        cfg = joint_cfg()
        specific = pcfa_attack(fast_estimator, f1, f2, cfg)

        data = [(f1, f2)]
        pert = train_universal(fast_estimator, data, UniversalTrainConfig(
            attack=cfg, epochs=1, batch_size=1, steps_per_batch=20))
        assert np.array_equal(pert.first, specific.perturbation.first)

    def test_no_pairs_is_error(self, fast_estimator):
        with pytest.raises(ValueError, match="no frame pairs"):
            train_universal(fast_estimator, [],
                            UniversalTrainConfig(attack=joint_cfg(), epochs=1))
        with pytest.raises(ValueError, match="no frame pairs"):
            transfer_matrix([fast_estimator], [Perturbation.zeros(
                PerturbMode.JOINT, (1, 4, 4))], [])

    def test_zero_budget_returns_zero_perturbation(self, fast_estimator):
        suite = make_suite(2, seed=5, height=24, width=24)
        data = [(a, b) for a, b, _ in suite]
        pert = train_universal(fast_estimator, data, UniversalTrainConfig(
            attack=joint_cfg(eps2=0.0), epochs=2, batch_size=2))
        assert joint_l2_norm(pert) <= 1e-6 * scale_bound(1.0, 24 * 24, 1)

    def test_norm_bound_holds(self, fast_estimator):
        suite = make_suite(3, seed=6, height=24, width=24)
        data = [(a, b) for a, b, _ in suite]
        pert = train_universal(fast_estimator, data, UniversalTrainConfig(
            attack=joint_cfg(eps2=5e-3), epochs=4, batch_size=2, seed=1))
        assert joint_l2_norm(pert) <= 1.01 * scale_bound(5e-3, 24 * 24, 1)

    def test_shuffle_determinism(self, fast_estimator):
        suite = make_suite(3, seed=7, height=24, width=24)
        data = [(a, b) for a, b, _ in suite]
        ucfg = UniversalTrainConfig(attack=joint_cfg(), epochs=3,
                                    batch_size=2, seed=9)
        p1 = train_universal(fast_estimator, data, ucfg)
        p2 = train_universal(fast_estimator, data, ucfg)
        assert np.array_equal(p1.first, p2.first)

    def test_seed_is_the_schedules(self, fast_estimator):
        """The seed is the schedule's, which shuffles; a single-pair
        attack reads none."""
        assert "seed" not in {f.name for f in dataclasses.fields(PcfaConfig)}
        suite = make_suite(3, seed=7, height=24, width=24)
        data = [(a, b) for a, b, _ in suite]
        p9, p10 = (train_universal(fast_estimator, data, UniversalTrainConfig(
            attack=joint_cfg(), epochs=2, batch_size=2, seed=seed))
            for seed in (9, 10))
        assert not np.array_equal(p9.first, p10.first)

    def test_disjoint_mode_produces_two_fields(self, fast_estimator):
        suite = make_suite(2, seed=8, height=24, width=24)
        data = [(a, b) for a, b, _ in suite]
        cfg = PcfaConfig(epsilon2=5e-3, steps=20, loss=LossKind.AEE,
                         box=BoxConstraint.CLIPPING, mode=PerturbMode.DISJOINT)
        pert = train_universal(fast_estimator, data, UniversalTrainConfig(
            attack=cfg, epochs=2, batch_size=2, seed=2))
        assert pert.mode == PerturbMode.DISJOINT
        assert pert.second is not None
        assert joint_l2_norm(pert) <= 1.01 * scale_bound(5e-3, 24 * 24, 1)

    @pytest.mark.parametrize("kind,calls", [("zero", 0), ("negative", 3),
                                            ("custom", 0)])
    def test_targets_resolved_once_up_front(self, fast_estimator, monkeypatch,
                                            kind, calls):
        """One prediction per pair, all before the first batch, whatever
        the number of epochs; only the negative target reads it."""
        events = []

        def logged(fn, event):
            def wrapped(*args):
                events.append(event)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(FlowEstimator, "estimate_flow",
                            logged(FlowEstimator.estimate_flow, "estimate"))
        monkeypatch.setattr(universal, "lbfgs_minimize",
                            logged(universal.lbfgs_minimize, "batch"))
        suite = make_suite(3, seed=7, height=24, width=24)
        data = [(a, b) for a, b, _ in suite]
        target = (Target.custom_flow(FlowField(np.ones((2, 24, 24))))
                  if kind == "custom" else Target(TargetKind(kind)))
        cfg = PcfaConfig(epsilon2=5e-3, loss=LossKind.MSE, target=target,
                         mode=PerturbMode.JOINT)
        train_universal(fast_estimator, data, UniversalTrainConfig(
            attack=cfg, epochs=3, batch_size=2))
        assert events == ["estimate"] * calls + ["batch"] * 6

    @pytest.mark.parametrize("steps", [1, 2])
    def test_each_batch_starts_its_line_search_fresh(self, fast_estimator,
                                                     monkeypatch, steps):
        """Each batch is a new objective, so its optimizer call starts the
        line search at INITIAL_STEP; the warm start acts only between the
        steps of one batch. At one step per batch it never acts."""
        searches = []

        def recording(objective, x0, params):
            points = []

            def spy(x, grad=True, ceiling=None):
                points.append(x.copy())
                return objective(x, grad)

            x, trace = lbfgs_minimize(spy, x0, params)
            searches.append((points, trace))
            return x, trace

        monkeypatch.setattr(universal, "lbfgs_minimize", recording)
        suite = make_suite(3, seed=7, height=24, width=24)
        data = [(a, b) for a, b, _ in suite]
        train_universal(fast_estimator, data, UniversalTrainConfig(
            attack=joint_cfg(), epochs=2, batch_size=2,
            steps_per_batch=steps, seed=9))
        assert len(searches) == 4
        for points, trace in searches:
            assert len(trace) == steps
            x0, first = points[0], points[1]
            accepted = points[trace.backtracks[0] + 1]
            t = trace.step_lengths[0]
            assert np.allclose((first - x0) * t, (accepted - x0) * INITIAL_STEP,
                               rtol=1e-12, atol=1e-18)
