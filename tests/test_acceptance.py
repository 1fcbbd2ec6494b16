"""Acceptance gate: every release-blocking property at its stated
tolerance, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from flowattack.attack import (BoxConstraint, IfgsmConfig, LossKind,
                               Parametrization, PcfaConfig,
                               PenalizedObjective, Target, TargetKind,
                               ifgsm_attack, loss_aee, loss_cs, loss_mse,
                               loss_with_grad, pcfa_attack,
                               penalty_value_grad)
from flowattack.cli import main as cli_main
from flowattack.core import (FlowField, PerturbMode, joint_l2_norm,
                             scale_bound)
from flowattack.diffflow import builtin_estimators, finite_diff_check
from flowattack.evaluation import (attack_strength, patch_equivalent_epsilon)
from flowattack.io import (flow_to_color, read_flo, read_kitti_flow,
                           write_flo, write_image_png, write_kitti_flow)
from flowattack.optim import LbfgsParams, lbfgs_minimize
from flowattack.synthetic import make_pair, make_suite
from flowattack.universal import (UniversalTrainConfig, apply_universal,
                                  train_universal)

pytestmark = pytest.mark.slow

SWEEP_BUDGETS = (5e-4, 5e-3, 5e-2)


def report(number, passed, text):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {text}")
    assert passed, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def hs():
    return builtin_estimators()["hs"]


@pytest.fixture(scope="module")
def suite():
    return make_suite(10, seed=2024, height=64, width=64)


@pytest.fixture(scope="module")
def sweep(hs, suite):
    """Zero-target attacks over the budget grid (strongest configuration:
    endpoint loss with the change of variables), reused by criteria 3-5."""
    t0 = time.perf_counter()
    runs = {}
    for eps2 in SWEEP_BUDGETS:
        cfg = PcfaConfig(epsilon2=eps2, steps=20, loss=LossKind.AEE,
                         box=BoxConstraint.COV, mode=PerturbMode.DISJOINT)
        runs[eps2] = [pcfa_attack(hs, f1, f2, cfg) for f1, f2, _ in suite]
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_criterion_1_gradient_oracle(hs):
    t0 = time.perf_counter()
    estimators = builtin_estimators()
    worst = 0.0
    rng = np.random.default_rng(1)
    pair_seeds = [int(rng.integers(1 << 30)) for _ in range(5)]

    # estimator x loss through the dedicated checker
    for est in estimators.values():
        for loss in LossKind:
            target = rng.normal(0, 1.0, (2, 16, 16))
            for k, seed in enumerate(pair_seeds):
                f1, f2, _ = make_pair(seed, 16, 16)
                err = finite_diff_check(
                    est, f1, f2,
                    lambda fl, t=target, lk=loss: loss_with_grad(lk, fl, t),
                    h=1e-5, seed=k)
                worst = max(worst, err)

    # estimator x loss x box through the full attack objective; the cosine
    # loss is checked against a generic target, since at zero or inverted
    # targets the start lies exactly on its degenerate (zero-gradient) locus
    cs_target = Target.custom_flow(FlowField(rng.normal(0, 1.0, (2, 16, 16))))
    for est in estimators.values():
        for loss in LossKind:
            for box, mode in ((BoxConstraint.CLIPPING, PerturbMode.DISJOINT),
                              (BoxConstraint.COV, PerturbMode.DISJOINT)):
                for seed in pair_seeds:
                    f1, f2, _ = make_pair(seed, 16, 16)
                    tgt = cs_target if loss == LossKind.CS else Target.zero()
                    cfg = PcfaConfig(epsilon2=5e-3, loss=loss, box=box,
                                     mode=mode, target=tgt)
                    param = Parametrization(box, mode, realized=True)
                    eps_hat, mu = cfg.budget(f1.data.shape)
                    resolved = tgt.resolve(est.estimate_flow(f1, f2).data)
                    fun = PenalizedObjective(est, param,
                                             [(f1.data, f2.data, resolved)],
                                             loss, eps_hat, mu)
                    x0 = param.start(f1.data, f2.data)
                    x = x0 + np.random.default_rng(seed).normal(
                        0, 1e-3, x0.shape)
                    _, grad = fun(x)
                    gmax = max(float(np.max(np.abs(grad))), 1e-12)
                    coords = np.random.default_rng(seed + 1).integers(
                        0, x.size, 12)
                    h = 1e-5
                    for c in coords:
                        xp = x.copy()
                        xp[c] += h
                        xm = x.copy()
                        xm[c] -= h
                        fd = (fun(xp)[0] - fun(xm)[0]) / (2 * h)
                        den = max(abs(fd), abs(grad[c]), 1e-3 * gmax)
                        worst = max(worst, abs(fd - grad[c]) / den)

    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-4 and elapsed < 60.0,
           f"gradient oracle: max rel err {worst:.2e} < 1e-4 over estimators x "
           f"losses x boxes, 5 pairs each, in {elapsed:.1f}s (< 60s)")


def test_criterion_2_constraint_exactness():
    from flowattack.diffflow import EstimatorConfig, FlowEstimator
    est = FlowEstimator(EstimatorConfig(alpha=0.05, iterations=40,
                                        pyramid_levels=1, warp=False))
    rng = np.random.default_rng(7)
    combos = []
    for box in (BoxConstraint.CLIPPING, BoxConstraint.COV):
        modes = ((PerturbMode.DISJOINT, PerturbMode.JOINT)
                 if box == BoxConstraint.CLIPPING else (PerturbMode.DISJOINT,))
        for mode in modes:
            for loss in LossKind:
                for tgt in (Target.zero(), Target.negative_initial()):
                    combos.append((box, mode, loss, tgt))
    failures = []
    n_runs = 50
    for k in range(n_runs):
        box, mode, loss, tgt = combos[k % len(combos)]
        eps2 = float(rng.choice(SWEEP_BUDGETS))
        f1, f2, _ = make_pair(int(rng.integers(1 << 30)), 24, 24)
        cfg = PcfaConfig(epsilon2=eps2, steps=10, loss=loss, target=tgt,
                         box=box, mode=mode, seed=k)
        result = pcfa_attack(est, f1, f2, cfg)
        if result.l2_norm > 1.01 * result.eps_hat:
            failures.append((k, "norm", result.l2_norm, result.eps_hat))
        if box == BoxConstraint.COV:
            if not (result.box_min_seen > 0.0 and result.box_max_seen < 1.0):
                failures.append((k, "cov box", result.box_min_seen,
                                 result.box_max_seen))
        else:
            if not (result.box_min_seen >= 0.0 and result.box_max_seen <= 1.0):
                failures.append((k, "clip box", result.box_min_seen,
                                 result.box_max_seen))
    report(2, not failures,
           f"constraint exactness: {n_runs} seeded runs with default "
           f"penalty pairings, all norms <= 1.01 * scaled bound and box "
           f"constraints exact on every iterate ({len(failures)} failures)")


def test_criterion_3_budget_sweep_and_baseline(hs, suite, sweep):
    t0 = time.perf_counter()
    zero = np.zeros((2, 64, 64))
    means = {eps2: float(np.mean([attack_strength(r.flow_adv, zero)
                                  for r in sweep["runs"][eps2]]))
             for eps2 in SWEEP_BUDGETS}
    decreasing = (means[5e-4] > means[5e-3] > means[5e-2])

    wins = 0
    denom = scale_bound(1.0, 64 * 64, 1)
    for f1, f2, _ in suite:
        base = ifgsm_attack(hs, f1, f2, IfgsmConfig(
            eps_inf=5e-3, steps=10, loss=LossKind.AEE, target=Target.zero()))
        matched_eps2 = base.l2_norm / denom
        cfg = PcfaConfig(epsilon2=matched_eps2, steps=20, loss=LossKind.AEE,
                         box=BoxConstraint.CLIPPING, mode=PerturbMode.DISJOINT)
        ours = pcfa_attack(hs, f1, f2, cfg)
        if attack_strength(ours.flow_adv, zero) <= attack_strength(
                base.flow_adv, zero):
            wins += 1
    elapsed = sweep["elapsed"] + (time.perf_counter() - t0)
    report(3, decreasing and wins >= 8 and elapsed < 300.0,
           f"budget sweep strictly decreasing "
           f"({means[5e-4]:.3f} > {means[5e-3]:.3f} > {means[5e-2]:.3f}) and "
           f"constrained attack beats signed-gradient baseline at matched L2 "
           f"on {wins}/10 pairs, in {elapsed:.0f}s (< 300s)")


def test_criterion_4_flow_erasure(suite, sweep):
    zero = np.zeros((2, 64, 64))
    attacked = float(np.mean([attack_strength(r.flow_adv, zero)
                              for r in sweep["runs"][5e-2]]))
    unattacked = float(np.mean([attack_strength(r.flow_init, zero)
                                for r in sweep["runs"][5e-2]]))
    report(4, attacked < 0.25 * unattacked,
           f"erasure at the 5e-2 budget: attacked target distance "
           f"{attacked:.4f} < 25% of unattacked {unattacked:.4f}")


def test_criterion_5_universal_ordering(hs, suite):
    zero = np.zeros((2, 64, 64))
    cfg = PcfaConfig(epsilon2=5e-3, steps=20, loss=LossKind.AEE,
                     box=BoxConstraint.CLIPPING, mode=PerturbMode.DISJOINT)
    specific = [pcfa_attack(hs, f1, f2, cfg) for f1, f2, _ in suite]
    mean_specific = float(np.mean([attack_strength(r.flow_adv, zero)
                                   for r in specific]))

    data = [(f1, f2) for f1, f2, _ in suite]
    joint_cfg = PcfaConfig(epsilon2=5e-3, steps=20, loss=LossKind.AEE,
                           box=BoxConstraint.CLIPPING, mode=PerturbMode.JOINT,
                           seed=12)
    pert = train_universal(hs, data, UniversalTrainConfig(
        attack=joint_cfg, epochs=25, batch_size=4, steps_per_batch=1))
    vals = []
    for f1, f2, _ in suite:
        a1, a2 = apply_universal(pert, f1, f2)
        vals.append(attack_strength(hs.estimate_flow(a1, a2).data, zero))
    mean_universal = float(np.mean(vals))
    bound_ok = joint_l2_norm(pert) <= 1.01 * scale_bound(5e-3, 64 * 64, 1)
    report(5, mean_specific < mean_universal and bound_ok,
           f"frame-specific mean strength {mean_specific:.4f} < universal "
           f"{mean_universal:.4f} at the same budget, universal norm within "
           f"bound")


def test_criterion_6_patch_budget_formula():
    low = patch_equivalent_epsilon(8171, 465750, 0.03)
    high = patch_equivalent_epsilon(8171, 465750, 0.30)
    ok = (abs(low * 100 - 0.40) <= 0.01) and (abs(high * 100 - 3.97) <= 0.01)
    report(6, ok, f"patch-equivalent budget reproduces the reference range: "
                  f"{low * 100:.3f}% and {high * 100:.3f}% vs 0.40%/3.97% "
                  f"(+/- 0.01pp)")


def test_criterion_7_metric_and_optimizer_oracles():
    checks = []
    pix = lambda u, v: np.array([[[u]], [[v]]], dtype=float)

    checks.append(loss_aee(pix(3, 4), pix(0, 0)) == 5.0)
    f = pix(1.2, -0.7)
    checks.append(loss_aee(f, f) <= 1e-9)
    two = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    checks.append(loss_aee(two, np.zeros_like(two)) == 1.0)
    checks.append(loss_mse(pix(3, 4), pix(0, 0)) == 25.0)
    checks.append(loss_mse(f, f) == 0.0)
    two2 = np.array([[[1.0, 3.0]], [[0.0, 4.0]]])
    checks.append(loss_mse(two2, np.zeros_like(two2)) == 13.0)
    g = np.array([[[1.0, 2.0]], [[0.5, -1.0]]])
    checks.append(abs(loss_cs(g, g) - 1.0) <= 1e-7)
    checks.append(abs(loss_cs(g, -g) + 1.0) <= 1e-7)
    checks.append(loss_cs(pix(1, 0), pix(0, 1)) == 0.0)

    val, grad = penalty_value_grad(np.array([1.0, 1.0]), 1.0, 10.0)
    checks.append(val == 10.0 and np.array_equal(grad, [20.0, 20.0]))
    val, grad = penalty_value_grad(np.array([0.5]), 1.0, 10.0)
    checks.append(val == 0.0 and not grad.any())

    checks.append(attack_strength(pix(3, 4), pix(0, 0)) == 5.0)
    checks.append(attack_strength(g, g) == 0.0)
    checks.append(patch_equivalent_epsilon(64, 64, 0.25) == 0.25)

    center = np.array([2.0, -3.0, 1.0])
    x, trace = lbfgs_minimize(
        lambda z, grad=True, ceiling=None: (
            0.5 * float(np.dot(z - center, z - center)), z - center),
        np.zeros(3), LbfgsParams(max_steps=3))
    checks.append(np.linalg.norm(x - center) <= 1e-8 and len(trace) <= 3)

    def rosen(z, grad=True, ceiling=None):
        a, b = z
        return ((1 - a) ** 2 + 100 * (b - a * a) ** 2,
                np.array([-2 * (1 - a) - 400 * a * (b - a * a),
                          200 * (b - a * a)]))

    x, trace = lbfgs_minimize(rosen, np.array([-1.2, 1.0]),
                              LbfgsParams(max_steps=100, grad_tol=1e-12))
    checks.append(np.linalg.norm(x - 1.0) <= 1e-5 and len(trace) <= 100)

    report(7, all(checks),
           f"metric/loss/optimizer oracles: {sum(checks)}/{len(checks)} exact "
           f"checks hold")


def test_criterion_8_format_fidelity(tmp_path):
    rng = np.random.default_rng(13)
    ok = True
    for k in range(100):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        flow32 = rng.normal(0, 20, (2, m, n)).astype(np.float32).astype(
            np.float64)
        p1 = tmp_path / f"f{k}a.flo"
        p2 = tmp_path / f"f{k}b.flo"
        write_flo(p1, FlowField(flow32))
        back = read_flo(p1)
        write_flo(p2, back)
        ok &= np.array_equal(back.data, flow32)
        ok &= p1.read_bytes() == p2.read_bytes()

        quantized = np.round(rng.normal(0, 30, (2, m, n)) * 64) / 64
        mask = rng.uniform(size=(m, n)) > 0.25
        k1 = tmp_path / f"k{k}a.png"
        k2 = tmp_path / f"k{k}b.png"
        write_kitti_flow(k1, FlowField(quantized), mask)
        kf, km = read_kitti_flow(k1)
        write_kitti_flow(k2, kf, km)
        ok &= k1.read_bytes() == k2.read_bytes()

    white = flow_to_color(FlowField(np.zeros((2, 5, 5))))
    ok &= bool(np.all(white.data == 1.0))
    report(8, ok, "flow file roundtrips bitwise identical on 100 random "
                  "fields; zero flow renders white")


def test_criterion_9_cli_determinism(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    lines = []
    for k in range(2):
        f1, f2, _ = make_pair(80 + k, 16, 16)
        write_image_png(root / f"q{k}_1.png", f1, bit_depth=16)
        write_image_png(root / f"q{k}_2.png", f2, bit_depth=16)
        lines.append(f"q{k}_1.png q{k}_2.png")
    manifest = root / "pairs.txt"
    manifest.write_text("\n".join(lines) + "\n")

    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli_main(["--out", str(out), "--seed", "21", "--deterministic",
                         "attack", "--manifest", str(manifest),
                         "--eps2", "5e-3", "--steps", "3"])
        assert code == 0
        blobs.append((out / "report.jsonl").read_bytes())
    identical = blobs[0] == blobs[1]

    # the lines must also parse and echo the configured seed
    records = [json.loads(line) for line in blobs[0].decode().splitlines()]
    seeded = all(r["seed"] == 21 for r in records)
    report(9, identical and seeded,
           "repeated seeded CLI runs produce byte-identical report lines")
