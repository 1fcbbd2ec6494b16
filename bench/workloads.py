"""The three benchmark workloads: inputs, CLI invocations and output checks.

Each workload writes its inputs from the workload seed into a work
directory; the program only sees those files. One unit is one in-process
`flowattack` CLI invocation (`cli.main`), and a unit's checks read only
what the program wrote plus the scalars `spans.Checks` captured.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from flowattack import io as flowio
from flowattack.core import Image, PerturbMode, joint_l2_norm, scale_bound
from flowattack.diffflow import builtin_estimators
from flowattack.synthetic import make_pair
from flowattack.universal import apply_universal

import pngwrite

EPS2 = 5e-3


@dataclass
class Unit:
    argv: list[str]
    pairs: int                  # pairs completed (epoch x pair visits for universal)
    check: object               # (out_dir, captured results) -> (problems, strength_rel)


@dataclass
class Inputs:
    units: list[Unit]
    expected: dict = field(default_factory=dict)   # path -> what its reader returns
    filter_types: list = field(default_factory=list)
    frames: tuple = ()                              # (Image, Image) of the first pair
    pair_seeds: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    estimator: str
    height: int
    width: int
    channels: int
    trace_units: int
    strength_units: int         # leading invocations strength_rel averages over
    generate: object            # (Workload, work_dir, seed) -> Inputs
    strength_ceiling: float | None = None   # highest strength_rel a run may report


def _write_frame(path: Path, image, rng, inputs: Inputs):
    codes = pngwrite.image_codes(image.data)
    data, types = pngwrite.frame_png(codes, rng)
    path.write_bytes(data)
    inputs.expected[str(path)] = codes.astype(np.float64) / 255.0
    inputs.filter_types.append(types)


def _write_kitti_flow(path: Path, flow, mask, rng, inputs: Inputs):
    samples = pngwrite.kitti_flow_codes(flow, mask)
    data, types = pngwrite.encode_png(samples, 16, rng)
    path.write_bytes(data)
    decoded = pngwrite.decoded_kitti_flow(samples)
    if np.abs(decoded - flow)[:, mask].max() > 1.0 / 128.0:
        raise ValueError("flow PNG does not hold the field to the 1/64 quantum")
    inputs.expected[str(path)] = (decoded, mask)
    inputs.filter_types.append(types)


def _estimator_config(work: Path, label: str) -> str:
    path = work / f"{label}.ini"
    path.write_text(f"[estimator]\nlabel = {label}\n")
    return str(path)


# ---------------------------------------------------------------------------
# output checks shared by the attack workloads
# ---------------------------------------------------------------------------

def _read_report(out: Path, problems: list):
    try:
        lines = (out / "report.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
    except (OSError, ValueError) as exc:
        problems.append(f"report.jsonl: {exc}")
        return None
    if len(records) != 1:
        problems.append(f"report.jsonl has {len(records)} lines, expected 1")
        return None
    return records[0]


def _check_images(out: Path, names, shape, problems: list):
    for name in names:
        try:
            got = flowio.read_image(out / name).data.shape
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        if got != shape:
            problems.append(f"{name}: decoded shape {got}, expected {shape}")


def _pair_artifacts(wl: Workload, out: Path, problems: list):
    grid = (wl.height, wl.width)
    _check_images(out, [f"pair000_{k}.png" for k in
                        ("flow_init", "flow_adv", "flow_target")], (3,) + grid, problems)
    _check_images(out, [f"pair000_{k}.png" for k in
                        ("delta1", "delta2", "img_adv1", "img_adv2")],
                  (wl.channels,) + grid, problems)
    if not (out / "config_echo.ini").is_file():
        problems.append("config_echo.ini missing")


def _strength_rel(record, captured, problems: list):
    ratio = record["strength"] / captured["aee_init"]
    if not ratio < 1.0:
        problems.append(f"strength_rel {ratio:.4f} is not below 1")
    return ratio


def _pcfa_check(wl: Workload):
    bound = scale_bound(EPS2, wl.height * wl.width, wl.channels)

    def check(out: Path, captured: list):
        problems = []
        record = _read_report(out, problems)
        if record is None or len(captured) != 1:
            return problems or ["attack result not captured"], None
        got = captured[0]
        if not record["l2"] <= 1.01 * bound:
            problems.append(f"l2 {record['l2']:.6g} above 1.01 * eps_hat {bound:.6g}")
        if not 0.0 < got["box_min"] <= got["box_max"] < 1.0:
            problems.append(f"cov box left (0, 1): [{got['box_min']}, {got['box_max']}]")
        ratio = _strength_rel(record, got, problems)
        _pair_artifacts(wl, out, problems)
        return problems, ratio
    return check


def _ifgsm_check(wl: Workload):
    def check(out: Path, captured: list):
        problems = []
        record = _read_report(out, problems)
        if record is None or len(captured) != 1:
            return problems or ["attack result not captured"], None
        got = captured[0]
        # the clip after each signed step may round a few ulps past the
        # budget; the package's own tests allow the same 1e-15
        if not record["linf"] <= EPS2 + 1e-15:
            problems.append(f"linf {record['linf']!r} above eps_inf {EPS2}")
        if not 0.0 <= got["box_min"] <= got["box_max"] <= 1.0:
            problems.append(f"frames left [0, 1]: [{got['box_min']}, {got['box_max']}]")
        quality = record.get("initial_quality")
        if quality is None or not math.isfinite(quality) or quality < 0:
            problems.append(f"initial_quality against ground truth is {quality!r}")
        ratio = _strength_rel(record, got, problems)
        _pair_artifacts(wl, out, problems)
        return problems, ratio
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

ATTACK_PAIRS = 16
# Capped below the README's 20: at 20 steps about half the pairs stop
# early at a kink after 8-17 accepted steps, so work per pair spreads by
# a quarter from seed to seed; by step 10 the line search already
# backtracks 20-35 times per step, and most pairs get there.
ATTACK_STEPS = 10


def _gen_attack_hs(wl: Workload, work: Path, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    inputs = Inputs(units=[])
    check = _pcfa_check(wl)
    for k in range(ATTACK_PAIRS):
        pair_seed = 1000 * seed + k
        f1, f2, _ = make_pair(pair_seed, wl.height, wl.width, wl.channels)
        p1, p2 = work / f"p{k:02d}_1.png", work / f"p{k:02d}_2.png"
        _write_frame(p1, f1, rng, inputs)
        _write_frame(p2, f2, rng, inputs)
        if k == 0:
            inputs.frames = (f1, f2)
        inputs.pair_seeds.append(pair_seed)
        argv = ["--seed", str(pair_seed), "--jobs", "1", "attack",
                "--frames", str(p1), str(p2), "--eps2", repr(EPS2), "--loss", "aee",
                "--box", "cov", "--target", "zero", "--steps", str(ATTACK_STEPS)]
        inputs.units.append(Unit(argv, 1, check))
    return inputs


# Many short trainings rather than one long one. The first step pushes
# the perturbation onto the budget and the second epoch's line search
# backtracks against the active penalty; each epoch past that adds
# backtracks at a rate that differs from one data set to the next, so
# longer trainings spread too much to average within a run.
UNIVERSAL_SETS = 32
UNIVERSAL_PAIRS = 4
UNIVERSAL_EPOCHS = 2
UNIVERSAL_EPS2 = 5e-4
# At this budget the trained perturbation lowers the mean flow by only
# 0.25-0.31% (strength_rel 0.9969-0.9975 on seeds 0-30), so the relative
# bound on strength_rel cannot see it weaken. A run must instead keep at
# least 0.2% of reduction: an attack that loses about a fifth to a third
# of its effect fails the run.
UNIVERSAL_STRENGTH_CEILING = 0.998


def _universal_check(wl: Workload, pairs):
    bound = scale_bound(UNIVERSAL_EPS2, wl.height * wl.width, wl.channels)

    def check(out: Path, captured: list):
        problems = []
        try:
            summary = json.loads((out / "summary.json").read_text())
            pert = flowio.read_perturbation(out / "universal_delta.npz")
        except (OSError, ValueError, KeyError) as exc:
            return [f"universal outputs: {exc}"], None
        if not summary["l2"] <= 1.01 * bound:
            problems.append(f"norm {summary['l2']:.6g} above 1.01 * bound {bound:.6g}")
        if pert.mode != PerturbMode.JOINT or pert.shape != (wl.channels, wl.height, wl.width):
            problems.append(f"perturbation is {pert.mode.value} {pert.shape}")
        elif joint_l2_norm(pert) != summary["l2"]:
            problems.append("summary l2 differs from the written perturbation")
        _check_images(out, ["universal_delta1.png"],
                      (wl.channels, wl.height, wl.width), problems)
        if problems:
            return problems, None
        est = builtin_estimators()[wl.estimator]
        ratios = []
        for a, b in pairs:
            f1, f2 = Image(a), Image(b)
            init = est.estimate_flow(f1, f2).data
            adv = est.estimate_flow(*apply_universal(pert, f1, f2)).data
            ratios.append(np.mean(np.hypot(adv[0], adv[1]))
                          / np.mean(np.hypot(init[0], init[1])))
        ratio = float(np.mean(ratios))
        if not ratio < 1.0:
            problems.append(f"strength_rel {ratio:.4f} is not below 1")
        return problems, ratio
    return check


def _gen_universal(wl: Workload, work: Path, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    inputs = Inputs(units=[])
    config = _estimator_config(work, wl.estimator)
    for s in range(UNIVERSAL_SETS):
        lines, pairs = [], []
        for k in range(UNIVERSAL_PAIRS):
            pair_seed = 10000 * seed + 10 * s + k
            f1, f2, _ = make_pair(pair_seed, wl.height, wl.width, wl.channels)
            p1, p2 = work / f"s{s}_p{k}_1.png", work / f"s{s}_p{k}_2.png"
            _write_frame(p1, f1, rng, inputs)
            _write_frame(p2, f2, rng, inputs)
            if s == 0 and k == 0:
                inputs.frames = (f1, f2)
            inputs.pair_seeds.append(pair_seed)
            lines.append(f"{p1.name} {p2.name}")
            pairs.append((inputs.expected[str(p1)], inputs.expected[str(p2)]))
        manifest = work / f"set{s}.txt"
        manifest.write_text("\n".join(lines) + "\n")
        argv = ["--config", config, "--seed", str(1000 * seed + s), "--jobs", "1",
                "universal", "--manifest", str(manifest), "--eps2", repr(UNIVERSAL_EPS2),
                "--loss", "aee", "--target", "zero", "--mode", "joint",
                "--epochs", str(UNIVERSAL_EPOCHS), "--batch-size", "4"]
        inputs.units.append(Unit(argv, UNIVERSAL_PAIRS * UNIVERSAL_EPOCHS,
                                 _universal_check(wl, pairs)))
    return inputs


KITTI_VALID_SHARE = 2.0 / 3.0
# Six side-by-side make_pair tiles, each with its own texture and motion.
# With one uniform shift, the attack strength of the single pair a run
# attacks swung by +-20% from seed to seed; six motions average that out
# and add motion boundaries, as road scenes have.
KITTI_TILES = 6


def _gen_ifgsm_kitti(wl: Workload, work: Path, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 3])
    inputs = Inputs(units=[])
    config = _estimator_config(work, wl.estimator)
    inputs.pair_seeds = [10 * seed + t for t in range(KITTI_TILES)]
    tiles = [make_pair(s, wl.height, wl.width // KITTI_TILES, wl.channels)
             for s in inputs.pair_seeds]
    f1, f2, flow = (np.concatenate([tile[i].data for tile in tiles], axis=2)
                    for i in range(3))
    f1, f2 = Image(f1), Image(f2)
    mask = rng.random((wl.height, wl.width)) < KITTI_VALID_SHARE
    p1, p2, pf = work / "frame1.png", work / "frame2.png", work / "flow.png"
    _write_frame(p1, f1, rng, inputs)
    _write_frame(p2, f2, rng, inputs)
    _write_kitti_flow(pf, flow, mask, rng, inputs)
    inputs.frames = (f1, f2)
    manifest = work / "pairs.txt"
    manifest.write_text(f"{p1.name} {p2.name} {pf.name}\n")
    argv = ["--config", config, "--seed", str(seed), "--jobs", "1", "attack",
            "--manifest", str(manifest), "--method", "ifgsm", "--eps2", repr(EPS2),
            "--loss", "aee", "--target", "zero", "--steps", "3"]
    inputs.units.append(Unit(argv, 1, _ifgsm_check(wl)))
    return inputs


WORKLOADS = {wl.name: wl for wl in (
    Workload("attack-hs-64", "hs", 64, 64, 1, 3, 6, _gen_attack_hs),
    Workload("universal-pyr-rgb64", "hs-pyr", 64, 64, 3, 8, 16, _gen_universal,
             strength_ceiling=UNIVERSAL_STRENGTH_CEILING),
    Workload("ifgsm-pyr-kitti", "hs-pyr", 375, 1242, 3, 1, 1, _gen_ifgsm_kitti),
)}
