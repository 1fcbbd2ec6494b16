"""Command-line front end: attack | universal | transfer | viz | checkgrad.

Configuration comes from a flat INI-style file (sections in brackets,
key = value lines) overridden by command-line flags; unknown keys or
sections are rejected rather than ignored. Every run writes the resolved
configuration next to its results. Exit codes: 0 success, 1 usage,
2 I/O or inputs on mismatched grids, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import io as flowio
from .attack import (AttackResult, BoxConstraint, LossKind, PcfaConfig, Target,
                     TargetKind, ifgsm_attack, loss_with_grad, pcfa_attack)
from .core import PerturbMode, ShapeError, joint_l2_norm
from .diffflow import EstimatorConfig, FlowEstimator, builtin_estimators, \
    finite_diff_check
from .evaluation import AttackReport, TraceSummary, attack_strength, \
    adversarial_robustness, masked_aee, transfer_matrix
from .optim import NumericError
from .synthetic import make_pair
from .universal import DatasetManifest, UniversalTrainConfig, train_universal

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_SCHEMA = {
    "estimator": {"alpha", "iterations", "levels", "warp", "label"},
    "attack": {"method", "eps2", "mu", "loss", "target", "target_file", "box",
               "mode", "steps"},
    "universal": {"epochs", "batch_size", "steps_per_batch"},
    "dataset": {"manifest"},
    "transfer": {"estimators", "perturbations"},
}


def _load_config(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise OSError(f"cannot read config file {path}")
    config = {}
    for section in parser.sections():
        base = section.split(".", 1)[0]
        if base not in _SCHEMA:
            raise UsageError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[base]:
                raise UsageError(f"unknown key '{key}' in section [{section}]")
        config[section] = dict(parser[section])
    return config


def _echo_config(out_dir: Path, resolved: dict[str, dict[str, str]]):
    lines = []
    for section in sorted(resolved):
        lines.append(f"[{section}]")
        for key in sorted(resolved[section]):
            lines.append(f"{key} = {resolved[section][key]}")
        lines.append("")
    flowio.atomic_write_bytes(out_dir / "config_echo.ini",
                              "\n".join(lines).encode())


def _build_estimator(section: dict[str, str]) -> FlowEstimator:
    label = section.get("label", "hs")
    builtin = builtin_estimators()
    overrides = {k for k in section if k != "label"}
    if not overrides and label in builtin:
        return builtin[label]
    base = builtin.get(label, builtin["hs"]).config
    cfg = EstimatorConfig(
        alpha=float(section.get("alpha", base.alpha)),
        iterations=int(section.get("iterations", base.iterations)),
        pyramid_levels=int(section.get("levels", base.pyramid_levels)),
        warp=_parse_bool(section.get("warp", str(base.warp))),
    )
    return FlowEstimator(cfg, label=label)


def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {text!r}")


def _build_target(section: dict[str, str]) -> Target:
    kind = section.get("target", "zero")
    if kind == "custom":
        path = section.get("target_file")
        if not path:
            raise UsageError("target = custom requires target_file")
        flow, _ = flowio.read_flow_any(path)
        return Target.custom_flow(flow)
    try:
        return Target(TargetKind(kind))
    except ValueError:
        raise UsageError(f"unknown target {kind!r}") from None


def _build_attack_config(section: dict[str, str], seed: int) -> PcfaConfig:
    try:
        return PcfaConfig(
            epsilon2=float(section.get("eps2", 5e-3)),
            mu=float(section["mu"]) if "mu" in section else None,
            steps=int(section.get("steps", 20)),
            loss=LossKind(section.get("loss", "aee")),
            target=_build_target(section),
            box=BoxConstraint(section.get("box", "clipping")),
            mode=PerturbMode(section.get("mode", "disjoint")),
            seed=seed,
        )
    except flowio.FormatError:
        raise  # a corrupt target file is an i/o error, not a usage error
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolved_config(config: dict, estimator: FlowEstimator, cfg: PcfaConfig,
                     **attack_keys: str) -> dict[str, dict[str, str]]:
    """`config` with its [attack] and [estimator] sections replaced by the
    values the run actually uses, defaults included."""
    resolved = dict(config)
    resolved["attack"] = {
        "eps2": repr(cfg.epsilon2),
        "mu": "auto" if cfg.mu is None else repr(cfg.mu),
        "loss": cfg.loss.value, "target": cfg.target.kind.value,
        "box": cfg.box.value, "mode": cfg.mode.value, **attack_keys,
    }
    resolved["estimator"] = {"label": estimator.label,
                             "alpha": repr(estimator.config.alpha),
                             "iterations": str(estimator.config.iterations),
                             "levels": str(estimator.config.pyramid_levels),
                             "warp": str(estimator.config.warp).lower()}
    return resolved


def _merge_cli(config: dict, args, section: str, keys: dict[str, str]):
    target = config.setdefault(section, {})
    for attr, key in keys.items():
        value = getattr(args, attr, None)
        if value is not None:
            target[key] = str(value)


def _report_from_result(result: AttackResult, estimator_label: str,
                        cfg: PcfaConfig, method: str, runtime_ms: float,
                        deterministic: bool, initial_quality=None) -> AttackReport:
    return AttackReport(
        estimator=estimator_label,
        eps2=cfg.epsilon2,
        mu=result.mu,
        loss=cfg.loss.value,
        target=cfg.target.kind.value,
        box=cfg.box.value if method == "pcfa" else "clipping",
        mode=cfg.mode.value if method == "pcfa" else "disjoint",
        strength=attack_strength(result.flow_adv, result.target),
        robustness=adversarial_robustness(result.flow_adv, result.flow_init),
        l2=result.l2_norm,
        linf=result.linf_norm,
        steps=cfg.steps,
        seed=cfg.seed,
        runtime_ms=0.0 if deterministic else runtime_ms,
        initial_quality=initial_quality,
        trace=TraceSummary.from_trace(result.trace),
    )


def _write_pair_artifacts(out_dir: Path, stem: str, result: AttackResult):
    both = np.concatenate([result.flow_init.data, result.flow_adv.data,
                           result.target.data])
    max_mag = float(np.percentile(np.sqrt(both[0::2] ** 2 + both[1::2] ** 2), 99))
    max_mag = max(max_mag, 1e-12)
    flowio.write_image_png(out_dir / f"{stem}_flow_init.png",
                           flowio.flow_to_color(result.flow_init, max_mag))
    flowio.write_image_png(out_dir / f"{stem}_flow_adv.png",
                           flowio.flow_to_color(result.flow_adv, max_mag))
    flowio.write_image_png(out_dir / f"{stem}_flow_target.png",
                           flowio.flow_to_color(result.target, max_mag))
    deltas = flowio.perturbation_to_image(result.perturbation)
    flowio.write_image_png(out_dir / f"{stem}_delta1.png", deltas[0])
    if len(deltas) > 1:
        flowio.write_image_png(out_dir / f"{stem}_delta2.png", deltas[1])
    flowio.write_image_png(out_dir / f"{stem}_img_adv1.png", result.frame1_adv)
    flowio.write_image_png(out_dir / f"{stem}_img_adv2.png", result.frame2_adv)


def _attack_one(payload):
    (estimator, cfg, method, entry, stem, out_dir, deterministic) = payload
    frame1 = entry[0] if not isinstance(entry[0], str) else flowio.read_image(entry[0])
    frame2 = entry[1] if not isinstance(entry[1], str) else flowio.read_image(entry[1])
    gt = entry[2]
    if isinstance(gt, str):
        gt = flowio.read_flow_any(gt)
    start = time.perf_counter()
    if method == "ifgsm":
        result = ifgsm_attack(estimator, frame1, frame2, eps_inf=cfg.epsilon2,
                              steps=cfg.steps, loss=cfg.loss, target=cfg.target)
    else:
        result = pcfa_attack(estimator, frame1, frame2, cfg)
    runtime_ms = 1000.0 * (time.perf_counter() - start)
    initial_quality = None
    if gt is not None:
        gt_flow, gt_mask = gt if isinstance(gt, tuple) else (gt, None)
        if gt_mask is not None:
            initial_quality = masked_aee(result.flow_init, gt_flow, gt_mask)
        else:
            initial_quality = attack_strength(result.flow_init, gt_flow)
    report = _report_from_result(result, estimator.label, cfg, method,
                                 runtime_ms, deterministic, initial_quality)
    _write_pair_artifacts(Path(out_dir), stem, result)
    return report.to_json_line()


def cmd_attack(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    config = _load_config(args.config) if args.config else {}
    _merge_cli(config, args, "attack",
               {"eps2": "eps2", "mu": "mu", "loss": "loss", "target": "target",
                "target_file": "target_file", "box": "box", "mode": "mode",
                "steps": "steps", "method": "method"})
    estimator = _build_estimator(config.get("estimator", {}))
    atk_section = config.get("attack", {})
    method = atk_section.get("method", "pcfa")
    if method not in ("pcfa", "ifgsm"):
        raise UsageError(f"unknown attack method {method!r}")
    cfg = _build_attack_config(atk_section, args.seed)

    entries = []
    if args.frames:
        for p in args.frames:
            if not Path(p).is_file():
                raise OSError(f"input file not found: {p}")
        entries.append((args.frames[0], args.frames[1], None))
    elif args.manifest or config.get("dataset", {}).get("manifest"):
        manifest_path = args.manifest or config["dataset"]["manifest"]
        manifest = DatasetManifest.from_file(manifest_path)
        for entry in manifest.entries:  # fail before any output is produced
            for p in entry:
                if isinstance(p, str) and not Path(p).is_file():
                    raise OSError(f"input file not found: {p}")
        entries.extend(manifest.entries)
    else:
        # no inputs given: run on one seeded synthetic pair
        f1, f2, gt = make_pair(args.seed)
        entries.append((f1, f2, gt))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payloads = [(estimator, cfg, method, entry, f"pair{idx:03d}", str(out_dir),
                 args.deterministic)
                for idx, entry in enumerate(entries)]
    workers = min(args.jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            lines = list(pool.map(_attack_one, payloads))
    else:
        lines = [_attack_one(p) for p in payloads]
    flowio.atomic_write_bytes(out_dir / "report.jsonl",
                              ("\n".join(lines) + "\n").encode())
    _echo_config(out_dir, _resolved_config(config, estimator, cfg, method=method,
                                           steps=str(cfg.steps)))
    for line in lines:
        print(line)
    return 0


def cmd_universal(args) -> int:
    config = _load_config(args.config) if args.config else {}
    _merge_cli(config, args, "attack",
               {"eps2": "eps2", "mu": "mu", "loss": "loss", "target": "target",
                "target_file": "target_file", "mode": "mode"})
    _merge_cli(config, args, "universal",
               {"epochs": "epochs", "batch_size": "batch_size",
                "steps": "steps_per_batch"})
    estimator = _build_estimator(config.get("estimator", {}))
    atk_section = config.get("attack", {})
    if "steps" in atk_section:
        raise UsageError("[attack] steps does not apply to universal training; "
                         "set [universal] steps_per_batch instead")
    if "method" in atk_section:
        raise UsageError("[attack] method does not apply to universal training")
    cfg = _build_attack_config(atk_section, args.seed)
    try:
        ucfg = UniversalTrainConfig(attack=cfg, **{
            k: int(v) for k, v in config.get("universal", {}).items()})
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    manifest_path = args.manifest or config.get("dataset", {}).get("manifest")
    if not manifest_path:
        raise UsageError("universal training requires a dataset manifest")
    manifest = DatasetManifest.from_file(manifest_path)

    start = time.perf_counter()
    pert = train_universal(estimator, manifest, ucfg)
    runtime_ms = 1000.0 * (time.perf_counter() - start)
    # only now: training fails on its inputs before it writes anything
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    flowio.write_perturbation(out_dir / "universal_delta.npz", pert)
    images = flowio.perturbation_to_image(pert)
    flowio.write_image_png(out_dir / "universal_delta1.png", images[0])
    if len(images) > 1:
        flowio.write_image_png(out_dir / "universal_delta2.png", images[1])
    summary = {
        "estimator": estimator.label,
        "mode": cfg.mode.value,
        "eps2": cfg.epsilon2,
        "epochs": ucfg.epochs,
        "batch_size": ucfg.batch_size,
        "steps_per_batch": ucfg.steps_per_batch,
        "seed": cfg.seed,
        "l2": joint_l2_norm(pert),
        "linf": float(np.abs(pert.first).max()),
        "runtime_ms": 0.0 if args.deterministic else runtime_ms,
    }
    line = json.dumps(summary, sort_keys=False, separators=(",", ":"))
    flowio.atomic_write_bytes(out_dir / "summary.json", (line + "\n").encode())
    resolved = _resolved_config(config, estimator, cfg)
    resolved["universal"] = {k: str(getattr(ucfg, k)) for k in _SCHEMA["universal"]}
    _echo_config(out_dir, resolved)
    print(line)
    return 0


def cmd_transfer(args) -> int:
    config = _load_config(args.config) if args.config else {}
    section = config.get("transfer", {})
    est_names = args.estimators or section.get("estimators", "hs,hs-pyr")
    labels = [s.strip() for s in est_names.split(",") if s.strip()]
    builtin = builtin_estimators()
    estimators = []
    for label in labels:
        key = f"estimator.{label}"
        if key in config:
            sec = dict(config[key])
            sec.setdefault("label", label)
            estimators.append(_build_estimator(sec))
        elif label in builtin:
            estimators.append(builtin[label])
        else:
            raise UsageError(f"unknown estimator {label!r}")
    pert_paths = args.perturbations or [
        p.strip() for p in section.get("perturbations", "").split(",") if p.strip()]
    if not pert_paths:
        raise UsageError("transfer needs at least one perturbation file")
    perturbations = [flowio.read_perturbation(p) for p in pert_paths]
    manifest_path = args.manifest or config.get("dataset", {}).get("manifest")
    if not manifest_path:
        raise UsageError("transfer requires a dataset manifest")
    manifest = DatasetManifest.from_file(manifest_path)

    matrix, valid = transfer_matrix(estimators, perturbations, manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    col_names = [Path(p).stem for p in pert_paths]
    widths = [max(len(c), 10) for c in col_names]
    head = " ".join(["estimator".ljust(12)] + [c.rjust(w) for c, w in
                                               zip(col_names, widths)])
    rows = [head]
    json_rows = []
    for i, est in enumerate(estimators):
        cells = []
        for j, name in enumerate(col_names):
            if valid[i, j]:
                cells.append(f"{matrix[i, j]:.4f}".rjust(widths[j]))
            else:
                cells.append("n/a".rjust(widths[j]))
            json_rows.append(json.dumps(
                {"estimator": est.label, "perturbation": name,
                 "robustness": matrix[i, j] if valid[i, j] else None},
                sort_keys=False, separators=(",", ":")))
        rows.append(" ".join([est.label.ljust(12)] + cells))
    flowio.atomic_write_bytes(out_dir / "transfer.txt",
                              ("\n".join(rows) + "\n").encode())
    flowio.atomic_write_bytes(out_dir / "transfer.jsonl",
                              ("\n".join(json_rows) + "\n").encode())
    _echo_config(out_dir, config)
    print("\n".join(rows))
    return 0


def cmd_viz(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wrote = []
    if args.flow:
        flow, _ = flowio.read_flow_any(args.flow)
        img = flowio.flow_to_color(flow, args.max_mag)
        dest = out_dir / (Path(args.flow).stem + "_flow.png")
        flowio.write_image_png(dest, img)
        wrote.append(dest)
    if args.pert:
        pert = flowio.read_perturbation(args.pert)
        for k, img in enumerate(flowio.perturbation_to_image(pert), start=1):
            dest = out_dir / (Path(args.pert).stem + f"_delta{k}.png")
            flowio.write_image_png(dest, img)
            wrote.append(dest)
    if not wrote:
        raise UsageError("viz needs --flow and/or --pert")
    for dest in wrote:
        print(dest)
    return 0


def cmd_checkgrad(args) -> int:
    if args.h <= 0:
        raise UsageError("--h must be positive")
    rng = np.random.default_rng(args.seed)
    rows = []
    worst_overall = 0.0
    for label, estimator in builtin_estimators().items():
        for loss in LossKind:
            worst = 0.0
            for k in range(args.pairs):
                f1, f2, _ = make_pair(int(rng.integers(1 << 30)), 16, 16)
                target = rng.normal(0.0, 1.0, (2, 16, 16))
                err = finite_diff_check(
                    estimator, f1, f2,
                    lambda flow, t=target, lk=loss: loss_with_grad(lk, flow, t),
                    h=args.h, num_coords=64, seed=k)
                worst = max(worst, err)
            rows.append((label, loss.value, worst))
            worst_overall = max(worst_overall, worst)
    print(f"{'estimator':<10} {'loss':<6} {'max rel err':>12}")
    for label, loss, err in rows:
        print(f"{label:<10} {loss:<6} {err:>12.3e}")
    if worst_overall >= args.tol:
        print(f"FAIL: worst error {worst_overall:.3e} >= {args.tol:g}",
              file=sys.stderr)
        return 3
    print(f"OK: worst error {worst_overall:.3e} < {args.tol:g}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="flowattack",
                     description="L2-budgeted adversarial attacks on "
                                 "differentiable optical-flow estimators")
    parser.add_argument("--config", help="INI-style configuration file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent frame pairs "
                             "(at most one per pair)")
    parser.add_argument("--deterministic", action="store_true",
                        help="zero out runtimes so report lines are "
                             "byte-reproducible")
    sub = parser.add_subparsers(dest="command", required=True)

    p_attack = sub.add_parser("attack", help="attack frame pairs")
    p_attack.add_argument("--frames", nargs=2, metavar=("IMG1", "IMG2"))
    p_attack.add_argument("--manifest")
    p_attack.add_argument("--method", choices=["pcfa", "ifgsm"])
    p_attack.add_argument("--eps2", type=float)
    p_attack.add_argument("--mu", type=float)
    p_attack.add_argument("--loss", choices=[l.value for l in LossKind])
    p_attack.add_argument("--target", choices=[t.value for t in TargetKind])
    p_attack.add_argument("--target-file", dest="target_file")
    p_attack.add_argument("--box", choices=[b.value for b in BoxConstraint])
    p_attack.add_argument("--mode", choices=[m.value for m in PerturbMode])
    p_attack.add_argument("--steps", type=int)
    p_attack.set_defaults(func=cmd_attack)

    p_uni = sub.add_parser("universal", help="train a universal perturbation")
    p_uni.add_argument("--manifest")
    p_uni.add_argument("--eps2", type=float)
    p_uni.add_argument("--mu", type=float)
    p_uni.add_argument("--loss", choices=[l.value for l in LossKind])
    p_uni.add_argument("--target", choices=[t.value for t in TargetKind])
    p_uni.add_argument("--target-file", dest="target_file")
    p_uni.add_argument("--mode", choices=[m.value for m in PerturbMode])
    p_uni.add_argument("--steps", type=int,
                       help="optimizer steps per minibatch")
    p_uni.add_argument("--epochs", type=int)
    p_uni.add_argument("--batch-size", dest="batch_size", type=int)
    p_uni.set_defaults(func=cmd_universal)

    p_tr = sub.add_parser("transfer", help="cross-estimator robustness matrix")
    p_tr.add_argument("--estimators", help="comma-separated estimator labels")
    p_tr.add_argument("--perturbations", nargs="+")
    p_tr.add_argument("--manifest")
    p_tr.set_defaults(func=cmd_transfer)

    p_viz = sub.add_parser("viz", help="render flow files and perturbations")
    p_viz.add_argument("--flow")
    p_viz.add_argument("--pert")
    p_viz.add_argument("--max-mag", dest="max_mag", type=float)
    p_viz.set_defaults(func=cmd_viz)

    p_cg = sub.add_parser("checkgrad", help="finite-difference gradient gate")
    p_cg.add_argument("--h", type=float, default=1e-5)
    p_cg.add_argument("--pairs", type=int, default=5)
    p_cg.add_argument("--tol", type=float, default=1e-4)
    p_cg.set_defaults(func=cmd_checkgrad)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, flowio.FormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ShapeError as exc:
        print(f"shape mismatch: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
