"""Command-line front end: attack | universal | transfer | viz | checkgrad.

Configuration comes from a flat INI-style file (sections in brackets,
key = value lines) overridden by command-line flags. Each run reads the
sections and keys `_READS` lists for it; any other section or key, from
the file or from a flag, is a usage error rather than ignored. Every run
writes the configuration it used, and nothing else, next to its results;
`viz` and `checkgrad` read no configuration file. Exit codes: 0 success,
1 usage, 2 I/O or inputs on mismatched grids, 3 numeric failure (an
optimizer value that is not finite, or a solve that overflows).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import io as flowio
from .attack import (AttackResult, BoxConstraint, LossKind, PcfaConfig, Target,
                     TargetKind, ifgsm_attack, loss_with_grad, pcfa_attack)
from .core import PerturbMode, ShapeError, joint_l2_norm, joint_linf_norm
from .diffflow import EstimatorConfig, FlowEstimator, builtin_estimators, \
    finite_diff_check
from .evaluation import AttackReport, TraceSummary, attack_strength, \
    adversarial_robustness, masked_aee, transfer_matrix
from .synthetic import make_pair
from .universal import DatasetManifest, UniversalTrainConfig, train_universal

__all__ = ["main"]


class UsageError(Exception):
    pass


def ProcessPoolExecutor(max_workers):
    """concurrent.futures' process pool, imported on first use: only
    --jobs > 1 needs it, and its import (multiprocessing included) would
    otherwise slow every start-up."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# What each run reads: section -> keys. `attack` is PCFA and `ifgsm` is
# `attack` with method = ifgsm. A flag's argparse dest is the key it sets.
# `transfer` also reads these solver keys from an [estimator.<label>]
# section for each label it names.
_SOLVER = {"alpha", "iterations", "levels", "warp"}
_READS = {
    "attack": {"estimator": {"label", *_SOLVER},
               "attack": {"method", "eps2", "mu", "loss", "target",
                          "target_file", "box", "mode", "steps"},
               "dataset": {"manifest"}},
    "ifgsm": {"estimator": {"label", *_SOLVER},
              "attack": {"method", "eps2", "loss", "target", "target_file",
                         "steps"},
              "dataset": {"manifest"}},
    "universal": {"estimator": {"label", *_SOLVER},
                  "attack": {"eps2", "mu", "loss", "target", "target_file",
                             "box", "mode"},
                  "universal": {"epochs", "batch_size", "steps_per_batch"},
                  "dataset": {"manifest"}},
    "transfer": {"transfer": {"estimators", "perturbations"},
                 "dataset": {"manifest"}},
}


def _load_config(path) -> dict[str, dict[str, str]]:
    # no [DEFAULT] whose keys leak into every section: it is a plain
    # section, which no run reads
    parser = configparser.ConfigParser(default_section="")
    try:
        if not parser.read(path):
            raise OSError(f"cannot read config file {path}")
        return {section: dict(parser[section]) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        message = " ".join(str(exc).split())  # some span several lines
        raise UsageError(f"config file {path}: {message}") from None


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
    """A solver labelled `label` that starts from the configuration of the
    built-in estimator of that label (of `hs` for a new label) and applies
    the section's solver keys; with no solver key it equals the built-in
    one. A new label that sets no solver key is a usage error."""
    label = section.get("label", "hs")
    builtin = builtin_estimators()
    if label not in builtin and set(section) <= {"label"}:
        raise UsageError(f"unknown estimator {label!r}: not built in "
                         f"({', '.join(builtin)}) and sets no solver key")
    base = builtin.get(label, builtin["hs"]).config
    try:
        cfg = EstimatorConfig(
            alpha=float(section.get("alpha", base.alpha)),
            iterations=int(section.get("iterations", base.iterations)),
            pyramid_levels=int(section.get("levels", base.pyramid_levels)),
            warp=_parse_bool(section.get("warp", str(base.warp))),
        )
    except ValueError as exc:
        raise UsageError(f"estimator {label!r}: {exc}") from None
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
    if kind != "custom" and "target_file" in section:
        raise UsageError("target_file is read only with target = custom")
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


def _resolved_config(config: dict, run: str, estimator: FlowEstimator,
                     cfg: PcfaConfig, **attack_keys: str) -> dict[str, dict[str, str]]:
    """`config` with the values the run actually uses, defaults included,
    in its [attack] and [estimator] sections; [attack] keeps the keys `run`
    reads."""
    resolved = dict(config)
    used = {
        **config.get("attack", {}),  # target_file, if given, as given
        "eps2": repr(cfg.epsilon2),
        "mu": "auto" if cfg.mu is None else repr(cfg.mu),
        "loss": cfg.loss.value, "target": cfg.target.kind.value,
        "box": cfg.box.value, "mode": cfg.mode.value, **attack_keys,
    }
    resolved["attack"] = {key: value for key, value in used.items()
                          if key in _READS[run]["attack"]}
    resolved["estimator"] = {"label": estimator.label,
                             "alpha": repr(estimator.config.alpha),
                             "iterations": str(estimator.config.iterations),
                             "levels": str(estimator.config.pyramid_levels),
                             "warp": str(estimator.config.warp).lower()}
    return resolved


def _settings(args) -> tuple[str, dict[str, dict[str, str]]]:
    """The run `args` asks for and its settings: the configuration file, if
    any, with the flags merged in key by key (an empty flag value overrides
    nothing). A section or key the run does not read is a usage error."""
    config = _load_config(args.config) if args.config else {}
    for section, keys in _READS[args.command].items():
        for key in keys:
            value = getattr(args, key, None)
            if value not in (None, ""):
                config.setdefault(section, {})[key] = \
                    ",".join(value) if isinstance(value, list) else str(value)
    run = args.command
    if run == "attack" and config.get("attack", {}).get("method") == "ifgsm":
        run = "ifgsm"
    reads = dict(_READS[run])
    if run == "transfer":
        reads.update((f"estimator.{label}", _SOLVER)
                     for label in _transfer_labels(config))
    for section, values in config.items():
        unread = [key for key in values if key not in reads.get(section, ())]
        if unread or section not in reads:
            listing = "; ".join(f"[{name}] {', '.join(sorted(keys))}"
                                for name, keys in sorted(reads.items()))
            what = f"[{section}] {unread[0]}" if unread else f"section [{section}]"
            raise UsageError(f"{run} reads no {what}; it reads {listing}")
    return run, config


def _transfer_labels(config: dict) -> list[str]:
    return _split(config.get("transfer", {}).get("estimators", "hs,hs-pyr"))


def _read_manifest(config: dict, what: str) -> DatasetManifest:
    path = config.get("dataset", {}).get("manifest")
    if not path:
        raise UsageError(f"{what} requires a dataset manifest")
    return DatasetManifest.from_file(path)


def _finite_positive(flag: str, value: float):
    if not 0 < value < math.inf:  # NaN included
        raise UsageError(f"{flag} must be finite and positive, got {value}")


def _split(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def _report_from_result(result: AttackResult, estimator_label: str,
                        cfg: PcfaConfig, runtime_ms: float,
                        deterministic: bool, initial_quality=None) -> AttackReport:
    return AttackReport(
        estimator=estimator_label,
        eps2=cfg.epsilon2,
        mu=result.mu,
        loss=cfg.loss.value,
        target=cfg.target.kind.value,
        box=cfg.box.value,
        mode=cfg.mode.value,
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


def _write_delta_images(out_dir: Path, stem: str, pert) -> list[Path]:
    """`<stem>_delta<k>.png`: one normalized image per perturbation."""
    paths = []
    for k, img in enumerate(flowio.perturbation_to_image(pert), start=1):
        paths.append(out_dir / f"{stem}_delta{k}.png")
        flowio.write_image_png(paths[-1], img)
    return paths


def _write_pair_artifacts(out_dir: Path, stem: str, result: AttackResult):
    flows = {"init": result.flow_init, "adv": result.flow_adv,
             "target": result.target}
    both = np.concatenate([flow.data for flow in flows.values()])
    max_mag = float(np.percentile(np.sqrt(both[0::2] ** 2 + both[1::2] ** 2), 99))
    max_mag = max(max_mag, 1e-12)
    for name, flow in flows.items():
        flowio.write_image_png(out_dir / f"{stem}_flow_{name}.png",
                               flowio.flow_to_color(flow, max_mag))
    _write_delta_images(out_dir, stem, result.perturbation)
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
    report = _report_from_result(result, estimator.label, cfg, runtime_ms,
                                 deterministic, initial_quality)
    _write_pair_artifacts(Path(out_dir), stem, result)
    return report.to_json_line()


def cmd_attack(args) -> int:
    run, config = _settings(args)
    estimator = _build_estimator(config.get("estimator", {}))
    atk_section = config.get("attack", {})
    method = atk_section.get("method", "pcfa")
    if method not in ("pcfa", "ifgsm"):
        raise UsageError(f"unknown attack method {method!r}")
    cfg = _build_attack_config(atk_section, args.seed)

    manifest = config.get("dataset", {}).get("manifest")
    if args.frames and manifest:
        raise UsageError("--frames and a dataset manifest both name the "
                         "inputs; give one of them")
    if args.frames:
        entries = [(*args.frames, None)]
    elif manifest:
        entries = DatasetManifest.from_file(manifest).entries
    else:
        # no inputs given: run on one seeded synthetic pair
        entries = [make_pair(args.seed)]
    for entry in entries:  # fail before any output is produced
        for p in entry:
            if isinstance(p, str) and not Path(p).is_file():
                raise OSError(f"input file not found: {p}")

    out_dir = Path(args.out)
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
    _echo_config(out_dir, _resolved_config(config, run, estimator, cfg,
                                           method=method, steps=str(cfg.steps)))
    for line in lines:
        print(line)
    return 0


def cmd_universal(args) -> int:
    run, config = _settings(args)
    estimator = _build_estimator(config.get("estimator", {}))
    cfg = _build_attack_config(config.get("attack", {}), args.seed)
    try:
        ucfg = UniversalTrainConfig(attack=cfg, **{
            k: int(v) for k, v in config.get("universal", {}).items()})
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    manifest = _read_manifest(config, "universal training")

    start = time.perf_counter()
    pert = train_universal(estimator, manifest.load_pairs(), ucfg)
    runtime_ms = 1000.0 * (time.perf_counter() - start)

    out_dir = Path(args.out)
    flowio.write_perturbation(out_dir / "universal_delta.npz", pert)
    _write_delta_images(out_dir, "universal", pert)
    summary = {
        "estimator": estimator.label,
        "mode": cfg.mode.value,
        "eps2": cfg.epsilon2,
        "epochs": ucfg.epochs,
        "batch_size": ucfg.batch_size,
        "steps_per_batch": ucfg.steps_per_batch,
        "seed": cfg.seed,
        "l2": joint_l2_norm(pert),
        "linf": joint_linf_norm(pert),
        "runtime_ms": 0.0 if args.deterministic else runtime_ms,
    }
    line = json.dumps(summary, sort_keys=False, separators=(",", ":"))
    flowio.atomic_write_bytes(out_dir / "summary.json", (line + "\n").encode())
    resolved = _resolved_config(config, run, estimator, cfg)
    resolved["universal"] = {k: str(getattr(ucfg, k))
                             for k in _READS[run]["universal"]}
    _echo_config(out_dir, resolved)
    print(line)
    return 0


def cmd_transfer(args) -> int:
    _, config = _settings(args)
    estimators = [_build_estimator({**config.get(f"estimator.{label}", {}),
                                    "label": label})
                  for label in _transfer_labels(config)]
    pert_paths = _split(config.get("transfer", {}).get("perturbations", ""))
    if not (estimators and pert_paths):
        raise UsageError("transfer needs at least one estimator and one "
                         "perturbation file")
    perturbations = [flowio.read_perturbation(p) for p in pert_paths]
    manifest = _read_manifest(config, "transfer")

    matrix, valid = transfer_matrix(estimators, perturbations,
                                    manifest.load_pairs())
    out_dir = Path(args.out)

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
    if not (args.flow or args.pert):
        raise UsageError("viz needs --flow and/or --pert")
    if args.max_mag is not None:
        _finite_positive("--max-mag", args.max_mag)
    # both inputs are read before anything is written
    flow = flowio.read_flow_any(args.flow)[0] if args.flow else None
    pert = flowio.read_perturbation(args.pert) if args.pert else None
    out_dir = Path(args.out)
    wrote = []
    if flow is not None:
        wrote.append(out_dir / (Path(args.flow).stem + "_flow.png"))
        flowio.write_image_png(wrote[-1], flowio.flow_to_color(flow, args.max_mag))
    if pert is not None:
        wrote += _write_delta_images(out_dir, Path(args.pert).stem, pert)
    for dest in wrote:
        print(dest)
    return 0


def cmd_checkgrad(args) -> int:
    _finite_positive("--h", args.h)
    _finite_positive("--tol", args.tol)
    if args.pairs < 1:
        raise UsageError(f"--pairs must be >= 1, got {args.pairs}")
    rng = np.random.default_rng(args.seed)
    rows = []
    for label, estimator in builtin_estimators().items():
        for loss in LossKind:
            worst = 0.0
            for k in range(args.pairs):
                f1, f2, _ = make_pair(int(rng.integers(1 << 30)), 16, 16)
                target = rng.normal(0.0, 1.0, (2, 16, 16))
                err = finite_diff_check(
                    estimator, f1, f2,
                    lambda flow, t=target, lk=loss: loss_with_grad(lk, flow, t),
                    h=args.h, seed=k)
                worst = max(worst, err)
            rows.append((label, loss.value, worst))
    print(f"{'estimator':<10} {'loss':<6} {'max rel err':>12}")
    for label, loss, err in rows:
        print(f"{label:<10} {loss:<6} {err:>12.3e}")
    label, loss, worst = max(rows, key=lambda row: row[2])
    if worst >= args.tol:
        print(f"FAIL: worst error {worst:.3e} (estimator {label!r}, loss "
              f"{loss}) >= {args.tol:g}", file=sys.stderr)
        return 3
    print(f"OK: worst error {worst:.3e} < {args.tol:g}")
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

    shared = argparse.ArgumentParser(add_help=False)  # attack and universal
    shared.add_argument("--manifest")
    shared.add_argument("--eps2", type=float)
    shared.add_argument("--mu", type=float)
    shared.add_argument("--loss", choices=[l.value for l in LossKind])
    shared.add_argument("--target", choices=[t.value for t in TargetKind])
    shared.add_argument("--target-file", dest="target_file")
    shared.add_argument("--mode", choices=[m.value for m in PerturbMode])

    p_attack = sub.add_parser("attack", parents=[shared],
                              help="attack frame pairs")
    p_attack.add_argument("--frames", nargs=2, metavar=("IMG1", "IMG2"))
    p_attack.add_argument("--method", choices=["pcfa", "ifgsm"])
    p_attack.add_argument("--box", choices=[b.value for b in BoxConstraint])
    p_attack.add_argument("--steps", type=int)
    p_attack.set_defaults(func=cmd_attack)

    p_uni = sub.add_parser("universal", parents=[shared],
                           help="train a universal perturbation")
    p_uni.add_argument("--steps", dest="steps_per_batch", type=int,
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
        if args.jobs < 1:
            raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
        if args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        if args.config and args.command not in _READS:
            raise UsageError(f"{args.command} reads no configuration file")
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
    except ArithmeticError as exc:  # NumericError, or a solve that overflowed
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
