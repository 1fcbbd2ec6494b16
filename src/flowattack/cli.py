"""Command-line front end: attack | universal | transfer | viz | checkgrad.

Configuration comes from a flat INI-style file (sections in brackets,
key = value lines) overridden by command-line flags. A run's settings are
the fields of the configs it builds: `EstimatorConfig`, the attack method's
`PcfaConfig` or `IfgsmConfig` (whose `eps_inf` is the `eps2` key), and
`UniversalTrainConfig` for universal training. `_table` derives each
run's sections and keys from those dataclasses; a value parses as its
field's type, and a run echoes every field it used, defaults included, in
a form that `--config` reads back. Any other section or key, from the
file or from a flag, is a usage error rather than ignored. Every run
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
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import io as flowio
from .attack import (AttackResult, BoxConstraint, IfgsmConfig, LossKind,
                     PcfaConfig, Target, TargetKind, ifgsm_attack,
                     loss_with_grad, pcfa_attack)
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


# The settings keys of the config fields whose key is not the field's
# name. A field's keys are read together and the echo writes its value
# under the first; a field with no key is not a setting: the seed comes
# from --seed and a universal schedule's attack from [attack].
_KEYS = {"epsilon2": ("eps2",), "eps_inf": ("eps2",),
         "pyramid_levels": ("levels",), "target": ("target", "target_file"),
         "seed": (), "attack": ()}
# The attack config of each [attack] method.
_METHODS = {"pcfa": PcfaConfig, "ifgsm": IfgsmConfig}


def _configs(run: str) -> dict[str, tuple[type, tuple[str, ...]]]:
    """The config class each section of `run` builds, with the fields that
    section does not set. `attack` is PCFA and `ifgsm` is `attack` with
    method = ifgsm; `universal`'s steps are [universal] steps_per_batch."""
    if run == "transfer":
        return {}
    if run == "universal":
        return {"estimator": (EstimatorConfig, ()),
                "attack": (PcfaConfig, ("steps",)),
                "universal": (UniversalTrainConfig, ())}
    return {"estimator": (EstimatorConfig, ()),
            "attack": (IfgsmConfig if run == "ifgsm" else PcfaConfig, ())}


_HINTS = {}  # the field types of each config class, evaluated once


def _fields(cls, skip=()) -> list[tuple[str, tuple[str, ...], object]]:
    """(name, settings keys, type) of each field of the config class `cls`
    that a key sets, but those named in `skip`."""
    from dataclasses import fields  # only the configured commands need these
    from typing import get_type_hints
    if cls not in _HINTS:
        _HINTS[cls] = get_type_hints(cls)
    return [(f.name, _KEYS.get(f.name, (f.name,)), _HINTS[cls][f.name])
            for f in fields(cls)
            if f.name not in skip and _KEYS.get(f.name) != ()]


def _keys(cls, skip=()) -> dict[str, object]:
    """{settings key: the type of the field of `cls` it sets}."""
    return {key: hint for _, keys, hint in _fields(cls, skip) for key in keys}


def _table(run: str) -> dict[str, dict[str, object]]:
    """What `run` reads: section -> {key: the type of the config field it
    sets, or None for a key that names inputs or picks a config (the
    estimator label, the attack method)}. A flag's argparse dest is the
    key it sets. `transfer` also reads the solver keys from an
    [estimator.<label>] section for each label it names."""
    table = {section: _keys(*config) for section, config in _configs(run).items()}
    if run == "transfer":
        table["transfer"] = {"estimators": None, "perturbations": None}
    else:
        table["estimator"]["label"] = None
    table["dataset"] = {"manifest": None}
    if run in ("attack", "ifgsm"):
        table["attack"]["method"] = None
        table["dataset"]["frames"] = None
    return table


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


def _echo_config(out_dir: Path, config: dict, run: str, **built):
    """Write `config` as config_echo.ini, with the value `run` used of
    every field of its `built` configs, by section, defaults included:
    under the field's first key, while a further key (target_file) stays
    as given."""
    resolved = {section: dict(values) for section, values in config.items()}
    for section, (cls, skip) in _configs(run).items():
        for name, keys, _ in _fields(cls, skip):
            resolved.setdefault(section, {})[keys[0]] = \
                _format(getattr(built[section], name))
    lines = []
    for section in sorted(resolved):
        lines.append(f"[{section}]")
        for key in sorted(resolved[section]):
            lines.append(f"{key} = {resolved[section][key]}")
        lines.append("")
    flowio.atomic_write_bytes(out_dir / "config_echo.ini",
                              "\n".join(lines).encode())


def _parse(hint, text: str):
    """A settings value as the type of its config field; `auto` reads as
    None where the field may be None (the default penalty weight)."""
    if hint is bool:
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {text!r}") from None
    if hint == float | None:
        return None if text == "auto" else float(text)
    return hint(text)  # float, int or an enum


def _format(value) -> str:
    """A config field's value as `_parse` reads it back."""
    value = getattr(value, "kind", value)  # a Target by its kind
    text = str(getattr(value, "value", value))  # an enum by its value
    return {"None": "auto", "True": "true", "False": "false"}.get(text, text)


def _read_target(given: dict[str, str]) -> Target:
    """The target that [attack] target and target_file name; only a custom
    target reads a flow file, and it must."""
    path = given.get("target_file")
    if given.get("target") != TargetKind.CUSTOM:
        if path is not None:
            raise UsageError("target_file is read only with target = custom")
        return Target(TargetKind(given["target"]))
    if not path:
        raise UsageError("target = custom requires target_file")
    return Target.custom_flow(flowio.read_flow_any(path)[0])


def _build(cls, name: str, config: dict, what: str = "", **fixed):
    """`cls` from `fixed` and from the keys of section [name] that set its
    fields; every other field keeps its default. A value that does not
    parse is a usage error that names its key, and so is one the config
    refuses, after `what`."""
    section = config.get(name, {})
    for field, keys, hint in _fields(cls):
        given = {key: section[key] for key in keys if key in section}
        if not given:
            continue
        try:
            fixed[field] = (_read_target(given) if hint is Target
                            else _parse(hint, *given.values()))
        except flowio.FormatError:
            raise  # a corrupt target file is an i/o error, not a usage error
        except ValueError as exc:
            raise UsageError(f"[{name}] {next(iter(given))}: {exc}") from None
    try:
        return cls(**fixed)
    except ValueError as exc:
        raise UsageError(f"{what}{exc}") from None


def _build_estimator(config: dict, label: str | None = None) -> FlowEstimator:
    """A solver labelled `label` that starts from the configuration of the
    built-in estimator of that label (of `hs` for a new label) and applies
    the solver keys of section [estimator.<label>]; with no `label`, of
    [estimator], whose `label` key names it (hs, set in `config` when not
    given, so the echo holds it). With no solver key it equals the
    built-in one. A new label that sets no solver key is a usage error."""
    name = "estimator" if label is None else f"estimator.{label}"
    label = label or config.setdefault(name, {}).setdefault("label", "hs")
    builtin = builtin_estimators()
    if label not in builtin and set(config.get(name, {})) <= {"label"}:
        raise UsageError(f"unknown estimator {label!r}: not built in "
                         f"({', '.join(builtin)}) and sets no solver key")
    base = builtin.get(label, builtin["hs"]).config
    return FlowEstimator(_build(EstimatorConfig, name, config,
                                f"estimator {label!r}: ", **vars(base)),
                         label=label)


def _settings(args) -> tuple[str, dict[str, dict[str, str]]]:
    """The run `args` asks for and its settings: the configuration file, if
    any, with the flags merged in key by key (an empty flag value overrides
    nothing). A section or key the run does not read is a usage error."""
    config = _load_config(args.config) if args.config else {}
    for section, keys in _table(args.command).items():
        for key in keys:
            value = getattr(args, key, None)
            if value not in (None, ""):
                config.setdefault(section, {})[key] = \
                    ",".join(value) if isinstance(value, list) else str(value)
    run = args.command
    if run == "attack" and config.get("attack", {}).get("method") == "ifgsm":
        run = "ifgsm"
    reads = _table(run)
    if run == "transfer":
        reads.update((f"estimator.{label}", _keys(EstimatorConfig))
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


def _physical_memory() -> int | None:
    """This machine's physical memory in bytes; None where sysconf does
    not report it."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * size if pages > 0 and size > 0 else None


def _check_fits(estimator: FlowEstimator, shape, section: str = "estimator"):
    """Refuse a run whose Jacobi tape for one pair of frames of `shape`
    (`FlowEstimator.tape_bytes`, a lower bound on a solve's memory)
    exceeds physical memory, as a usage error that names the section's
    `iterations` and the tape size. It runs before the solve, so the
    run fails before it writes anything, where numpy would fail to
    allocate. Where the memory is not known, nothing is refused."""
    memory = _physical_memory()
    need = estimator.tape_bytes(shape)
    if memory is not None and need > memory:
        m, n = shape[-2:]
        raise UsageError(
            f"[{section}] iterations = {estimator.config.iterations}: the "
            f"Jacobi tape of one {m}x{n} pair needs {need / 2 ** 30:,.1f} GiB, "
            f"more than this machine's {memory / 2 ** 30:,.1f} GiB of memory")


def _split(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


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


def _ground_truth(gt, grid):
    """An entry's ground truth, None, a FlowField or a flow file's path,
    as None or the (flow, valid mask) pair that scores the unattacked
    flow; a format without a mask marks every pixel valid. A ground truth
    on another (M, N) grid than the frames' is a ShapeError, and one that
    marks no pixel valid a FormatError, each naming the file."""
    if gt is None:
        return None
    flow, mask = flowio.read_flow_any(gt) if isinstance(gt, str) else (gt, None)
    if flow.data.shape[1:] != grid:
        raise ShapeError(f"{gt}: ground truth grid {flow.data.shape[1:]} does "
                         f"not match the frames' {grid}")
    mask = np.ones(grid, dtype=bool) if mask is None else mask
    if not mask.any():
        raise flowio.FormatError(f"{gt}: ground truth marks no pixel valid")
    return flow, mask


def _attack_one(payload):
    (estimator, cfg, entry, stem, out_dir, seed, deterministic) = payload
    frame1, frame2 = (flowio.read_image(f) if isinstance(f, str) else f
                      for f in entry[:2])
    _check_fits(estimator, frame1.data.shape)
    gt = _ground_truth(entry[2], frame1.data.shape[1:])
    start = time.perf_counter()
    attack = ifgsm_attack if isinstance(cfg, IfgsmConfig) else pcfa_attack
    result = attack(estimator, frame1, frame2, cfg)
    runtime_ms = 1000.0 * (time.perf_counter() - start)
    initial_quality = None if gt is None else masked_aee(result.flow_init, *gt)
    _write_pair_artifacts(Path(out_dir), stem, result)
    return AttackReport(
        estimator=estimator.label,
        eps2=cfg.eps_inf if isinstance(cfg, IfgsmConfig) else cfg.epsilon2,
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
        seed=seed,
        runtime_ms=0.0 if deterministic else runtime_ms,
        initial_quality=initial_quality,
        trace=TraceSummary.from_trace(result.trace),
    ).to_json_line()


def cmd_attack(args) -> int:
    run, config = _settings(args)
    estimator = _build_estimator(config)
    method = config.setdefault("attack", {}).setdefault("method", "pcfa")  # echoed
    if method not in _METHODS:
        raise UsageError(f"unknown attack method {method!r}")
    cfg = _build(_METHODS[method], "attack", config)

    dataset = config.get("dataset", {})
    manifest = dataset.get("manifest")
    frames = _split(dataset.get("frames", ""))
    if frames and manifest:
        raise UsageError("--frames and a dataset manifest both name the "
                         "inputs; give one of them")
    if frames:
        if len(frames) != 2:
            raise UsageError(f"[dataset] frames names {len(frames)} files, "
                             "not the two frames of one pair")
        entries = [(*frames, None)]
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
    payloads = [(estimator, cfg, entry, f"pair{idx:03d}", str(out_dir),
                 args.seed, args.deterministic)
                for idx, entry in enumerate(entries)]
    workers = min(args.jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            lines = list(pool.map(_attack_one, payloads))
    else:
        lines = [_attack_one(p) for p in payloads]
    flowio.atomic_write_bytes(out_dir / "report.jsonl",
                              ("\n".join(lines) + "\n").encode())
    _echo_config(out_dir, config, run, estimator=estimator.config, attack=cfg)
    for line in lines:
        print(line)
    return 0


def cmd_universal(args) -> int:
    run, config = _settings(args)
    estimator = _build_estimator(config)
    cfg = _build(PcfaConfig, "attack", config)
    ucfg = _build(UniversalTrainConfig, "universal", config, attack=cfg,
                  seed=args.seed)
    pairs = _read_manifest(config, "universal training").load_pairs()
    _check_fits(estimator, pairs[0][0].data.shape)

    start = time.perf_counter()
    pert = train_universal(estimator, pairs, ucfg)
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
        "seed": ucfg.seed,
        "l2": joint_l2_norm(pert),
        "linf": joint_linf_norm(pert),
        "runtime_ms": 0.0 if args.deterministic else runtime_ms,
    }
    line = json.dumps(summary, sort_keys=False, separators=(",", ":"))
    flowio.atomic_write_bytes(out_dir / "summary.json", (line + "\n").encode())
    _echo_config(out_dir, config, run, estimator=estimator.config, attack=cfg,
                 universal=ucfg)
    print(line)
    return 0


def cmd_transfer(args) -> int:
    run, config = _settings(args)
    estimators = [_build_estimator(config, label)
                  for label in _transfer_labels(config)]
    pert_paths = _split(config.get("transfer", {}).get("perturbations", ""))
    if not (estimators and pert_paths):
        raise UsageError("transfer needs at least one estimator and one "
                         "perturbation file")
    col_names = [Path(p).stem for p in pert_paths]  # the matrix's columns
    for name in col_names:
        if col_names.count(name) > 1:
            raise UsageError(f"perturbation files share the stem {name!r}, "
                             "which names their column; give distinct stems")
    perturbations = [flowio.read_perturbation(p) for p in pert_paths]
    pairs = _read_manifest(config, "transfer").load_pairs()
    for est in estimators:
        _check_fits(est, pairs[0][0].data.shape, f"estimator.{est.label}")

    matrix, valid = transfer_matrix(estimators, perturbations, pairs)
    out_dir = Path(args.out)

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
    _echo_config(out_dir, config, run)
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
        if args.config and args.command in ("viz", "checkgrad"):
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
