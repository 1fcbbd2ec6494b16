"""Minibatch refinement of one perturbation across many frame pairs.

A single perturbation (per-frame pair or one shared field) is updated by
a small number of optimizer steps per minibatch on the batch-mean
penalized objective. No projection is needed to respect the budget: the
exact penalty already optimizes perturbations of limited size, so
whatever comes out of training is final.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import io as flowio
from .attack import BoxConstraint, Parametrization, PcfaConfig, \
    PenalizedObjective, TargetKind
# unused here; bench/spans.py patches this name and fails without it
from .attack import penalty_value_grad  # noqa: F401
from .core import Image, Perturbation, PerturbMode, ShapeError, clip01
from .diffflow import FlowEstimator
from .optim import LbfgsParams, lbfgs_minimize

__all__ = ["DatasetManifest", "UniversalTrainConfig", "train_universal",
           "apply_universal"]


@dataclass
class DatasetManifest:
    """An ordered list of frame pairs, file-backed or in-memory.

    File entries are (frame1, frame2[, flow]) paths, one pair per line,
    whitespace separated, resolved relative to the manifest file. All
    pairs must share one grid size; a mismatch is an error, never a
    silent resample. Unreadable pairs are skipped with a warning; an
    entirely unreadable manifest is an error.
    """

    entries: list[tuple] = field(default_factory=list)

    @staticmethod
    def from_file(path) -> "DatasetManifest":
        from pathlib import Path
        base = Path(path).parent
        entries = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise flowio.FormatError(f"{path}: manifest is not UTF-8: {exc}") from None
        for line in lines:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) not in (2, 3):
                raise flowio.FormatError(
                    f"{path}: manifest line needs 2 or 3 paths: {line!r}")
            paths = [str(base / p) for p in parts]
            entries.append(tuple(paths) if len(paths) == 3
                           else (paths[0], paths[1], None))
        return DatasetManifest(entries)

    @staticmethod
    def from_pairs(pairs) -> "DatasetManifest":
        """In-memory manifest from (Image, Image[, FlowField]) tuples."""
        entries = [(p[0], p[1], p[2] if len(p) > 2 else None) for p in pairs]
        return DatasetManifest(entries)

    def load_pairs(self) -> list[tuple[Image, Image]]:
        """The frame pairs, read in order. Ground truth is never read, so
        an unreadable flow file costs its pair nothing."""
        loaded = []
        skipped = 0
        grid = None
        for entry in self.entries:
            try:
                f1 = entry[0] if isinstance(entry[0], Image) else flowio.read_image(entry[0])
                f2 = entry[1] if isinstance(entry[1], Image) else flowio.read_image(entry[1])
            except (OSError, ValueError) as exc:
                skipped += 1
                warnings.warn(f"skipping unreadable pair {entry[:2]}: {exc}")
                continue
            grid = grid or (f1.height, f1.width)
            for frame in (f1, f2):
                if (frame.height, frame.width) != grid:
                    raise ShapeError(
                        f"pair grid {frame.height}x{frame.width} != declared "
                        f"{grid[0]}x{grid[1]}")
            if f1.data.shape != f2.data.shape:
                raise ShapeError("frames of a pair differ in shape")
            loaded.append((f1, f2))
        if not loaded:
            raise flowio.FormatError(f"no readable pairs ({skipped} skipped)")
        return loaded


@dataclass(frozen=True)
class UniversalTrainConfig:
    """Epoch/batch schedule around an inner attack configuration.

    The attack's mode picks the perturbation type, its seed drives the
    shuffle, and its box constraint must be clipping: the change of
    variables is tied to one specific frame and cannot be shared.
    """

    attack: PcfaConfig
    epochs: int = 25
    batch_size: int = 4
    steps_per_batch: int = 1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.steps_per_batch < 1:
            raise ValueError("epochs, batch_size and steps_per_batch must be >= 1")
        if self.attack.box != BoxConstraint.CLIPPING:
            raise ValueError("universal training requires the clipping box constraint")


def apply_universal(p: Perturbation, frame1: Image, frame2: Image):
    """Add the trained field(s) to a pair and clip back to valid frames."""
    if p.shape != frame1.data.shape or p.shape != frame2.data.shape:
        raise ShapeError(f"perturbation grid {p.shape} does not match frames "
                         f"{frame1.data.shape}")
    d1, d2 = p.fields()
    return clip01(frame1.data + d1), clip01(frame2.data + d2)


def train_universal(estimator: FlowEstimator, data: DatasetManifest,
                    cfg: UniversalTrainConfig) -> Perturbation:
    """Train one perturbation over the whole dataset.

    Each minibatch contributes the mean of its per-pair losses plus one
    shared penalty term on the perturbation itself (there is only one
    perturbation, so the budget term is not averaged). The same seed
    reproduces the shuffle and hence the exact result.

    Every batch is a new objective on other pairs, so it gets a fresh
    `lbfgs_minimize` call: no curvature memory and no line-search scale
    carry over, and its first search starts at the unit step. Only the
    steps within one batch start their searches from the last accepted
    step, so at one step per batch every search starts at the unit step.
    """
    pairs = data.load_pairs()
    atk = cfg.attack
    shape = pairs[0][0].data.shape
    eps_hat, mu = atk.budget(shape)
    param = Parametrization(BoxConstraint.CLIPPING, atk.mode, realized=False)
    # only a negative target reads the prediction; the others get zeros
    targets = [atk.target.resolve(estimator.estimate_flow(f1, f2).data
                                  if atk.target.kind == TargetKind.NEGATIVE
                                  else np.zeros((2,) + shape[1:]))
               for f1, f2 in pairs]

    x = param.start(pairs[0][0].data, pairs[0][1].data)
    rng = np.random.default_rng(atk.seed)
    params = LbfgsParams(max_steps=cfg.steps_per_batch)
    n = len(pairs)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = [(pairs[i][0].data, pairs[i][1].data, targets[i])
                     for i in order[start:start + cfg.batch_size]]
            x, _ = lbfgs_minimize(PenalizedObjective(
                estimator, param, batch, atk.loss, eps_hat, mu), x, params)

    if atk.mode == PerturbMode.JOINT:
        return Perturbation(PerturbMode.JOINT, x.reshape(shape))
    return Perturbation(PerturbMode.DISJOINT, *param.fields(x, shape))
