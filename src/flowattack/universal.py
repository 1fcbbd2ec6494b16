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
    PenalizedObjective, TargetKind, _as_image, _frame_pairs, _perturbation
# unused here; bench/spans.py patches this name and fails without it
from .attack import penalty_value_grad  # noqa: F401
from .core import Image, Perturbation, ShapeError, clip01
from .diffflow import FlowEstimator
from .optim import LbfgsParams, lbfgs_minimize

__all__ = ["DatasetManifest", "UniversalTrainConfig", "train_universal",
           "apply_universal"]


@dataclass
class DatasetManifest:
    """An ordered list of frame pairs in image files.

    Entries are (frame1, frame2[, flow]) paths, one pair per line,
    whitespace separated, resolved relative to the manifest file. The
    manifest only reads files: the attacks that take its pairs check that
    every frame has one (C, M, N) shape. Unreadable pairs are skipped with
    a warning; an entirely unreadable manifest is an error.
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

    def load_pairs(self) -> list[tuple[Image, Image]]:
        """The frame pairs, read in order. Ground truth is never read, so
        an unreadable flow file costs its pair nothing."""
        loaded = []
        skipped = 0
        for entry in self.entries:
            try:
                loaded.append((flowio.read_image(entry[0]),
                               flowio.read_image(entry[1])))
            except (OSError, ValueError) as exc:
                skipped += 1
                warnings.warn(f"skipping unreadable pair {entry[:2]}: {exc}")
        if not loaded:
            raise flowio.FormatError(f"no readable pairs ({skipped} skipped)")
        return loaded


@dataclass(frozen=True)
class UniversalTrainConfig:
    """Epoch/batch schedule around an inner attack configuration.

    `seed` drives the shuffle. The attack's mode picks the perturbation
    type, and its box constraint must be clipping: the change of
    variables is tied to one specific frame and cannot be shared.
    """

    attack: PcfaConfig
    epochs: int = 25
    batch_size: int = 4
    steps_per_batch: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.steps_per_batch < 1:
            raise ValueError("epochs, batch_size and steps_per_batch must be >= 1")
        if self.attack.box != BoxConstraint.CLIPPING:
            raise ValueError("universal training requires the clipping box constraint")


def apply_universal(p: Perturbation, frame1, frame2):
    """Add the trained field(s) to a pair of Images or arrays and clip
    back to valid frames."""
    i1, i2 = _as_image(frame1).data, _as_image(frame2).data
    if p.shape != i1.shape or p.shape != i2.shape:
        raise ShapeError(f"perturbation grid {p.shape} does not match frames "
                         f"{i1.shape}")
    d1, d2 = p.fields()
    return clip01(i1 + d1), clip01(i2 + d2)


def train_universal(estimator: FlowEstimator, pairs,
                    cfg: UniversalTrainConfig) -> Perturbation:
    """Train one perturbation over a dataset of (frame1, frame2) pairs,
    Images or arrays, every frame of one (C, M, N) shape; another shape
    is a ShapeError.

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
    pairs = _frame_pairs(pairs)
    atk = cfg.attack
    shape = pairs[0][0].shape
    eps_hat, mu = atk.budget(shape)
    param = Parametrization(BoxConstraint.CLIPPING, atk.mode, realized=False)
    # only a negative target reads the prediction; the others get zeros
    targets = [atk.target.resolve(estimator.estimate_flow(i1, i2).data
                                  if atk.target.kind == TargetKind.NEGATIVE
                                  else np.zeros((2,) + shape[1:]))
               for i1, i2 in pairs]

    x = param.start(*pairs[0])
    rng = np.random.default_rng(cfg.seed)
    params = LbfgsParams(max_steps=cfg.steps_per_batch)
    n = len(pairs)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = [(*pairs[i], targets[i])
                     for i in order[start:start + cfg.batch_size]]
            x, _ = lbfgs_minimize(PenalizedObjective(
                estimator, param, batch, atk.loss, eps_hat, mu), x, params)

    return _perturbation(atk.mode, *param.fields(x, shape))
