"""Attack metrics, structured run reports, and the transfer matrix.

Attack strength is the exact (unsmoothed) mean endpoint distance between
the adversarial flow and the target; adversarial robustness is the same
distance between adversarial and unattacked flow. Smaller strength means
a stronger attack; smaller robustness means a more robust method. The two
are reported as separate fields, never folded into one score, and no
metric here compares an attacked prediction against ground truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .attack import _flow_pair, _frame_pairs
from .core import Perturbation, ShapeError
from .diffflow import FlowEstimator
from .universal import apply_universal

__all__ = [
    "AttackReport", "TraceSummary", "attack_strength",
    "adversarial_robustness", "masked_aee", "transfer_matrix",
    "patch_equivalent_epsilon",
]


def _endpoint_mean(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(np.mean(np.sqrt(d[0] ** 2 + d[1] ** 2)))


def attack_strength(flow_adv, target) -> float:
    """Exact mean endpoint distance to the target; smaller = stronger."""
    return _endpoint_mean(*_flow_pair(flow_adv, target))


def adversarial_robustness(flow_adv, flow_init) -> float:
    """Exact mean endpoint distance to the unattacked flow; smaller = more
    robust. Deliberately independent of the attack target."""
    return _endpoint_mean(*_flow_pair(flow_adv, flow_init))


def masked_aee(flow, reference, mask: np.ndarray) -> float:
    """Mean endpoint distance over valid-mask pixels only (for sparse
    ground truth). Raises if the mask selects nothing."""
    a, b = _flow_pair(flow, reference)
    m = np.asarray(mask, dtype=bool)
    if m.shape != a.shape[1:]:
        raise ShapeError(f"mask shape {m.shape} != grid {a.shape[1:]}")
    if not m.any():
        raise ValueError("mask selects no pixels")
    d = a - b
    ee = np.sqrt(d[0] ** 2 + d[1] ** 2)
    return float(ee[m].mean())


def patch_equivalent_epsilon(patch_pixels: int, image_pixels: int,
                             mean_abs_change: float) -> float:
    """Per-pixel L2 budget equivalent to a constant patch distortion:
    sqrt(P / I) * |b|. Lets patch-style attacks be placed on the same
    budget axis as global ones."""
    if patch_pixels <= 0 or image_pixels <= 0:
        raise ValueError("pixel counts must be positive")
    if patch_pixels > image_pixels:
        raise ValueError("patch cannot exceed the image area")
    if mean_abs_change < 0:
        raise ValueError("mean absolute change must be non-negative")
    return math.sqrt(patch_pixels / image_pixels) * mean_abs_change


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSummary:
    """The optimizer trace in a report: accepted steps, the loss at the
    start (the unattacked objective) and after the first and last step,
    what the optimizer spent (value-only and gradient evaluations), why
    it stopped and how many trials each accepted step rejected. The
    counts are deterministic. `loss_init` is None in reports written
    before it existed."""

    steps_taken: int
    loss_init: float | None = field(default=None, kw_only=True)
    loss_first: float | None
    loss_last: float | None
    value_evals: int = 0
    grad_evals: int = 0
    stop_reason: str | None = None
    backtracks: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "backtracks", tuple(self.backtracks))

    @staticmethod
    def from_trace(trace) -> "TraceSummary":
        spent = (trace.value_evals, trace.grad_evals, trace.stop_reason,
                 trace.backtracks)
        start = trace.initial_value if math.isfinite(trace.initial_value) else None
        if len(trace) == 0:
            return TraceSummary(0, None, None, *spent, loss_init=start)
        return TraceSummary(len(trace), trace.values[0], trace.values[-1], *spent,
                            loss_init=start)


@dataclass(frozen=True)
class AttackReport:
    """One run's metrics plus its configuration echo.

    Serializes to a single JSON line with a fixed key order so equal runs
    produce byte-identical lines; strength and robustness stay separate
    fields by design.
    """

    estimator: str
    eps2: float
    mu: float | None
    loss: str
    target: str
    box: str
    mode: str
    strength: float
    robustness: float
    l2: float
    linf: float
    steps: int
    seed: int
    runtime_ms: float
    initial_quality: float | None = None
    trace: TraceSummary = field(default_factory=lambda: TraceSummary(0, None, None))

    def __post_init__(self):
        for name in ("strength", "robustness"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {value}")

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=False, separators=(",", ":"))

    @staticmethod
    def from_json_line(line: str) -> "AttackReport":
        record = json.loads(line)
        tr = record.pop("trace")
        return AttackReport(trace=TraceSummary(**tr), **record)


# ---------------------------------------------------------------------------
# transfer matrix
# ---------------------------------------------------------------------------

def transfer_matrix(estimators: list[FlowEstimator],
                    perturbations: list[Perturbation], pairs):
    """Mean adversarial robustness of estimator i under perturbation j
    over (frame1, frame2) pairs, Images or arrays.

    Columns share the perturbation's training source, so the diagonal is
    the white-box entry when estimators and perturbations align. Every
    frame must have one (C, M, N) shape, else it is a ShapeError; a
    perturbation on another grid marks its entries invalid (NaN) without
    failing the rest.

    Returns (matrix, valid) as (len(estimators), len(perturbations)) arrays.
    """
    if not estimators or not perturbations:
        raise ValueError("need at least one estimator and one perturbation")
    pairs = _frame_pairs(pairs)
    matrix = np.full((len(estimators), len(perturbations)), np.nan)
    valid = np.zeros(matrix.shape, dtype=bool)
    for i, est in enumerate(estimators):
        flows = [est.estimate_flow(f1, f2) for f1, f2 in pairs]
        for j, pert in enumerate(perturbations):
            try:
                vals = []
                for (f1, f2), flow0 in zip(pairs, flows):
                    a1, a2 = apply_universal(pert, f1, f2)
                    vals.append(adversarial_robustness(est.estimate_flow(a1, a2),
                                                       flow0))
            except ShapeError:
                continue
            matrix[i, j] = float(np.mean(vals))
            valid[i, j] = True
    return matrix, valid
