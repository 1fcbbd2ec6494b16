"""L2-budgeted targeted attacks on differentiable flow estimators.

The constrained problem: find per-frame (or one shared) additive
perturbations minimizing a flow loss against a target, subject to a joint
L2 bound scaled by sqrt(2*I*C) and to the frames staying valid images.
The bound is enforced through an exact penalty on the squared norms,
mu * max(0, |d|^2 - bound^2), minimized directly with L-BFGS; the box
constraint is enforced either by clipping the perturbed frames or by a
tanh change of variables, which keeps them strictly inside (0, 1) by
construction. An iterative signed-gradient attack with an L-infinity
budget is included as the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (FlowField, Image, Perturbation, PerturbMode, ShapeError,
                   joint_l2_norm, joint_linf_norm, scale_bound)
from .diffflow import FlowEstimator
from .optim import LbfgsParams, OptimTrace, lbfgs_minimize

__all__ = [
    "LossKind", "BoxConstraint", "TargetKind", "Target", "PcfaConfig",
    "IfgsmConfig", "AttackResult", "loss_aee", "loss_mse", "loss_cs",
    "loss_with_grad", "penalty_value_grad", "apply_cov", "cov_init", "default_mu",
    "Parametrization", "PenalizedObjective", "pcfa_attack", "ifgsm_attack",
]

AEE_SMOOTHING = 1e-9   # keeps the endpoint norm differentiable; value error <= 1e-9
CS_STABILIZER = 1e-8
COV_KAPPA = 1e-6       # clamp when inverting frames containing exact 0/1
COV_WMAX = 18.0        # |tanh| < 1 in float64 below this, so frames stay in (0, 1)


class LossKind(str, Enum):
    AEE = "aee"
    MSE = "mse"
    CS = "cs"


class BoxConstraint(str, Enum):
    CLIPPING = "clipping"
    COV = "cov"


class TargetKind(str, Enum):
    ZERO = "zero"
    NEGATIVE = "negative"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Target:
    """Attack target: erase motion, invert the initial prediction, or a
    caller-supplied flow field."""

    kind: TargetKind
    custom: FlowField | None = None

    def __post_init__(self):
        if (self.kind == TargetKind.CUSTOM) != (self.custom is not None):
            raise ValueError("custom flow required exactly for the custom target")

    @staticmethod
    def zero() -> "Target":
        return Target(TargetKind.ZERO)

    @staticmethod
    def negative_initial() -> "Target":
        return Target(TargetKind.NEGATIVE)

    @staticmethod
    def custom_flow(flow: FlowField) -> "Target":
        return Target(TargetKind.CUSTOM, flow)

    def resolve(self, flow_init: np.ndarray) -> np.ndarray:
        """Freeze the concrete target against the unattacked prediction."""
        if self.kind == TargetKind.ZERO:
            return np.zeros_like(flow_init)
        if self.kind == TargetKind.NEGATIVE:
            return -flow_init
        if self.custom.data.shape != flow_init.shape:
            raise ShapeError("custom target does not match the frame grid")
        return self.custom.data


def _check_budget(name: str, budget: float, steps: int):
    """What both attack configs require: a finite non-negative budget,
    named `name` in the error, and at least one step."""
    if not (0 <= budget < math.inf):  # NaN included
        raise ValueError(f"{name} must be finite and non-negative, got {budget}")
    if steps < 1:
        raise ValueError("steps must be >= 1")


@dataclass(frozen=True)
class PcfaConfig:
    """All attack hyperparameters. mu=None picks the default pairing for
    the budget."""

    epsilon2: float = 5e-3
    mu: float | None = None
    steps: int = 20
    loss: LossKind = LossKind.AEE
    target: Target = Target(TargetKind.ZERO)
    box: BoxConstraint = BoxConstraint.CLIPPING
    mode: PerturbMode = PerturbMode.DISJOINT

    def __post_init__(self):
        _check_budget("epsilon2", self.epsilon2, self.steps)
        if self.mu is not None and not (0 < self.mu < math.inf):
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        if self.box == BoxConstraint.COV and self.mode == PerturbMode.JOINT:
            raise ValueError("the change-of-variables box constraint only "
                             "supports disjoint perturbations")
        if self.mu is None:  # a budget with no finite default fails here
            default_mu(self.loss, self.target.kind, self.epsilon2)

    def budget(self, shape) -> tuple[float, float]:
        """(eps_hat, mu) for frames of `shape` (C, M, N): the scaled L2
        bound and the penalty weight, the default pairing when mu is None."""
        channels, height, width = shape
        eps_hat = scale_bound(self.epsilon2, height * width, channels)
        mu = self.mu if self.mu is not None else default_mu(
            self.loss, self.target.kind, self.epsilon2)
        return eps_hat, mu


@dataclass(frozen=True)
class IfgsmConfig:
    """The signed-gradient baseline's settings: `steps` fixed steps of
    size eps_inf/steps toward an L-infinity budget eps_inf. The baseline
    clips the frames after every step and perturbs each frame on its own;
    `box` and `mode` say so and are not settings."""

    eps_inf: float = 5e-3
    steps: int = 20
    loss: LossKind = LossKind.AEE
    target: Target = Target(TargetKind.ZERO)
    box = BoxConstraint.CLIPPING
    mode = PerturbMode.DISJOINT

    def __post_init__(self):
        _check_budget("eps_inf", self.eps_inf, self.steps)


@dataclass
class AttackResult:
    """An attack's outcome; `target` is the flow it aimed at, resolved
    once against `flow_init`."""

    perturbation: Perturbation
    frame1_adv: Image
    frame2_adv: Image
    flow_init: FlowField
    flow_adv: FlowField
    target: FlowField
    trace: OptimTrace
    l2_norm: float
    linf_norm: float
    eps_hat: float | None
    mu: float | None
    box_min_seen: float
    box_max_seen: float


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _flow_pair(fa, fb):
    a = fa.data if isinstance(fa, FlowField) else np.asarray(fa, dtype=np.float64)
    b = fb.data if isinstance(fb, FlowField) else np.asarray(fb, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"flow shapes differ: {a.shape} vs {b.shape}")
    return a, b


def loss_aee(flow, target) -> float:
    """Mean endpoint distance, smoothed so its gradient exists everywhere."""
    return _aee_grad(*_flow_pair(flow, target))[0]


def loss_mse(flow, target) -> float:
    """Mean squared endpoint distance."""
    return _mse_grad(*_flow_pair(flow, target))[0]


def loss_cs(flow, target) -> float:
    """Mean per-pixel cosine similarity in [-1, 1].

    Purely angular: with a zero target the value and gradient vanish
    identically, so attacks driven by it stall there by design.
    """
    return _cs_grad(*_flow_pair(flow, target))[0]


def _aee_grad(a, b):
    d = a - b
    ee = np.sqrt(d[0] ** 2 + d[1] ** 2 + AEE_SMOOTHING ** 2)
    npx = a.shape[1] * a.shape[2]
    val = float(np.sum(ee)) / npx
    grad = d / ee / npx
    return val, grad


def _mse_grad(a, b):
    d = a - b
    npx = a.shape[1] * a.shape[2]
    val = float(np.sum(d * d)) / npx
    grad = 2.0 * d / npx
    return val, grad


def _cs_grad(a, b):
    na = np.sqrt(a[0] ** 2 + a[1] ** 2)
    nb = np.sqrt(b[0] ** 2 + b[1] ** 2)
    dot = a[0] * b[0] + a[1] * b[1]
    den = na * nb + CS_STABILIZER
    npx = a.shape[1] * a.shape[2]
    val = float(np.sum(dot / den)) / npx
    # d/da of <a,b>/den; the norm's subgradient at a = 0 is taken as zero
    na_safe = np.where(na > 0, na, 1.0)
    unit_a = a / na_safe
    grad = (b - (dot / den) * nb * unit_a) / den / npx
    return val, grad


_LOSS_GRADS = {LossKind.AEE: _aee_grad, LossKind.MSE: _mse_grad,
               LossKind.CS: _cs_grad}


def _loss_floor(kind: LossKind, npx: int) -> float:
    """A float no larger than any finite value the loss returns on a grid
    of npx pixels.

    aee and mse average non-negative terms, and rounding keeps sums and
    quotients of non-negative floats non-negative: the floor is 0.

    cs averages <a,b> / (|a||b| + CS_STABILIZER), which Cauchy-Schwarz
    keeps in [-1, 1] in exact arithmetic, but its rounded value can fall
    a few ulps below -1 for large anti-aligned flows. With u = 2^-53, the
    rounded dot product is at most |a||b|(1+u)^2 in magnitude, each
    rounded norm at least |a|(1-u)^2 resp. |b|(1-u)^2, and the rounded
    denominator at least |a||b|(1-u)^6, so every rounded quotient is at
    least -(1+u)^3/(1-u)^6 >= -(1 + 10u). Summing npx such terms in any
    order loses at most gamma_(npx-1) = (npx-1)u/(1-(npx-1)u) of the sum
    of their magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., eq. 4.4), and the division by npx one more u.
    For npx below 2^40 the mean is therefore at least
    -(1 + (npx + 12)u(1 + 2^-12)), and the floor -(1 + 2(npx + 64)u)
    leaves a factor of about two to spare. This assumes no square or
    product overflows (the value would not be finite) and that no norm
    loses accuracy to underflow where |a||b| matters against
    CS_STABILIZER: that needs |a| below about 2^-500 with |b| above
    2^470, beyond any flow file's float32 range and any estimator output.
    """
    if kind == LossKind.CS:
        return -(1.0 + (npx + 64) * 2.0 ** -52)
    return 0.0


def loss_with_grad(kind: LossKind, flow, target):
    """(value, d value / d flow) for the requested loss."""
    return _LOSS_GRADS[LossKind(kind)](*_flow_pair(flow, target))


# ---------------------------------------------------------------------------
# penalty, box handling, default penalty weights
# ---------------------------------------------------------------------------

def penalty_value_grad(delta_hat: np.ndarray, eps_hat: float, mu: float,
                       grad: bool = True):
    """Exact penalty on the squared norms: mu * max(0, |d|^2 - eps_hat^2).

    The squared form avoids the norm's derivative pole at zero. At the
    kink |d|^2 == eps_hat^2 the inactive-side subgradient (zero) is used,
    so gradients are deterministic. With grad=False the gradient is None.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    d = np.asarray(delta_hat, dtype=np.float64).ravel()
    sq = float(np.dot(d, d))
    if sq > eps_hat * eps_hat:
        return mu * (sq - eps_hat * eps_hat), 2.0 * mu * d if grad else None
    return 0.0, np.zeros_like(d) if grad else None


def apply_cov(w: np.ndarray, image) -> tuple[np.ndarray, np.ndarray]:
    """Map unbounded auxiliaries to a perturbed frame strictly inside (0, 1).

    Returns (delta, perturbed) with perturbed = (tanh(w) + 1) / 2. The
    auxiliaries are saturated at |w| = 18 where float64 tanh would round
    to exactly 1, keeping the interval open in floating point too.
    """
    iz = image.data if isinstance(image, Image) else np.asarray(image, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != iz.shape:
        raise ShapeError(f"auxiliary shape {w.shape} != frame shape {iz.shape}")
    perturbed = 0.5 * (np.tanh(np.clip(w, -COV_WMAX, COV_WMAX)) + 1.0)
    return perturbed - iz, perturbed


def _cov_deriv(w):
    t = np.tanh(np.clip(w, -COV_WMAX, COV_WMAX))
    return 0.5 * (1.0 - t * t) * (np.abs(w) < COV_WMAX)


def cov_init(image) -> np.ndarray:
    """Auxiliaries reproducing the frame, i.e. zero initial distortion (up
    to the COV_KAPPA clamp that keeps atanh finite at exact 0/1 pixels)."""
    iz = image.data if isinstance(image, Image) else np.asarray(image, dtype=np.float64)
    return np.arctanh(2.0 * np.clip(iz, COV_KAPPA, 1.0 - COV_KAPPA) - 1.0)


_MU_AEE_TABLE = ((5e-4, 5e6), (1e-3, 1e6), (5e-3, 5e5), (1e-2, 1e5), (5e-2, 5e4))
_MU_PIN_ZERO_BUDGET = 1e12
_MU_ANCHOR_EPS = 5e-3
_MU_ANCHOR = {True: 5e6, False: 7e6}  # keyed by "target is zero flow"


def default_mu(loss: LossKind, target_kind: TargetKind, eps2: float) -> float:
    """Default penalty weight for a budget.

    Tabulated pairings for the endpoint-error loss; a single anchor with
    an inverse eps-mu trend for the squared and cosine losses. Budgets off
    the table interpolate log-linearly; a zero budget pins the
    perturbation with a fixed very large weight. A budget whose weight
    is not a finite positive float (eps2 below about 6.7e-134 for aee,
    1.4e-304 to 2e-304 for mse and cs) is a ValueError.
    """
    if not (eps2 >= 0):  # NaN included
        raise ValueError("eps2 must be non-negative")
    if eps2 == 0.0:
        return _MU_PIN_ZERO_BUDGET
    if LossKind(loss) == LossKind.AEE:
        for knot, mu in _MU_AEE_TABLE:
            if eps2 == knot:
                return mu
        xs = np.log([row[0] for row in _MU_AEE_TABLE])
        ys = np.log([row[1] for row in _MU_AEE_TABLE])
        lx = math.log(eps2)
        # the segment holding lx, or the end segment it extrapolates
        k = min(max(int(np.searchsorted(xs, lx)) - 1, 0), len(xs) - 2)
        slope = (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
        try:
            mu = math.exp(ys[k] + slope * (lx - xs[k]))
        except OverflowError:
            mu = math.inf
    else:
        anchor = _MU_ANCHOR[TargetKind(target_kind) == TargetKind.ZERO]
        mu = anchor * (_MU_ANCHOR_EPS / eps2)
    if not 0 < mu < math.inf:
        raise ValueError(f"eps2 = {eps2} has no finite default mu; set mu")
    return mu


# ---------------------------------------------------------------------------
# objective assembly and the attacks
# ---------------------------------------------------------------------------

def _as_image(frame) -> Image:
    return frame if isinstance(frame, Image) else Image(np.asarray(frame))


@dataclass(frozen=True)
class Parametrization:
    """How the flat optimizer variable x becomes a perturbed frame pair,
    for one box treatment and one perturbation mode.

    `realized` says what the penalty measures. A frame-specific disjoint
    attack (every change-of-variables one is disjoint) is penalized on
    the distortion p - i that survives the box, so the penalty gradient
    is pulled back through the box with the loss gradient. A joint or
    universal field is penalized raw: one penalty on x itself, added
    after the loss gradient has been pulled back. The change of variables
    is always realized: a raw penalty there would measure the tanh
    auxiliaries, so asking for one is a ValueError.
    """

    box: BoxConstraint
    mode: PerturbMode
    realized: bool

    def __post_init__(self):
        if self.box == BoxConstraint.COV and not self.realized:
            raise ValueError("the change of variables penalizes the realized "
                             "distortion, not its auxiliaries")

    def start(self, i1, i2) -> np.ndarray:
        """Zero distortion: the tanh auxiliaries of the frames under the
        change of variables, otherwise a zero field."""
        if self.box == BoxConstraint.COV:
            return np.concatenate([cov_init(i1).ravel(), cov_init(i2).ravel()])
        return np.zeros(i1.size if self.mode == PerturbMode.JOINT else 2 * i1.size)

    def fields(self, x, shape):
        """The two per-frame views of x (one shared field when joint)."""
        if self.mode == PerturbMode.JOINT:
            d = x.reshape(shape)
            return d, d
        size = x.size // 2
        return x[:size].reshape(shape), x[size:].reshape(shape)

    def apply(self, x, i1, i2):
        """(d1, d2, p1, p2): the penalized fields and the perturbed frames."""
        w1, w2 = self.fields(x, i1.shape)
        if self.box == BoxConstraint.COV:
            d1, p1 = apply_cov(w1, i1)
            d2, p2 = apply_cov(w2, i2)
            return d1, d2, p1, p2
        p1 = np.clip(i1 + w1, 0.0, 1.0)
        p2 = np.clip(i2 + w2, 0.0, 1.0)
        if self.realized:
            return p1 - i1, p2 - i2, p1, p2
        return w1, w2, p1, p2

    def pullback(self, x, i1, i2, gp1, gp2) -> np.ndarray:
        """Gradient w.r.t. x from gradients w.r.t. the perturbed frames."""
        w1, w2 = self.fields(x, i1.shape)
        if self.box == BoxConstraint.COV:
            return self.gather(_cov_deriv(w1) * gp1, _cov_deriv(w2) * gp2)
        m1 = (i1 + w1 >= 0.0) & (i1 + w1 <= 1.0)
        m2 = (i2 + w2 >= 0.0) & (i2 + w2 <= 1.0)
        return self.gather(m1 * gp1, m2 * gp2)

    def gather(self, g1, g2) -> np.ndarray:
        """Adjoint of `fields`: a shared field collects both frames' parts."""
        if self.mode == PerturbMode.JOINT:
            return (g1 + g2).ravel()
        return np.concatenate([g1.ravel(), g2.ravel()])


# Grid pixels per estimator call. One batched call for a group of pairs
# pays numpy's per-call overhead once, and that overhead dominates the
# sweeps of small grids; but a group's sweep arrays and tape outgrow the
# cache. Per pair against single calls (the table is in CHANGES.md), 4
# pairs of 64x64 gained 1.1-1.35x, 2 of 96x96 broke about even and 4 of
# 128x128 lost 20%, so groups stop at 4 pairs of 64x64. A larger pair runs
# alone, with one pair's tape.
GROUP_PIXELS = 4 * 64 * 64


def _pair_groups(pairs) -> list[list]:
    """Consecutive runs of pairs holding at most GROUP_PIXELS grid pixels
    in all, in order; a pair above it is a group of its own."""
    groups = []
    pixels = GROUP_PIXELS
    for pair in pairs:
        size = pair[0].shape[-2] * pair[0].shape[-1]
        if pixels + size > GROUP_PIXELS:
            groups.append([])
            pixels = 0
        groups[-1].append(pair)
        pixels += size
    return groups


class _SolveCache:
    """The last estimator solve of one attack, so that no frame stack is
    solved twice in a row.

    The key is the estimator and the bytes of the two (B, C, M, N) float64
    frame stacks it solved: bytes, so a frame holding -0.0 does not match
    one holding +0.0. The value is that solve's flows and VJP closure,
    whose tape the adjoint needs. A call with the kept key returns the
    kept solve; any other call drops it before its forward runs, so at
    most one tape is alive. The call's solve is kept, unless `keep` is
    false: then the cache is left empty. `take` hands over the kept flows
    of the frames it names, and nothing on a miss, and empties the cache.
    The kept stacks are referenced, not copied: callers pass arrays that
    nothing changes afterwards.
    """

    def __init__(self):
        self._kept = None  # (estimator, frames1, frames2, (flows, vjp))

    def _holds(self, estimator, frames1, frames2) -> bool:
        kept = self._kept
        return (kept is not None and kept[0] is estimator
                and _same_bytes(kept[1], frames1) and _same_bytes(kept[2], frames2))

    def solve(self, estimator: FlowEstimator, frames1, frames2, keep=True):
        if not self._holds(estimator, frames1, frames2):
            self._kept = None  # its tape, before the forward builds one
            self._kept = (estimator, frames1, frames2,
                          estimator.value_and_vjp(frames1, frames2))
        kept = self._kept
        if not keep:
            self._kept = None
        return kept[3]

    def take(self, estimator: FlowEstimator, frames1, frames2):
        """The kept flows if the kept solve is of these frames, else None;
        the cache is empty afterwards, its tape dropped."""
        hit = self._holds(estimator, frames1, frames2)
        kept, self._kept = self._kept, None
        return kept[3][0] if hit else None


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays hold the same bytes."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@dataclass
class PenalizedObjective:
    """x -> (value, gradient) of the mean flow loss over a list of
    (frame1, frame2, target) arrays plus the exact penalty on the
    perturbation.

    The penalty is one term, added once after the pair mean: on the
    distortion that survives the box when the parametrization is realized
    (a frame-specific attack, the one-pair case), else on x's raw fields,
    which every pair shares. A realized penalty over more than one pair
    is a ValueError; over its one pair, adding it after the mean is
    bitwise adding it to the pair's loss, since (l + p) / 1 == l / 1 + p.

    Each call makes two passes. The first runs no estimator: it applies x
    to every pair, records the extreme perturbed pixel values in
    box_min/box_max (so box exactness is checkable per iterate) and
    computes the penalty. The second runs the pairs through the
    estimator in `_pair_groups`, one batched call and one tape per group,
    and the per-pair terms add up in pair order, so every value and
    gradient is bitwise the one of a call per pair. With grad=False the
    adjoint sweep and the pull-back are skipped and the gradient is None;
    the value is bitwise the one a gradient call returns, because both
    add the same terms in the same order.

    When the pairs form one group, the solve goes through `solves`, the
    attack's one-entry solve cache: a call on frames that the last solve
    already solved (the gradient call at the point the line search just
    accepted, or the start when it equals the clean frames) runs only the
    adjoint, and any other call drops the kept tape before its forward.
    A call over several groups bypasses the cache with one tape per group.

    A value call given a finite `ceiling` (the optimizer's Armijo bar)
    compares `floor(x)`, the first pass's result, against it; when the
    floor already exceeds the ceiling, or is not finite, it returns the
    floor and skips the estimator.
    """

    estimator: FlowEstimator
    param: Parametrization
    pairs: list
    loss: LossKind
    eps_hat: float
    mu: float
    box_min: float = math.inf
    box_max: float = -math.inf
    solves: _SolveCache = field(default_factory=_SolveCache, repr=False,
                                compare=False)

    def __post_init__(self):
        if self.param.realized and len(self.pairs) > 1:
            raise ValueError("a realized penalty measures one pair's "
                             f"distortion, got {len(self.pairs)} pairs")

    def _penalty(self, d1, d2, grad=True):
        pval, gpen = penalty_value_grad(
            np.concatenate([d1.ravel(), d2.ravel()]), self.eps_hat, self.mu, grad)
        if not grad:
            return pval, None, None
        g = gpen.reshape((2,) + d1.shape)
        return pval, g[0], g[1]

    def _first_pass(self, x, grad=False):
        """The pass that runs no estimator: (mean of the pairs' loss
        floors, penalty, penalty gradient on the two penalized fields, or
        None twice without grad). Records the box extremes; one pair's
        fields are held at a time."""
        total = 0.0
        for i1, i2, target in self.pairs:
            d1, d2, p1, p2 = self.param.apply(x, i1, i2)
            self.box_min = min(self.box_min, float(p1.min()), float(p2.min()))
            self.box_max = max(self.box_max, float(p1.max()), float(p2.max()))
            total += _loss_floor(self.loss, target.shape[-2] * target.shape[-1])
        # the one pair's realized distortion, or x's raw fields
        return (total / len(self.pairs),) + self._penalty(d1, d2, grad)

    def floor(self, x) -> float:
        """A lower bound on the value at x that runs no estimator: the
        first pass, with every pair's loss replaced by `_loss_floor`.

        The loss terms are added and divided, and the penalty added,
        exactly as `__call__` does it. Rounding to nearest is monotone, so
        each rounded `+` and the division by the (positive) pair count map
        smaller operands to a result no larger: as every loss floor is at
        most the loss `__call__` computes, every partial sum here is at
        most its counterpart there, and floor(x) <= value(x) holds in
        floating point whenever the value is finite.
        """
        low, pval, _, _ = self._first_pass(x)
        return low + pval

    def __call__(self, x, grad=True, ceiling=math.inf):
        param = self.param
        # a raw penalty's gradient is taken after the last tape is dropped
        low, pval, g1, g2 = self._first_pass(x, grad and param.realized)
        if ceiling < math.inf and not low + pval <= ceiling:
            return low + pval, None  # rejected, or non-finite for the caller
        grad_fn = _LOSS_GRADS[self.loss]
        total = 0.0
        gx = np.zeros_like(x)
        groups = _pair_groups(self.pairs)
        for group in groups:
            frames = [param.apply(x, i1, i2)[2:] for i1, i2, _ in group]
            flows, vjp = self.solves.solve(
                self.estimator, np.stack([f[0] for f in frames]),
                np.stack([f[1] for f in frames]), keep=len(groups) == 1)
            gflows = np.empty_like(flows)
            for k, (_, _, target) in enumerate(group):
                lval, gflows[k] = grad_fn(flows[k], target)
                total += lval
            if grad:
                gp1s, gp2s = vjp(gflows)
                for k, (i1, i2, _) in enumerate(group):
                    gp1, gp2 = gp1s[k], gp2s[k]
                    if param.realized:
                        gp1, gp2 = gp1 + g1, gp2 + g2
                    gx += param.pullback(x, i1, i2, gp1, gp2)
            del vjp  # its tape, before the next group's forward builds one
        total = total / len(self.pairs) + pval
        if not grad:
            return total, None
        gx /= len(self.pairs)
        if not param.realized:
            _, g1, g2 = self._penalty(*param.fields(x, self.pairs[0][0].shape))
            gx += param.gather(g1, g2)
        return total, gx


def _frame_pairs(pairs) -> list[tuple[np.ndarray, np.ndarray]]:
    """The one frame check of every attack: (frame1, frame2) pairs of
    Images or arrays as validated arrays, every frame of one (C, M, N)
    shape. An empty list is a ValueError, a second shape a ShapeError."""
    arrays = [(_as_image(f1).data, _as_image(f2).data) for f1, f2 in pairs]
    if not arrays:
        raise ValueError("no frame pairs")
    shape = arrays[0][0].shape
    for frame in (f for pair in arrays for f in pair):
        if frame.shape != shape:
            raise ShapeError(f"frame shapes differ: {shape} vs {frame.shape}")
    return arrays


def _setup_pair(estimator: FlowEstimator, frame1, frame2, target: Target,
                solves: _SolveCache):
    """Check a frame pair, predict its unattacked flow through the
    attack's solve cache (which keeps the solve) and freeze the target
    against it: (frame1 array, frame2 array, flow_init, target)."""
    [(i1, i2)] = _frame_pairs([(frame1, frame2)])
    flows = solves.solve(estimator, i1[None], i2[None])[0]
    return i1, i2, FlowField(flows[0]), target.resolve(flows[0])


def _perturbation(mode: PerturbMode, d1, d2) -> Perturbation:
    """The fields d1, d2 of an attack as a Perturbation; a joint attack's
    two fields are its one shared field."""
    if mode == PerturbMode.JOINT:
        return Perturbation(mode, d1)
    return Perturbation(mode, d1, d2)


def _attack_result(solves: _SolveCache, estimator, mode: PerturbMode, d1, d2,
                   p1, p2, flow_init: FlowField, target, trace: OptimTrace,
                   box_seen, eps_hat=None, mu=None) -> AttackResult:
    """Package final fields and frames. The adversarial flow is the solve
    cache's kept flow when the final frames were the last ones solved,
    else `estimate_flow`'s, which builds no tape; the cache is left empty,
    before that solve runs. The result holds copies, never the cache or a
    VJP, so no tape outlives the attack."""
    flows = solves.take(estimator, p1[None], p2[None])
    flow_adv = (estimator.estimate_flow(p1, p2) if flows is None
                else FlowField(flows[0]))
    pert = _perturbation(mode, d1, d2)
    return AttackResult(
        perturbation=pert,
        frame1_adv=Image(p1),
        frame2_adv=Image(p2),
        flow_init=flow_init,
        flow_adv=flow_adv,
        target=FlowField(target),
        trace=trace,
        l2_norm=joint_l2_norm(pert),
        linf_norm=joint_linf_norm(pert),
        eps_hat=eps_hat,
        mu=mu,
        box_min_seen=box_seen[0],
        box_max_seen=box_seen[1],
    )


def pcfa_attack(estimator: FlowEstimator, frame1, frame2,
                cfg: PcfaConfig) -> AttackResult:
    """Run the budgeted attack: L-BFGS on the penalized objective.

    The perturbation starts at zero distortion; the box constraint holds
    at every objective evaluation by construction. The result records the
    unattacked and adversarial flows, the achieved norms, and the
    optimizer trace. The setup, every objective call and the final flow
    share one solve cache, so no frame stack is solved twice in a row.
    """
    solves = _SolveCache()
    i1, i2, flow_init, target = _setup_pair(estimator, frame1, frame2,
                                            cfg.target, solves)
    eps_hat, mu = cfg.budget(i1.shape)
    param = Parametrization(cfg.box, cfg.mode,
                            realized=cfg.mode == PerturbMode.DISJOINT)
    fun = PenalizedObjective(estimator, param, [(i1, i2, target)], cfg.loss,
                             eps_hat, mu, solves=solves)
    x, trace = lbfgs_minimize(fun, param.start(i1, i2),
                              LbfgsParams(max_steps=cfg.steps))
    return _attack_result(solves, estimator, cfg.mode, *param.apply(x, i1, i2),
                          flow_init, target, trace, (fun.box_min, fun.box_max),
                          eps_hat, mu)


def ifgsm_attack(estimator: FlowEstimator, frame1, frame2,
                 cfg: IfgsmConfig) -> AttackResult:
    """Iterative signed-gradient baseline with an L-infinity budget.

    Takes `cfg.steps` fixed steps of size eps_inf/steps along -sign(grad),
    one perturbation per frame, clipping the frames after every step;
    |delta| <= eps_inf holds afterwards only up to the rounding of
    clip(i + d) - i. The achieved joint L2
    norm is recorded so runs can be compared against L2-budgeted attacks.
    Step 0 takes its forward from the setup solve.
    """
    solves = _SolveCache()
    i1, i2, flow_init, tgt = _setup_pair(estimator, frame1, frame2,
                                         cfg.target, solves)
    grad_fn = _LOSS_GRADS[cfg.loss]
    step = cfg.eps_inf / cfg.steps
    trace = OptimTrace(grad_evals=cfg.steps)
    p1, p2 = i1, i2
    for n in range(cfg.steps):
        flows, vjp = solves.solve(estimator, p1[None], p2[None])
        lval, gflow = grad_fn(flows[0], tgt)
        g1, g2 = vjp(gflow[None])
        if n == 0:
            trace.initial_value = lval
        d1 = (p1 - i1) - step * np.sign(g1[0])
        d2 = (p2 - i2) - step * np.sign(g2[0])
        p1 = np.clip(i1 + d1, 0.0, 1.0)
        p2 = np.clip(i2 + d2, 0.0, 1.0)
        trace.values.append(lval)
        trace.step_lengths.append(step)
        # what the step read dies before the next step's solve
        del flows, vjp, gflow, g1, g2, d1, d2
    return _attack_result(solves, estimator, cfg.mode, p1 - i1, p2 - i2,
                          p1, p2, flow_init, tgt, trace,
                          (float(min(p1.min(), p2.min())),
                           float(max(p1.max(), p2.max()))))
