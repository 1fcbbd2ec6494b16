"""Dense image/flow containers and the shared budget arithmetic.

Layout convention, fixed package-wide: images are float64 arrays of shape
(C, M, N) with channel outermost and row-major pixels; flow fields are
(2, M, N) with the horizontal displacement u first, vertical v second,
both in pixels. All containers freeze their payload after construction,
so values are safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Image",
    "FlowField",
    "Perturbation",
    "PerturbMode",
    "ShapeError",
    "joint_l2_norm",
    "joint_linf_norm",
    "scale_bound",
    "clip01",
]


class ShapeError(ValueError):
    """Raised when array shapes violate a structural contract."""


def _freeze(a: np.ndarray) -> np.ndarray:
    """`a` as a read-only, C-contiguous float64 array. An array that is
    one already and owns its memory, a frozen payload or a fresh result
    its maker froze, is kept as it is; any other array the caller holds,
    writeable or a view, is copied first."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out is a and (a.flags.writeable or not a.flags.owndata):
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Image:
    """A validated frame: (C, M, N) values in [0, 1].

    Perturbed intermediates that may leave the unit range are plain arrays,
    not Images; construct an Image only after clipping back into range.
    """

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64)
        if a.ndim != 3 or min(a.shape) < 1:
            raise ShapeError(f"image must be (C, M, N), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("image contains non-finite values")
        if a.min() < 0.0 or a.max() > 1.0:
            raise ValueError("image values outside [0, 1]; clip first")
        object.__setattr__(self, "data", _freeze(a))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def pixels(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class FlowField:
    """A dense displacement field: (2, M, N), finite, in pixels."""

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64)
        if a.ndim != 3 or a.shape[0] != 2:
            raise ShapeError(f"flow must be (2, M, N), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("flow contains non-finite values")
        object.__setattr__(self, "data", _freeze(a))

    @property
    def u(self) -> np.ndarray:
        return self.data[0]

    @property
    def v(self) -> np.ndarray:
        return self.data[1]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @staticmethod
    def zeros(height: int, width: int) -> "FlowField":
        return FlowField(np.zeros((2, height, width)))


class PerturbMode(str, Enum):
    DISJOINT = "disjoint"
    JOINT = "joint"


@dataclass(frozen=True)
class Perturbation:
    """Additive input distortion for a frame pair.

    Disjoint mode carries one field per frame; joint mode carries a single
    field that is added to both frames. Values are finite but otherwise
    unbounded reals; range handling belongs to the attack's box constraint.
    """

    mode: PerturbMode
    first: np.ndarray
    second: np.ndarray | None = field(default=None)

    def __post_init__(self):
        a = np.asarray(self.first, dtype=np.float64)
        if a.ndim != 3 or min(a.shape) < 1:
            raise ShapeError(f"perturbation field must be (C, M, N), got {a.shape}")
        object.__setattr__(self, "first", _freeze(a))
        if self.mode == PerturbMode.JOINT:
            if self.second is not None:
                raise ShapeError("joint perturbation stores exactly one field")
        else:
            if self.second is None:
                raise ShapeError("disjoint perturbation needs a field per frame")
            b = np.asarray(self.second, dtype=np.float64)
            if b.shape != a.shape:
                raise ShapeError(f"field shapes differ: {a.shape} vs {b.shape}")
            object.__setattr__(self, "second", _freeze(b))
        if not all(np.all(np.isfinite(d)) for d in self.fields()):
            raise ValueError("perturbation contains non-finite values")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.first.shape

    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-frame fields; the joint field is returned for both frames."""
        if self.mode == PerturbMode.JOINT:
            return self.first, self.first
        return self.first, self.second

    @staticmethod
    def zeros(mode: PerturbMode, shape: tuple[int, int, int]) -> "Perturbation":
        z = np.zeros(shape)
        if mode == PerturbMode.JOINT:
            return Perturbation(mode, z)
        return Perturbation(mode, z, z.copy())


def joint_l2_norm(p: Perturbation) -> float:
    """L2 norm over both frames' distortions.

    A joint perturbation contributes its single field once per frame, so a
    given budget buys the same total input energy in either mode.
    """
    d1, d2 = p.fields()
    return math.sqrt(float(np.sum(d1 * d1) + np.sum(d2 * d2)))


def joint_linf_norm(p: Perturbation) -> float:
    """Largest absolute distortion over both frames' fields."""
    d1, d2 = p.fields()
    return float(max(np.abs(d1).max(), np.abs(d2).max()))


def scale_bound(eps2: float, pixels: int, channels: int) -> float:
    """Size-independent budget: eps2 * sqrt(2 * pixels * channels).

    eps2 then reads as the average distortion per pixel as a fraction of
    the color range; eps2 = 0.01 means 1% on average.
    """
    if not (eps2 >= 0):  # NaN included
        raise ValueError("eps2 must be non-negative")
    if pixels < 1 or channels < 1:
        raise ValueError("pixels and channels must be positive")
    return eps2 * math.sqrt(2.0 * pixels * channels)


def clip01(frame: np.ndarray) -> Image:
    """Crop a frame-shaped field to [0, 1] and validate it as an Image."""
    a = np.asarray(frame, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("cannot clip non-finite values")
    return Image(np.clip(a, 0.0, 1.0))
