"""Seeded synthetic frame pairs with exactly known motion.

A pair is a band-limited random texture sampled on two grids offset by a
constant displacement, so the true flow is uniform and known. Fractional
displacements are deliberate: they keep warp sample positions away from
integer coordinates, where bilinear interpolation kinks would otherwise
pollute finite-difference checks.
"""

from __future__ import annotations

import numpy as np

from .core import FlowField, Image

__all__ = ["make_pair", "make_suite"]

CONTRAST = 0.8  # frames span [0.1, 0.9], away from the box bounds 0 and 1


def _texture(rng, channels, waves=8):
    amp = rng.uniform(0.3, 1.0, (channels, waves))
    freq = rng.uniform(0.02, 0.12, (channels, waves, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, (channels, waves))

    def sample(yy, xx):
        out = np.zeros((channels,) + yy.shape)
        for c in range(channels):
            for k in range(waves):
                out[c] += amp[c, k] * np.cos(
                    2.0 * np.pi * (freq[c, k, 0] * yy + freq[c, k, 1] * xx)
                    + phase[c, k])
        return out

    return sample


def make_pair(seed: int, height: int = 64, width: int = 64,
              channels: int = 1) -> tuple[Image, Image, FlowField]:
    """One texture pair translated by a random fractional displacement
    (dx, dy) with magnitude in [0.6, 1.8] px, at contrast CONTRAST.

    Returns (frame1, frame2, true_flow).
    """
    rng = np.random.default_rng(seed)
    mag = rng.uniform(0.6, 1.8)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    dx, dy = float(mag * np.cos(ang)), float(mag * np.sin(ang))
    tex = _texture(rng, channels)
    xx, yy = np.meshgrid(np.arange(width, dtype=float),
                         np.arange(height, dtype=float))
    raw1 = tex(yy, xx)
    raw2 = tex(yy - dy, xx - dx)  # content moves by (dx, dy) from frame1 to frame2
    lo = min(raw1.min(), raw2.min())
    hi = max(raw1.max(), raw2.max())
    span = max(hi - lo, 1e-12)
    mid = 0.5
    f1 = mid + CONTRAST * ((raw1 - lo) / span - 0.5)
    f2 = mid + CONTRAST * ((raw2 - lo) / span - 0.5)
    flow = np.empty((2, height, width))
    flow[0] = dx
    flow[1] = dy
    return Image(f1), Image(f2), FlowField(flow)


def make_suite(n_pairs: int = 10, seed: int = 2024, height: int = 64,
               width: int = 64, channels: int = 1):
    """A fixed list of `n_pairs` seeded pairs, for sweeps and regressions."""
    return [make_pair(seed + 17 * k, height, width, channels)
            for k in range(n_pairs)]
