"""Kernel probes for the diffflow layer, run outside the timed phase.

Both use the public estimator API only. The iteration fit times the
forward (`value_and_vjp`) and the adjoint (the returned vjp) for several
`EstimatorConfig(iterations=k)` at the workload's grid and solver shape,
then fits time = setup + k * per-iteration cost. The intercept is the
pyramid, derivative and coefficient work; the slope divided by the
pixels summed over pyramid levels is the Jacobi cost per pixel-iteration.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

ITERATIONS = (4, 8, 16, 32)
MIN_PROBE_S = 0.3
MAX_REPEATS = 5


def _pyramid_pixels(height: int, width: int, levels: int) -> int:
    total = 0
    for _ in range(levels):
        total += height * width
        height, width = (height + 1) // 2, (width + 1) // 2
    return total


def _best_of(fn) -> float:
    """Minimum wall time of `fn` over repeats totalling about MIN_PROBE_S."""
    best = float("inf")
    spent = 0.0
    for _ in range(MAX_REPEATS):
        start = time.perf_counter()
        fn()
        took = time.perf_counter() - start
        best = min(best, took)
        spent += took
        if spent >= MIN_PROBE_S:
            break
    return best


def iteration_fit(config, frame1, frame2) -> dict[str, float]:
    from flowattack.diffflow import EstimatorConfig, FlowEstimator

    _, height, width = frame1.data.shape
    cotangent = np.ones((2, height, width))
    fwd, adj = [], []
    for iterations in ITERATIONS:
        est = FlowEstimator(EstimatorConfig(alpha=config.alpha, iterations=iterations,
                                            pyramid_levels=config.pyramid_levels,
                                            warp=config.warp))
        fwd.append(_best_of(lambda: est.value_and_vjp(frame1, frame2)))
        _, vjp = est.value_and_vjp(frame1, frame2)
        adj.append(_best_of(lambda: vjp(cotangent)))
        del vjp
    px = _pyramid_pixels(height, width, config.pyramid_levels)
    fwd_slope, fwd_icpt = np.polyfit(ITERATIONS, fwd, 1)
    adj_slope, _ = np.polyfit(ITERATIONS, adj, 1)
    return {
        "diffflow.level_setup_ms": 1e3 * float(fwd_icpt),
        "diffflow.jacobi_fwd_ns_per_px_iter": 1e9 * float(fwd_slope) / px,
        "diffflow.jacobi_adj_ns_per_px_iter": 1e9 * float(adj_slope) / px,
    }


def tape_peak_mb(estimator, frame1, frame2) -> float:
    """Peak traced allocation of one forward with its tape plus one vjp."""
    _, height, width = frame1.data.shape
    cotangent = np.ones((2, height, width))
    tracemalloc.start()
    try:
        _, vjp = estimator.value_and_vjp(frame1, frame2)
        vjp(cotangent)
        del vjp
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20
