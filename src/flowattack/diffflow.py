"""Differentiable optical-flow estimation with an exact input-gradient contract.

The estimator is an unrolled variational solver: a quadratic
brightness-constancy data term plus a quadratic smoothness term, minimized
by a fixed number of coupled per-pixel 2x2 Jacobi updates on the
Euler-Lagrange system. Optionally the solve runs coarse-to-fine over an
image pyramid, warping the second frame by the upsampled flow before each
level's solve. The iteration count and pyramid depth are fixed at
construction, so the computation graph is static and `input_gradient`
returns the exact adjoint (vector-Jacobian product) of that graph,
hand-derived and verified against finite differences.

Stencil conventions (fixed so the adjoint is unambiguous): spatial
derivatives are central differences with replicated boundaries, averaged
over the two frames; the temporal derivative is the plain frame
difference; warping is bilinear with coordinates clamped to the image,
which zeroes the position gradient outside.

Solver layout: inside `_jacobi` and `_jacobi_adj` the flow (u, v) is one
stacked (2, L) array in a flat, zero-guarded layout (`_Guarded`): every
grid row ends in a zero guard column, and zero guard rows lie above and
below, so L = M * (N + 1) and the 4-neighbour sum is three adds of
shifted contiguous slices in the order up + down, + left, + right. A
sweep makes one such sum. The tape for the adjoint holds the residuals
r_k = alpha * nsum(w_k) - b, not the iterates: K stacked (2, L) arrays
per pyramid level. The reverse sweep recomputes each iterate pointwise
from its residual and makes one stacked neighbour sum, on the cotangent.
Every result is byte-identical to the per-grid `_nsum` formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FlowField, Image, ShapeError

__all__ = ["EstimatorConfig", "FlowEstimator", "finite_diff_check", "builtin_estimators"]


# ---------------------------------------------------------------------------
# array primitives (forward + adjoint pairs)
# ---------------------------------------------------------------------------

def _dx(a):
    """Central x-derivative with edge replication, any leading dims."""
    ap = np.pad(a, [(0, 0)] * (a.ndim - 1) + [(1, 1)], mode="edge")
    return 0.5 * (ap[..., 2:] - ap[..., :-2])


def _dx_adj(g):
    gp = np.zeros(g.shape[:-1] + (g.shape[-1] + 2,))
    gp[..., 2:] += 0.5 * g
    gp[..., :-2] -= 0.5 * g
    out = gp[..., 1:-1].copy()
    out[..., 0] += gp[..., 0]
    out[..., -1] += gp[..., -1]
    return out


def _dy(a):
    return np.swapaxes(_dx(np.swapaxes(a, -1, -2)), -1, -2)


def _dy_adj(g):
    return np.swapaxes(_dx_adj(np.swapaxes(g, -1, -2)), -1, -2)


def _nsum(a):
    """Sum over in-bounds 4-neighbors; self-adjoint by symmetry."""
    s = np.zeros_like(a)
    s[..., 1:, :] += a[..., :-1, :]
    s[..., :-1, :] += a[..., 1:, :]
    s[..., :, 1:] += a[..., :, :-1]
    s[..., :, :-1] += a[..., :, 1:]
    return s


def _ncount(height, width):
    return _nsum(np.ones((height, width)))


def _down2(a):
    """2x2 average pooling with edge replication on odd sizes."""
    m, n = a.shape[-2:]
    ap = np.pad(a, [(0, 0)] * (a.ndim - 2) + [(0, m & 1), (0, n & 1)], mode="edge")
    return 0.25 * (ap[..., 0::2, 0::2] + ap[..., 1::2, 0::2]
                   + ap[..., 0::2, 1::2] + ap[..., 1::2, 1::2])


def _down2_adj(g, m, n):
    gp = np.zeros(g.shape[:-2] + (m + (m & 1), n + (n & 1)))
    for di in (0, 1):
        for dj in (0, 1):
            gp[..., di::2, dj::2] += 0.25 * g
    out = gp[..., :m, :n].copy()
    if m & 1:
        out[..., m - 1, :] += gp[..., m, :n]
    if n & 1:
        out[..., :, n - 1] += gp[..., :m, n]
    if (m & 1) and (n & 1):
        out[..., m - 1, n - 1] += gp[..., m, n]
    return out


def _up2(a, m, n):
    """Nearest-neighbor 2x upsampling cropped to (m, n)."""
    return np.repeat(np.repeat(a, 2, axis=-2), 2, axis=-1)[..., :m, :n]


def _up2_adj(g, mc, nc):
    m, n = g.shape[-2:]
    gp = np.pad(g, [(0, 0)] * (g.ndim - 2) + [(0, 2 * mc - m), (0, 2 * nc - n)])
    return (gp[..., 0::2, 0::2] + gp[..., 1::2, 0::2]
            + gp[..., 0::2, 1::2] + gp[..., 1::2, 1::2])


def _warp(img, u, v):
    """Bilinear sample of img at (i + v, j + u), coordinates clamped.

    Returns the warped image and the context needed by `_warp_adj`.
    """
    c, m, n = img.shape
    jj, ii = np.meshgrid(np.arange(n, dtype=float), np.arange(m, dtype=float))
    x = np.clip(jj + u, 0.0, n - 1.0)
    y = np.clip(ii + v, 0.0, m - 1.0)
    in_x = (jj + u > 0.0) & (jj + u < n - 1.0)
    in_y = (ii + v > 0.0) & (ii + v < m - 1.0)
    x0 = np.minimum(np.floor(x).astype(np.int64), max(n - 2, 0))
    y0 = np.minimum(np.floor(y).astype(np.int64), max(m - 2, 0))
    fx = x - x0
    fy = y - y0
    x1 = np.minimum(x0 + 1, n - 1)
    y1 = np.minimum(y0 + 1, m - 1)
    i00 = img[:, y0, x0]
    i01 = img[:, y0, x1]
    i10 = img[:, y1, x0]
    i11 = img[:, y1, x1]
    out = ((1 - fy) * ((1 - fx) * i00 + fx * i01)
           + fy * ((1 - fx) * i10 + fx * i11))
    ctx = (img, x0, x1, y0, y1, fx, fy, in_x, in_y)
    return out, ctx


def _warp_adj(g, ctx):
    """Adjoint of `_warp`: cotangents for the image and the flow.

    The image cotangent scatters each output pixel's four bilinear
    weights back to their source pixels. One `np.bincount` per channel
    does it, over the corner blocks 00, 01, 10, 11 concatenated in that
    order, so every source pixel accumulates its terms in a fixed order.
    """
    img, x0, x1, y0, y1, fx, fy, in_x, in_y = ctx
    c, m, n = img.shape
    weights = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx])
    idx = np.stack([y0 * n + x0, y0 * n + x1, y1 * n + x0, y1 * n + x1]).ravel()
    g_img = np.empty_like(img)
    for ch in range(c):
        g_img[ch] = np.bincount(idx, (g[ch] * weights).ravel(),
                                minlength=m * n).reshape(m, n)
    del weights, idx  # the flow part below sets the peak; keep it lean
    i00 = img[:, y0, x0]
    i01 = img[:, y0, x1]
    i10 = img[:, y1, x0]
    i11 = img[:, y1, x1]
    dout_dx = (1 - fy) * (i01 - i00) + fy * (i11 - i10)
    dout_dy = (1 - fx) * (i10 - i00) + fx * (i11 - i01)
    g_u = np.sum(g * dout_dx, axis=0) * in_x
    g_v = np.sum(g * dout_dy, axis=0) * in_y
    return g_img, g_u, g_v


# ---------------------------------------------------------------------------
# one pyramid level: derivatives, coefficients, Jacobi iteration
# ---------------------------------------------------------------------------

def _derivatives(f1, f2):
    ix = 0.5 * (_dx(f1) + _dx(f2))
    iy = 0.5 * (_dy(f1) + _dy(f2))
    it = f2 - f1
    return ix, iy, it


def _derivatives_adj(gix, giy, git):
    g1 = 0.5 * (_dx_adj(gix) + _dy_adj(giy)) - git
    g2 = 0.5 * (_dx_adj(gix) + _dy_adj(giy)) + git
    return g1, g2


def _coefficients(ix, iy, it):
    a11 = np.sum(ix * ix, axis=0)
    a12 = np.sum(ix * iy, axis=0)
    a22 = np.sum(iy * iy, axis=0)
    b1 = np.sum(ix * it, axis=0)
    b2 = np.sum(iy * it, axis=0)
    return a11, a12, a22, b1, b2


def _coefficients_adj(ix, iy, it, ga11, ga12, ga22, gb1, gb2):
    gix = 2.0 * ix * ga11 + iy * ga12 + it * gb1
    giy = 2.0 * iy * ga22 + ix * ga12 + it * gb2
    git = ix * gb1 + iy * gb2
    return gix, giy, git


class _Guarded:
    """Flat, zero-guarded layout of an M x N grid for the Jacobi kernels.

    A buffer holds (M + 2) rows of N + 1 cells: each grid row ends in one
    guard column, and a guard row lies above and below the grid. Grid
    cell (i, j) sits at flat index (i + 1) * (N + 1) + j. The span
    `lo:hi` covers the M grid rows with their guard columns, L = M * (N + 1)
    cells; shifted by -(N + 1), +(N + 1), -1 and +1 it reads the up, down,
    left and right neighbour of every cell in it, and a neighbour outside
    the grid is a guard. Guards hold zero, so the 4-neighbour sum needs no
    bounds: three adds of contiguous slices.
    """

    def __init__(self, m, n):
        self.shape = (m, n)
        self.stride = n + 1
        self.lo = n + 1
        self.hi = (m + 1) * (n + 1)

    def put(self, *grids, guard=0.0):
        """Stack (M, N) grids into a (len(grids), L) span array."""
        m, n = self.shape
        out = np.full((len(grids), m, n + 1), guard)
        for k, grid in enumerate(grids):
            out[k, :, :n] = grid
        return out.reshape(len(grids), -1)

    def take(self, a):
        """The grid cells of a (..., L) span array, as a (..., M, N) view."""
        m, n = self.shape
        return a.reshape(a.shape[:-1] + (m, n + 1))[..., :n]

    def buffer(self, span):
        """A (2, M + 2, N + 1)-cell zero buffer and its (2, L) span view."""
        buf = np.zeros((2, self.hi + self.stride))
        buf[:, self.lo:self.hi] = span
        return buf, buf[:, self.lo:self.hi]

    def nsum(self, buf, out):
        """4-neighbour sum of a buffer's span: up + down, + left, + right."""
        lo, hi, s = self.lo, self.hi, self.stride
        np.add(buf[:, lo - s:hi - s], buf[:, lo + s:hi + s], out=out)
        out += buf[:, lo - 1:hi - 1]
        out += buf[:, lo + 1:hi + 1]
        return out


def _jacobi(coeffs, u0, v0, alpha, iters, ncnt):
    """Fixed number of coupled Jacobi sweeps on the Euler-Lagrange system.

    Each sweep solves the per-pixel 2x2 system exactly against the
    neighbor sums of the previous iterate. The flow (u, v) is carried as
    one stacked (2, L) span in the `_Guarded` layout, so a sweep is one
    neighbour sum r = alpha * nsum(w) - b and one solve
    w = (dd * r - a12 * r[::-1]) / det with dd = (d22, d11). det is inf on
    the guard cells, so the solve writes zeros there and the guards stay
    zero. Returns the final flow plus the tape for the adjoint sweep. The
    tape holds the K residuals r_k as one (K, 2, L) array, 2K * M * (N + 1)
    floats per level, about the 2(K + 1) * M * N of an iterate tape;
    `_jacobi_adj` recomputes each iterate w_{k+1} pointwise from r_k.
    """
    a11, a12, a22, b1, b2 = coeffs
    d11 = a11 + alpha * ncnt
    d22 = a22 + alpha * ncnt
    lay = _Guarded(*a11.shape)
    dd = lay.put(d22, d11)
    a12f = lay.put(a12)[0]
    detf = lay.put(d11 * d22 - a12 * a12, guard=np.inf)[0]
    del d11, d22  # the tape sets the memory peak; hold nothing more
    b = lay.put(b1, b2)
    buf, w = lay.buffer(lay.put(u0, v0))
    w += 0.0  # -0.0 to 0.0, so no neighbour sum is -0.0 (0.0 + a never is)
    rs = np.empty((iters,) + b.shape)
    for k in range(iters):
        r = lay.nsum(buf, out=rs[k])
        r *= alpha
        r -= b
        # w_k is spent, so w_{k+1} overwrites it; the next tape slot (b
        # after the last residual) holds a12 * r[::-1] meanwhile
        scratch = rs[k + 1] if k + 1 < iters else b
        np.multiply(dd, r, out=w)
        np.multiply(a12f, r[::-1], out=scratch)
        w -= scratch
        w /= detf
    u, v = lay.take(w)
    return u, v, (lay, rs, dd, detf)


def _jacobi_adj(gu, gv, coeffs, tape, alpha, iters):
    """Reverse sweep of `_jacobi`, on the same guarded layout.

    Step k recomputes the iterate w_{k+1} = (p, q) from the taped
    residual r_k and runs one stacked neighbour sum, on the cotangent.
    The cotangent's guard cells pick up finite sums, but the solve's
    transpose divides them by det = inf, so nothing flows back from them.
    """
    lay, rs, dd, det = tape
    a12 = lay.put(coeffs[1])[0]
    a2 = 2.0 * a12
    g = lay.put(gu, gv)
    g += 0.0  # as in `_jacobi`
    gbuf, gr = lay.buffer(0.0)
    gdiag = np.zeros_like(g)  # (ga11, ga22)
    ga12 = np.zeros_like(a12)
    gb = np.zeros_like(g)
    pq = np.empty_like(g)
    tmp = np.empty_like(g)
    for k in range(iters - 1, -1, -1):
        r = rs[k]
        np.multiply(dd, r, out=pq)
        np.multiply(a12, r[::-1], out=tmp)
        pq -= tmp
        pq /= det
        # ga12 += (gu * (2 a12 p - r2) + gv * (2 a12 q - r1)) / det
        np.multiply(a2, pq, out=tmp)
        tmp -= r[::-1]
        tmp *= g
        np.add(tmp[0], tmp[1], out=tmp[0])
        tmp[0] /= det
        ga12 += tmp[0]
        # (ga11, ga22) += (gu * (-p * d22) + gv * (r2 - q * d22),
        #                  gv * (-q * d11) + gu * (r1 - p * d11)) / det,
        # with gr's span as scratch until gr itself is computed
        np.negative(pq, out=tmp)
        tmp *= dd
        tmp *= g
        np.multiply(pq[::-1], dd, out=gr)
        np.subtract(r[::-1], gr, out=gr)
        gr *= g[::-1]
        tmp += gr
        tmp /= det
        gdiag += tmp
        np.multiply(g, dd, out=gr)
        np.multiply(g[::-1], a12, out=tmp)
        gr -= tmp
        gr /= det
        gb -= gr
        lay.nsum(gbuf, out=g)
        g *= alpha
    ga11, ga22 = lay.take(gdiag)
    gb1, gb2 = lay.take(gb)
    gu, gv = lay.take(g)
    return gu, gv, (ga11, lay.take(ga12), ga22, gb1, gb2)


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorConfig:
    """Static solver shape: fixed before any attack runs against it."""

    alpha: float = 0.05
    iterations: int = 100
    pyramid_levels: int = 1
    warp: bool = False

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")


def _as_frame(x) -> np.ndarray:
    a = x.data if isinstance(x, Image) else np.asarray(x, dtype=np.float64)
    if a.ndim != 3:
        raise ShapeError(f"frame must be (C, M, N), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("frame contains non-finite values")
    return a


class FlowEstimator:
    """Deterministic differentiable flow estimator with a VJP contract.

    Instances are immutable; `estimate_flow` and `input_gradient` are pure
    and safe to call concurrently. `label` identifies the estimator in
    transfer-matrix reports.
    """

    def __init__(self, config: EstimatorConfig | None = None, label: str = "hs"):
        self.config = config or EstimatorConfig()
        self.label = label

    def __repr__(self):
        return f"FlowEstimator({self.config!r}, label={self.label!r})"

    def _check_pair(self, frame1, frame2):
        f1 = _as_frame(frame1)
        f2 = _as_frame(frame2)
        if f1.shape != f2.shape:
            raise ShapeError(f"frame shapes differ: {f1.shape} vs {f2.shape}")
        m, n = f1.shape[1:]
        coarse = 2 ** (self.config.pyramid_levels - 1)
        if (m + coarse - 1) // coarse < 2 or (n + coarse - 1) // coarse < 2:
            raise ShapeError(
                f"{m}x{n} image too small for {self.config.pyramid_levels} pyramid levels")
        return f1, f2

    def _forward(self, f1, f2):
        cfg = self.config
        pyr1 = [f1]
        pyr2 = [f2]
        for _ in range(cfg.pyramid_levels - 1):
            pyr1.append(_down2(pyr1[-1]))
            pyr2.append(_down2(pyr2[-1]))
        levels = [None] * cfg.pyramid_levels
        u = np.zeros(pyr1[-1].shape[1:])
        v = np.zeros_like(u)
        for lev in range(cfg.pyramid_levels - 1, -1, -1):
            i1 = pyr1[lev]
            i2 = pyr2[lev]
            m, n = i1.shape[1:]
            if lev < cfg.pyramid_levels - 1:
                u = 2.0 * _up2(u, m, n)
                v = 2.0 * _up2(v, m, n)
            ncnt = _ncount(m, n)
            if cfg.warp:
                if lev < cfg.pyramid_levels - 1:
                    i2eff, wctx = _warp(i2, u, v)
                else:
                    i2eff, wctx = i2, None  # zero init: warp is the identity
                ix, iy, it = _derivatives(i1, i2eff)
                coeffs = _coefficients(ix, iy, it)
                du, dv, jtape = _jacobi(coeffs, np.zeros((m, n)), np.zeros((m, n)),
                                        cfg.alpha, cfg.iterations, ncnt)
                levels[lev] = (ix, iy, it, coeffs, jtape, wctx)
                u = u + du
                v = v + dv
            else:
                ix, iy, it = _derivatives(i1, i2)
                coeffs = _coefficients(ix, iy, it)
                u, v, jtape = _jacobi(coeffs, u, v, cfg.alpha, cfg.iterations, ncnt)
                levels[lev] = (ix, iy, it, coeffs, jtape, None)
        return u, v, (pyr1, pyr2, levels)

    def _backward(self, gu, gv, tape):
        cfg = self.config
        pyr1, pyr2, levels = tape
        g1pyr = [np.zeros_like(a) for a in pyr1]
        g2pyr = [np.zeros_like(a) for a in pyr2]
        for lev in range(cfg.pyramid_levels):
            ix, iy, it, coeffs, jtape, wctx = levels[lev]
            if cfg.warp:
                gu_init, gv_init = gu, gv  # u_out = u_init + du
                _, _, gcoef = _jacobi_adj(gu, gv, coeffs, jtape, cfg.alpha,
                                          cfg.iterations)
                gix, giy, git = _coefficients_adj(ix, iy, it, *gcoef)
                g1, g2eff = _derivatives_adj(gix, giy, git)
                g1pyr[lev] += g1
                if wctx is None:
                    g2pyr[lev] += g2eff
                else:
                    g2, gu_w, gv_w = _warp_adj(g2eff, wctx)
                    g2pyr[lev] += g2
                    gu_init = gu_init + gu_w
                    gv_init = gv_init + gv_w
            else:
                gu_init, gv_init, gcoef = _jacobi_adj(gu, gv, coeffs, jtape,
                                                      cfg.alpha, cfg.iterations)
                gix, giy, git = _coefficients_adj(ix, iy, it, *gcoef)
                g1, g2 = _derivatives_adj(gix, giy, git)
                g1pyr[lev] += g1
                g2pyr[lev] += g2
            if lev < cfg.pyramid_levels - 1:
                mc, nc = pyr1[lev + 1].shape[1:]
                gu = 2.0 * _up2_adj(gu_init, mc, nc)
                gv = 2.0 * _up2_adj(gv_init, mc, nc)
        for lev in range(cfg.pyramid_levels - 1, 0, -1):
            m, n = pyr1[lev - 1].shape[1:]
            g1pyr[lev - 1] += _down2_adj(g1pyr[lev], m, n)
            g2pyr[lev - 1] += _down2_adj(g2pyr[lev], m, n)
        return g1pyr[0], g2pyr[0]

    def estimate_flow(self, frame1, frame2) -> FlowField:
        """Flow after exactly the configured unrolled updates per level."""
        f1, f2 = self._check_pair(frame1, frame2)
        u, v, _ = self._forward(f1, f2)
        return FlowField(np.stack([u, v]))

    def value_and_vjp(self, frame1, frame2):
        """One forward pass returning the flow and a reusable VJP closure.

        The closure maps a (2, M, N) cotangent to the pair of
        image-shaped input gradients; it may be called repeatedly.
        """
        f1, f2 = self._check_pair(frame1, frame2)
        u, v, tape = self._forward(f1, f2)
        flow = np.stack([u, v])

        def vjp(cotangent):
            ct = np.asarray(cotangent, dtype=np.float64)
            if ct.shape != flow.shape:
                raise ShapeError(f"cotangent shape {ct.shape} != flow {flow.shape}")
            return self._backward(ct[0], ct[1], tape)

        return flow, vjp

    def input_gradient(self, frame1, frame2, cotangent):
        """Exact adjoint of the unrolled computation, linear in the cotangent."""
        ct = cotangent.data if isinstance(cotangent, FlowField) else np.asarray(
            cotangent, dtype=np.float64)
        _, vjp = self.value_and_vjp(frame1, frame2)
        return vjp(ct)


def finite_diff_check(estimator: FlowEstimator, frame1, frame2, loss, h: float,
                      num_coords: int = 64, seed: int = 0) -> float:
    """Max mixed relative error of the analytic input gradient vs central FD.

    `loss` maps a (2, M, N) flow array to (value, gradient-w.r.t.-flow).
    The analytic gradient composes that with the estimator adjoint; the
    check samples at least `num_coords` random image coordinates across
    both frames. Entries far below the gradient's own scale are judged
    on that scale rather than their tiny magnitude.
    """
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    f1 = _as_frame(frame1).copy()
    f2 = _as_frame(frame2).copy()
    flow, vjp = estimator.value_and_vjp(f1, f2)
    _, gflow = loss(flow)
    g1, g2 = vjp(np.asarray(gflow, dtype=np.float64))
    frames = [f1, f2]
    grads = [g1, g2]
    gmax = max(np.max(np.abs(g1)), np.max(np.abs(g2)), 1e-12)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(max(num_coords, 64)):
        z = int(rng.integers(2))
        c = int(rng.integers(f1.shape[0]))
        i = int(rng.integers(f1.shape[1]))
        j = int(rng.integers(f1.shape[2]))
        orig = frames[z][c, i, j]
        frames[z][c, i, j] = orig + h
        fp, _ = loss(estimator.estimate_flow(frames[0], frames[1]).data)
        frames[z][c, i, j] = orig - h
        fm, _ = loss(estimator.estimate_flow(frames[0], frames[1]).data)
        frames[z][c, i, j] = orig
        fd = (fp - fm) / (2.0 * h)
        an = grads[z][c, i, j]
        denom = max(abs(fd), abs(an), 1e-3 * gmax)
        worst = max(worst, abs(an - fd) / denom)
    return worst


def builtin_estimators() -> dict[str, FlowEstimator]:
    """The two shipped solver configurations, keyed by label."""
    single = FlowEstimator(EstimatorConfig(alpha=0.05, iterations=60,
                                           pyramid_levels=1, warp=False), label="hs")
    pyramidal = FlowEstimator(EstimatorConfig(alpha=0.05, iterations=40,
                                              pyramid_levels=3, warp=True),
                              label="hs-pyr")
    return {e.label: e for e in (single, pyramidal)}
