"""Differentiable optical-flow estimation with an exact input-gradient contract.

The estimator is an unrolled variational solver: a quadratic
brightness-constancy data term plus a quadratic smoothness term, minimized
by a fixed number of coupled per-pixel 2x2 Jacobi updates on the
Euler-Lagrange system. Optionally the solve runs coarse-to-fine over an
image pyramid, warping the second frame by the upsampled flow before each
level's solve. The iteration count and pyramid depth are fixed at
construction, so the computation graph is static and the closure that
`value_and_vjp` returns is the exact adjoint (vector-Jacobian product) of
that graph, hand-derived and verified against finite differences. Every
flow comes from one forward, `_forward`: `value_and_vjp` runs it with a
tape and `estimate_flow` without one, and both get the same bytes.

Stencil conventions (fixed so the adjoint is unambiguous): spatial
derivatives are central differences with replicated boundaries, averaged
over the two frames; the temporal derivative is the plain frame
difference; warping is bilinear with coordinates clamped to the image,
which zeroes the position gradient outside.

Solver layout: inside `_jacobi` and `_jacobi_adj` the flow (u, v) is one
stacked (2, L) array in a flat, zero-guarded layout (`_Guarded`): every
grid row ends in a zero guard column, and zero guard rows lie above and
below, so L = M * (N + 1) and the 4-neighbour sum is three adds of
shifted contiguous slices in the order up + down, + left, + right. The
2x2 solve is pre-divided: P = alpha * (d22, d11) / det and
Q = alpha * a12 / det, 0 on guard cells, turn a sweep into the residual
r' = nsum(w) - b / alpha and the update w = P * r' - Q * swap(r'), and
a reverse step into lambda' = P * g - Q * swap(g) and one neighbour sum
on it. Both kernels walk the span in row blocks of about BLOCK_PIXELS
pixels, so that a block's slices of the sweep arrays stay in cache
between numpy calls; every cell sees the same operations in the same
order, so the bytes do not depend on the blocking. Flows and gradients
agree with the original per-grid kernels (kept in the tests) to about
1e-15 of their largest entry.

Tapes hold exactly what the reverse sweep reads. The tape of a forward
pass is one level tape per pyramid level, finest first:
(ix, iy, it, jacobi tape, warp context). The image derivatives give the
coefficients' adjoint and, through their shapes, the level shapes; the
warp context is None where the level does not warp. The Jacobi tape is
(layout, alpha, P, Q, residuals, resweep): the pre-divided solve and the
scaled residuals r'_k = nsum(w_k) - b / alpha, not the iterates. A level
whose K residuals fit TAPE_LEVEL_BYTES keeps them all, one (K, 2, L)
array, (2K + 3) * M * (N + 1) floats per pair; a larger one, a KITTI-size
grid, is checkpointed into TAPE_SEGMENTS segments (`_jacobi`), and its
adjoint sweeps each earlier segment again. `FlowEstimator.tape_bytes`
gives the whole tape's size. Every buffer dies with its last reader. In
the forward, a level's coefficient grids die once P, Q and b / alpha
exist, and a warped frame once its derivatives do. The first call of a
VJP consumes the tape: the reverse pass takes each level off it on
arrival, so the finest level's Jacobi tape is gone before that level's
coefficient, derivative and warp adjoints run. A repeat call runs the
forward again on the same frames and gets the same bytes. A tape-free
forward keeps no level and only one residual row per sweep.

Batch axis: every primitive and kernel takes leading batch dims, frames
(..., C, M, N) and flows (..., M, N), and a (C, M, N) pair is the case
without them. Each pair of a batch has its own guarded buffer, its own
block of the warp's flat indices, and sums over its own channels, so
every flow and gradient is bitwise that of the pair's own call. A batch
runs each numpy call once for all its pairs, which saves the per-call
overhead that dominates the sweeps of small grids. Its tape is the sum
of its pairs' tapes, residuals (K, B, 2, L) per level or (s, B, 2, L)
checkpointed: whether a level is checkpointed depends on one pair's
grid, not on the batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import FlowField, Image, ShapeError

__all__ = ["EstimatorConfig", "FlowEstimator", "finite_diff_check", "builtin_estimators"]


# ---------------------------------------------------------------------------
# array primitives (forward + adjoint pairs)
# ---------------------------------------------------------------------------

def _dx(a):
    """Central x-derivative with edge replication, any leading dims; the
    last axis holds at least two samples."""
    out = np.empty_like(a, dtype=float)
    np.subtract(a[..., 2:], a[..., :-2], out=out[..., 1:-1])
    np.subtract(a[..., 1:2], a[..., :1], out=out[..., :1])
    np.subtract(a[..., -1:], a[..., -2:-1], out=out[..., -1:])
    out *= 0.5
    return out


def _dx_adj(g):
    """Adjoint of `_dx`: each edge sample takes both of its replicas' terms."""
    h = 0.5 * g
    out = np.empty_like(h)
    np.subtract(h[..., :-2], h[..., 2:], out=out[..., 1:-1])
    np.subtract(0.0, h[..., :1] + h[..., 1:2], out=out[..., :1])
    np.add(h[..., -2:-1], h[..., -1:], out=out[..., -1:])
    out += 0.0  # -0.0 to 0.0: the transpose sums its terms from 0.0
    return out


def _dy(a):
    return np.swapaxes(_dx(np.swapaxes(a, -1, -2)), -1, -2)


def _dy_adj(g):
    return np.swapaxes(_dx_adj(np.swapaxes(g, -1, -2)), -1, -2)


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


def _planes(shape):
    """Flat start of every (M, N) plane of a C-ordered array of `shape`,
    shaped to broadcast against it."""
    lead, (m, n) = shape[:-2], shape[-2:]
    return (np.arange(math.prod(lead)) * (m * n)).reshape(lead + (1, 1))


def _warp(img, u, v):
    """Bilinear sample of img at (i + v, j + u), coordinates clamped.

    img is (..., C, M, N) and the flow (..., M, N), with the same leading
    dims and M, N >= 2. Returns the warped image and the context needed by
    `_warp_adj`: (img, k, fx, fy, in_x, in_y), with k the flat index of
    each sample's top-left corner in its (M, N) plane. The corner is
    clamped to row M - 2 and column N - 2, so the other three corners lie
    at k + 1, k + N and k + N + 1, and each corner of a channel is one
    gather from the image's flat view: at k for a pair, offset by each
    pair's C * M * N block in a batch.
    """
    c, m, n = img.shape[-3:]
    xs = np.arange(n, dtype=float) + u
    ys = np.arange(m, dtype=float)[:, None] + v
    in_x = (xs > 0.0) & (xs < n - 1.0)
    in_y = (ys > 0.0) & (ys < m - 1.0)
    x = np.clip(xs, 0.0, n - 1.0, out=xs)
    y = np.clip(ys, 0.0, m - 1.0, out=ys)
    x0 = np.minimum(np.floor(x).astype(np.int64), n - 2)
    k = np.minimum(np.floor(y).astype(np.int64), m - 2)
    fx = np.subtract(x, x0, out=x)
    fy = np.subtract(y, k, out=y)
    k *= n
    k += x0
    gx = 1.0 - fx
    gy = 1.0 - fy
    flat = img.reshape(-1)
    kb = k + c * _planes(k.shape) if k.ndim > 2 else k
    out = np.empty_like(img)
    for ch in range(c):
        i00, i01, i10, i11 = (flat[ch * m * n + o:].take(kb) for o in (0, 1, n, n + 1))
        # (1 - fy) * ((1 - fx) * i00 + fx * i01) + fy * ((1 - fx) * i10 + fx * i11)
        i00 *= gx
        i01 *= fx
        i00 += i01
        i10 *= gx
        i11 *= fx
        i10 += i11
        i00 *= gy
        i10 *= fy
        np.add(i00, i10, out=out[..., ch, :, :])
    return out, (img, k, fx, fy, in_x, in_y)


def _warp_adj(g, ctx):
    """Adjoint of `_warp`: cotangents for the image and the flow.

    The image cotangent scatters each output pixel's four bilinear
    weights back to their source pixels. One `np.bincount` per channel
    does it for every pair at once: each pair's indices are offset by
    its own M * N block, and the corner blocks 00, 01, 10, 11 are
    concatenated in that order, so every source pixel accumulates its
    terms in a fixed order. The flow cotangent reduces over the channels
    as it forms them, one channel's gathers at a time, from +0.0 as
    `np.sum` does. The corner indices, 1 - fx, 1 - fy and the weights
    are formed once for all channels.
    """
    img, k, fx, fy, in_x, in_y = ctx
    c, m, n = img.shape[-3:]
    offsets = (0, 1, n, n + 1)  # corners 00, 01, 10, 11
    gx = 1.0 - fx
    gy = 1.0 - fy
    weights = np.empty((4,) + k.shape)
    for w, wy, wx in zip(weights, (gy, gy, fy, fy), (gx, fx, gx, fx)):
        np.multiply(wy, wx, out=w)
    pairs = _planes(k.shape)
    idx = np.add.outer(offsets, k + pairs if k.ndim > 2 else k).ravel()
    g_img = np.empty_like(img)
    terms = np.empty_like(weights)
    for ch in range(c):
        np.multiply(g[..., ch, :, :], weights, out=terms)
        g_img[..., ch, :, :] = np.bincount(
            idx, terms.ravel(), minlength=pairs.size * m * n).reshape(k.shape)
    del weights, idx, terms  # the flow part below sets the peak; keep it lean
    flat = img.reshape(-1)
    kb = k + c * pairs if k.ndim > 2 else k  # flat index into each pair's first channel
    g_u = np.zeros(k.shape)
    g_v = np.zeros(k.shape)
    for ch in range(c):
        i00, i01, i10, i11 = (flat[ch * m * n + o:].take(kb) for o in offsets)
        # g * ((1 - fy) * (i01 - i00) + fy * (i11 - i10)) into g_u, and
        # g * ((1 - fx) * (i10 - i00) + fx * (i11 - i01)) into g_v
        ex, tx = i01 - i00, i11 - i10
        ey, ty = np.subtract(i10, i00, out=i00), np.subtract(i11, i01, out=i11)
        ex *= gy
        tx *= fy
        ex += tx
        ex *= g[..., ch, :, :]
        g_u += ex
        ey *= gx
        ty *= fx
        ey += ty
        ey *= g[..., ch, :, :]
        g_v += ey
    g_u *= in_x
    g_v *= in_y
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
    g = 0.5 * (_dx_adj(gix) + _dy_adj(giy))
    return g - git, g + git


def _coefficients(ix, iy, it):
    """Per-pixel system coefficients, summed over the channel axis."""
    a11 = np.sum(ix * ix, axis=-3)
    a12 = np.sum(ix * iy, axis=-3)
    a22 = np.sum(iy * iy, axis=-3)
    b1 = np.sum(ix * it, axis=-3)
    b2 = np.sum(iy * it, axis=-3)
    return a11, a12, a22, b1, b2


def _coefficients_adj(ix, iy, it, *gcoef):
    ga11, ga12, ga22, gb1, gb2 = (np.expand_dims(g, -3) for g in gcoef)
    gix = 2.0 * ix * ga11 + iy * ga12 + it * gb1
    giy = 2.0 * iy * ga22 + ix * ga12 + it * gb2
    git = ix * gb1 + iy * gb2
    return gix, giy, git


# Grid pixels, over every pair of a batch, that one row block of a Jacobi
# sweep covers. A sweep's numpy calls take turns on six to nine span
# arrays; a block's slices of them stay in a 2 MiB L2 cache from one call
# to the next, where a whole KITTI-size span (7.5 MB per array) streams
# from memory at every call. Blocks of 8k to 32k pixels ran alike; a span
# at or below this runs as one block, as every 64x64 grid and a group of
# four of them do.
BLOCK_PIXELS = 4 * 64 * 64


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

    `lead` is the batch shape in front: every pair of a batch has its own
    buffer and span, so spans are (*lead, k, L) arrays. `blocks` cuts the
    span into row blocks of about BLOCK_PIXELS pixels over all pairs.
    """

    def __init__(self, lead, m, n):
        self.lead = lead
        self.shape = (m, n)
        self.stride = n + 1
        self.lo = n + 1
        self.hi = (m + 1) * (n + 1)
        rows = max(1, BLOCK_PIXELS // (n * math.prod(lead)))
        self.blocks = [slice(i * self.stride, min(i + rows, m) * self.stride)
                       for i in range(0, m, rows)]

    def put(self, *grids):
        """Stack (*lead, M, N) grids into a (*lead, len(grids), L) span array."""
        m, n = self.shape
        out = np.zeros(self.lead + (len(grids), m, n + 1))
        for k, grid in enumerate(grids):
            out[..., k, :, :n] = grid
        return out.reshape(self.lead + (len(grids), -1))

    def grids(self, a):
        """The k grids of a (..., k, L) span array, as (..., M, N) views."""
        m, n = self.shape
        cells = a.reshape(a.shape[:-1] + (m, n + 1))[..., :n]
        return tuple(np.moveaxis(cells, -3, 0))

    def buffer(self, span):
        """A (*lead, 2, M + 2, N + 1)-cell zero buffer and its (*lead, 2, L)
        span view."""
        buf = np.zeros(self.lead + (2, self.hi + self.stride))
        buf[..., self.lo:self.hi] = span
        return buf, buf[..., self.lo:self.hi]

    def neighbours(self, buf, cells):
        """The up, down, left and right neighbours in `buf` of the span
        cells `cells`, as views."""
        lo, hi, s = self.lo + cells.start, self.lo + cells.stop, self.stride
        return (buf[..., lo - s:hi - s], buf[..., lo + s:hi + s],
                buf[..., lo - 1:hi - 1], buf[..., lo + 1:hi + 1])


def _nsum(neighbours, out):
    """4-neighbour sum of one block: up + down, + left, + right."""
    up, down, left, right = neighbours
    np.add(up, down, out=out)
    out += left
    out += right


def _swap(a):
    """(u, v) -> (v, u) on the component axis of a (..., 2, L) span."""
    return a[..., ::-1, :]


def _solve(p, q, x, out, tmp):
    """out = p * x - q * swap(x) on one block: the pre-divided 2x2 solve,
    which is its own adjoint."""
    np.multiply(p, x, out=out)
    np.multiply(q, _swap(x), out=tmp)
    out -= tmp


def _predivide(coeffs, alpha):
    """The pre-divided 2x2 systems of `_jacobi`, from the (..., M, N)
    coefficient grids: (layout, alpha, P, Q, b'), the spans a sweep reads.

    With A = [[d11, a12], [a12, d22]] the solve is pre-divided:
    P = alpha * (d22, d11) / det and Q = alpha * a12 / det are A^-1 scaled
    by alpha, and b' = b / alpha. P and Q are 0 on guard cells, so the
    guards stay zero. Nothing of the coefficient grids outlives the call.
    """
    a11, a12, a22, b1, b2 = coeffs
    m, n = a11.shape[-2:]
    # in-grid neighbours: 4, less one for each grid border the cell is on
    i, j = np.arange(m)[:, None], np.arange(n)
    count = 4.0 - (i == 0) - (i == m - 1) - (j == 0) - (j == n - 1)
    d11 = a11 + alpha * count
    d22 = a22 + alpha * count
    det = d11 * d22 - a12 * a12
    lay = _Guarded(a11.shape[:-2], m, n)
    p = lay.put(alpha * d22 / det, alpha * d11 / det)
    q = lay.put(alpha * a12 / det)
    del d11, d22, det  # the tape sets the memory peak; hold nothing more
    return lay, alpha, p, q, lay.put(b1 / alpha, b2 / alpha)


# Bytes of one pair's K residuals at one level above which its Jacobi
# tape is checkpointed. Every 64x64 grid and the coarsest level of a
# KITTI-size hs-pyr pair (18.8 MB) keep the whole tape; the two finer
# KITTI levels (74.8 and 298 MB) are checkpointed.
TAPE_LEVEL_BYTES = 32 * 2 ** 20

# Segments of a checkpointed level's sweeps. A fixed count keeps the tape
# linear in K, so that a huge K cannot pass the memory refusal and then
# run for ever, as it could with about sqrt(K) checkpoints.
TAPE_SEGMENTS = 6


def _tape_plan(iters, cells):
    """(s, c) for a level of K = `iters` sweeps whose residual rows hold
    `cells` float64 values per pair: s sweeps per segment and c
    checkpoints. A level whose K rows fit TAPE_LEVEL_BYTES is one segment
    of K sweeps and no checkpoint, the whole tape; a larger one has
    segments of s = ceil(K / TAPE_SEGMENTS) sweeps, the first one shorter
    where s does not divide K, and a checkpoint at the start of every
    segment but the last, c = ceil(K / s) - 1. The last segment, the one
    whose residuals the tape keeps, is a full one, so the reverse sweep
    sweeps K - s sweeps again: 33 at K = 40."""
    seg = iters if 8 * iters * cells <= TAPE_LEVEL_BYTES else -(-iters // TAPE_SEGMENTS)
    return seg, -(-iters // seg) - 1


def _sweep_plan(lay, buf, w, p, q, b):
    """Each row block's slices of the arrays a sweep reads and writes,
    with its own slice of one scratch block."""
    tmp = np.empty(lay.lead + (2, lay.blocks[0].stop))
    return [(cells, lay.neighbours(buf, cells), b[..., cells], p[..., cells],
             q[..., cells], w[..., cells], tmp[..., :cells.stop - cells.start])
            for cells in lay.blocks]


def _residual(plan, r):
    """The scaled residual r' = nsum(w) - b' of the plan's iterate, into
    the (..., 2, L) row r, without the solve that would update w."""
    for cells, near, bb, *_ in plan:
        rb = r[..., cells]
        _nsum(near, out=rb)
        rb -= bb


def _sweeps(plan, rows):
    """One Jacobi sweep per (..., 2, L) row of `rows`, in place on the
    plan's iterate, leaving that sweep's scaled residual in the row."""
    for r in rows:
        behind = None
        for cells, near, bb, pb, qb, wb, tb in plan:
            rb = r[..., cells]
            _nsum(near, out=rb)
            rb -= bb
            if behind:
                _solve(*behind)
            behind = (pb, qb, rb, wb, tb)
        _solve(*behind)


def _jacobi(system, u0, v0, iters, tape=True):
    """Fixed number of coupled Jacobi sweeps on the Euler-Lagrange system.

    Each sweep solves the per-pixel 2x2 system exactly against the
    neighbor sums of the previous iterate. `system` is `_predivide`'s
    pre-divided form of the coefficients, and the start is (..., M, N)
    grids; leading dims are a batch of independent grids. The flow
    w = (u, v) is carried as one stacked (..., 2, L) span in the
    `_Guarded` layout. A sweep is the residual r' = nsum(w) - b' and the
    solve w = P * r' - Q * swap(r'), 7 numpy calls.

    The sweep runs in the span's row blocks (`_Guarded.blocks`), solving
    each block after the next block's residual: that residual reads the
    block's last row, which must still hold w_k. Every cell sees the same
    operations in the same order, so any blocking gives the same bytes.

    Returns the final flow and, with `tape`, the tape for the adjoint
    sweep, (layout, alpha, P, Q, residuals, resweep); without it every
    sweep writes its residual into one reused row and the tape is None.
    The tape holds what `_jacobi_adj` reads and nothing more: no iterate
    is kept where the residuals are, as the coefficient cotangents are
    bilinear in the cotangents and residuals. A whole tape keeps the
    residuals r'_k as one (K, ..., 2, L) array and resweep None:
    (2K + 3) * M * (N + 1) floats per grid. A checkpointed one
    (`_tape_plan`) splits the K sweeps into segments of s sweeps, the
    first one shorter where s does not divide K. It keeps the last
    segment's residuals in an (s, ..., 2, L) buffer, and as resweep b',
    the iterate at the start of each of the c other segments and the
    first segment's length: (2s + 2c + 5) * M * (N + 1) floats, 29 rows
    instead of 83 at K = 40. The sweeps and their bytes are the same in
    all three forms.
    """
    lay, alpha, p, q, b = system
    buf, w = lay.buffer(lay.put(u0, v0))
    w += 0.0  # -0.0 to 0.0, so no neighbour sum is -0.0 (0.0 + a never is)
    plan = _sweep_plan(lay, buf, w, p, q, b)
    if not tape:
        _sweeps(plan, itertools.repeat(np.empty(b.shape), iters))
        u, v = lay.grids(w)
        return u, v, None
    seg, checkpoints = _tape_plan(iters, b.size // math.prod(lay.lead))
    rs = np.empty((seg,) + b.shape)
    ws = np.empty((checkpoints,) + b.shape)
    first = iters - checkpoints * seg
    for k, w0 in enumerate(ws):
        np.copyto(w0, w)
        _sweeps(plan, rs[:seg if k else first])
    _sweeps(plan, rs)
    u, v = lay.grids(w)
    return u, v, (lay, alpha, p, q, rs, (b, ws, first) if checkpoints else None)


def _segments(lay, p, q, rs, resweep):
    """The residuals of a level's sweeps, segment by segment, last first:
    a whole tape's K rows, or a checkpointed tape's last segment and then
    each earlier segment swept again from its checkpoint into the same
    buffer, the forward's operations on the forward's bytes. A segment's
    last residual is the last row its re-sweep needs, so that sweep
    forms the residual alone and skips the solve."""
    yield rs
    if resweep is None:
        return
    b, ws, first = resweep
    buf, w = lay.buffer(0.0)
    plan = _sweep_plan(lay, buf, w, p, q, b)
    for k in range(len(ws) - 1, -1, -1):
        rows = rs[:len(rs) if k else first]
        np.copyto(w, ws[k])
        _sweeps(plan, rows[:-1])
        _residual(plan, rows[-1])
        yield rows


def _reverse_steps(lay, p, q, segments, g):
    """The K steps of `_jacobi_adj`, last sweep first, in place on the
    cotangent g, over the residual segments of `_segments`. Returns
    -sum lambda'_k, S and T as (..., 2, L) spans; the steps' scratch dies
    with the call."""
    gbuf, lam = lay.buffer(0.0)
    gb = np.zeros_like(g)
    s = np.zeros_like(g)
    t = np.zeros_like(g)
    tmp = np.empty(lay.lead + (2, lay.blocks[0].stop))
    plan = [(cells, lay.neighbours(gbuf, cells), p[..., cells], q[..., cells],
             g[..., cells], lam[..., cells], gb[..., cells], s[..., cells],
             t[..., cells], tmp[..., :cells.stop - cells.start])
            for cells in lay.blocks]
    for rows in segments:
        for r in rows[::-1]:
            behind = None
            for cells, near, pb, qb, gk, lk, gbk, sk, tk, tb in plan:
                _solve(pb, qb, gk, lk, tb)
                gbk -= lk
                rb = r[..., cells]
                np.multiply(gk, rb, out=tb)
                sk += tb
                np.multiply(gk, _swap(rb), out=tb)
                tk += tb
                if behind:
                    _nsum(*behind)
                behind = (near, gk)
            _nsum(*behind)
    return gb, s, t


def _jacobi_adj(gu, gv, tape):
    """Reverse sweep of `_jacobi`, on the same guarded layout and blocks.

    With g_k the cotangent of w_{k+1} = alpha A^-1 r'_k, step k forms
    lambda'_k = alpha A^-1 g_k = P * g_k - Q * swap(g_k), the cotangent of
    r'_k, subtracts it into gb and runs one neighbour sum on it: 11 numpy
    calls. A block's neighbour sum reads the next block's first row of
    lambda', so each block is summed after the next block's lambda'. b
    enters as b / alpha, so gb is divided by alpha once after the loop.

    A checkpointed tape runs its kept last segment first, then sweeps
    each earlier segment again from its checkpoint, one forward sweep per
    sweep of the segment, into the same residual buffer (`_segments`);
    the segment's last sweep forms only its residual.
    The steps still run k = K - 1 down to 0, so gb, S and T take their
    terms in the order a whole tape feeds them, and the bytes are equal.

    The coefficient cotangent -sum_k lambda_k w_{k+1}^T, with
    M = [[Pu, -Q], [-Q, Pv]] = alpha A^-1, is -M (sum_k g_k r'_k^T) M /
    alpha. It needs only S = sum g_k * r'_k and T = sum g_k * swap(r'_k),
    so no iterate is needed beyond the residuals; with t = T_u + T_v,

        ga11 = -(Pu^2 S_u + Q^2 S_v - Q Pu t) / alpha
        ga22 = -(Pv^2 S_v + Q^2 S_u - Q Pv t) / alpha
        ga12 = (2Q (Pu S_u + Pv S_v) - (Q^2 + Pu Pv) t) / alpha

    formed once after the loop, on the grids only. P = Q = 0 on guard
    cells, so nothing flows back from their finite cotangents.
    """
    lay, alpha, p, q, rs, resweep = tape
    g = lay.put(gu, gv)
    g += 0.0  # as in `_jacobi`
    gb, s, t = _reverse_steps(lay, p, q, _segments(lay, p, q, rs, resweep), g)
    gb /= alpha
    (pu, pv), (qq,) = lay.grids(p), lay.grids(q)
    (s1, s2), (t1, t2) = lay.grids(s), lay.grids(t)
    t12 = np.add(t1, t2, out=t1)
    ga11 = -(pu * pu * s1 + qq * qq * s2 - qq * pu * t12) / alpha
    ga22 = -(pv * pv * s2 + qq * qq * s1 - qq * pv * t12) / alpha
    ga12 = (2.0 * qq * (pu * s1 + pv * s2) - (qq * qq + pu * pv) * t12) / alpha
    gb1, gb2 = lay.grids(gb)
    gu, gv = lay.grids(g)
    return gu, gv, (ga11, ga12, ga22, gb1, gb2)


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorConfig:
    """Static solver shape: fixed before any attack runs against it."""

    alpha: float = 0.05
    iterations: int = 60
    pyramid_levels: int = 1
    warp: bool = False

    def __post_init__(self):
        if not (0 < self.alpha < math.inf):  # NaN included
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")


def _as_frame(x, batched=False) -> np.ndarray:
    a = x.data if isinstance(x, Image) else np.asarray(x, dtype=np.float64)
    if a.ndim not in ((3, 4) if batched else (3,)):
        want = "(C, M, N) or (B, C, M, N)" if batched else "(C, M, N)"
        raise ShapeError(f"frame must be {want}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("frame contains non-finite values")
    return a


class FlowEstimator:
    """Deterministic differentiable flow estimator with a VJP contract.

    Instances are immutable; `value_and_vjp`, the one solve, and
    `estimate_flow`, its flow, are pure and safe to call concurrently.
    `label` identifies the estimator in transfer-matrix reports; with no
    config the estimator is the built-in `hs`.
    """

    def __init__(self, config: EstimatorConfig | None = None, label: str = "hs"):
        self.config = config or EstimatorConfig()
        self.label = label

    def __repr__(self):
        return f"FlowEstimator({self.config!r}, label={self.label!r})"

    def _check_pair(self, frame1, frame2, batched=True):
        f1 = _as_frame(frame1, batched)
        f2 = _as_frame(frame2, batched)
        if f1.shape != f2.shape:
            raise ShapeError(f"frame shapes differ: {f1.shape} vs {f2.shape}")
        m, n = f1.shape[-2:]
        coarse = 2 ** (self.config.pyramid_levels - 1)
        if (m + coarse - 1) // coarse < 2 or (n + coarse - 1) // coarse < 2:
            raise ShapeError(
                f"{m}x{n} image too small for {self.config.pyramid_levels} pyramid levels")
        return f1, f2

    def _solve(self, f1, f2, tape):
        """`_forward` under raising floating-point errors, whose message
        names the estimator."""
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return self._forward(f1, f2, tape)
        except FloatingPointError as exc:
            raise FloatingPointError(f"estimator {self.label!r} (alpha = "
                                     f"{self.config.alpha!r}): {exc}") from None

    def _forward(self, f1, f2, tape):
        """Coarse to fine; returns the flow and, with `tape`, the level
        tapes, finest first, else None.

        The frames are (..., C, M, N) and the flow (..., M, N). With
        `warp` a level solves for an increment from zero, after warping
        the second frame by the upsampled flow (the coarsest level's zero
        flow would warp by the identity, so it skips that); without it a
        level solves for the flow from the upsampled start. Without
        `tape` no level is kept: its derivatives and warp context die once
        its coefficients exist, and its sweeps keep no residual.
        """
        cfg = self.config
        pyr1 = [f1]
        pyr2 = [f2]
        for _ in range(cfg.pyramid_levels - 1):
            pyr1.append(_down2(pyr1[-1]))
            pyr2.append(_down2(pyr2[-1]))
        levels = []
        u = v = np.zeros(f1.shape[:-3] + pyr1[-1].shape[-2:])
        for k, (i1, i2) in enumerate(zip(pyr1[::-1], pyr2[::-1])):
            m, n = i1.shape[-2:]
            wctx = None
            if k:
                u = 2.0 * _up2(u, m, n)
                v = 2.0 * _up2(v, m, n)
                if cfg.warp:
                    i2, wctx = _warp(i2, u, v)
            ix, iy, it = _derivatives(i1, i2)
            del i2  # a warped frame dies with its derivatives
            start = (np.zeros(u.shape),) * 2 if cfg.warp else (u, v)
            # the coefficient grids die once their pre-divided form exists
            system = _predivide(_coefficients(ix, iy, it), cfg.alpha)
            if not tape:
                del ix, iy, it, wctx  # a tape-free level keeps none of them
            su, sv, jtape = _jacobi(system, *start, cfg.iterations, tape)
            del system
            u, v = (u + su, v + sv) if cfg.warp else (su, sv)
            if tape:
                levels.append((ix, iy, it, jtape, wctx))
        return u, v, levels[::-1] if tape else None

    def _backward(self, gu, gv, levels):
        """The input gradients from the flow cotangent (gu, gv). Consumes
        `levels`, the forward's tape: each level is taken off the list when
        the reverse pass reaches it, and its arrays die with their last
        reader, so the finest level's Jacobi tape is gone before its
        coefficient, derivative and warp adjoints run."""
        cfg = self.config
        shapes = [level[0].shape[-2:] for level in levels]
        grads = []
        for lev in range(len(shapes)):
            ix, iy, it, jtape, wctx = levels.pop(0)
            gu0, gv0, gcoef = _jacobi_adj(gu, gv, jtape)
            del jtape
            if not cfg.warp:  # the solve started from the upsampled flow
                gu, gv = gu0, gv0
            g1, g2 = _derivatives_adj(*_coefficients_adj(ix, iy, it, *gcoef))
            del ix, iy, it, gu0, gv0, gcoef  # all read: free them before the warp adjoint
            if wctx is not None:
                g2, gu_w, gv_w = _warp_adj(g2, wctx)
                gu = gu + gu_w
                gv = gv + gv_w
            grads.append((g1, g2))
            if lev < len(shapes) - 1:
                mc, nc = shapes[lev + 1]
                gu = 2.0 * _up2_adj(gu, mc, nc)
                gv = 2.0 * _up2_adj(gv, mc, nc)
        for lev in range(len(shapes) - 1, 0, -1):
            m, n = shapes[lev - 1]
            for fine, coarse in zip(grads[lev - 1], grads[lev]):
                fine += _down2_adj(coarse, m, n)
        return grads[0]

    def estimate_flow(self, frame1, frame2) -> FlowField:
        """The flow of one (C, M, N) pair: `value_and_vjp`'s flow, bitwise,
        from a forward that keeps no tape."""
        f1, f2 = self._check_pair(frame1, frame2, batched=False)
        u, v, _ = self._solve(f1, f2, tape=False)
        flow = np.stack([u, v])
        flow.flags.writeable = False  # fresh and frozen: FlowField keeps it, uncopied
        return FlowField(flow)

    def value_and_vjp(self, frame1, frame2):
        """One forward pass returning the flow and a VJP closure.

        The frames are one (C, M, N) pair, or (B, C, M, N) stacks of B
        pairs solved in one batch: the flow is then (B, 2, M, N) and each
        pair's flow and gradients are bitwise those of its own call. The
        closure maps a cotangent shaped like the flow to the pair of
        frame-shaped input gradients. Its first call consumes the
        forward's tape, freeing each level's arrays as the reverse pass
        leaves them; a repeat call solves the frames again, under the
        same error state, and gets the same bytes. The frames are held by
        reference, not copied, so they must not change between calls. A
        forward that overflows, divides by zero or forms a NaN raises
        FloatingPointError, naming the estimator's label and alpha, instead
        of returning a non-finite flow.
        """
        f1, f2 = self._check_pair(frame1, frame2)
        lead = f1.shape[:-3]
        if lead == (1,):  # a batch of one runs as the pair: the same numbers,
            f1, f2 = f1[0], f2[0]  # and less overhead in every numpy call

        u, v, *tapes = self._solve(f1, f2, tape=True)  # until the first vjp call takes it
        solved = np.stack([u, v], axis=-3)
        flow = solved.reshape(lead + solved.shape[-3:])

        def vjp(cotangent):
            ct = np.asarray(cotangent, dtype=np.float64)
            if ct.shape != flow.shape:
                raise ShapeError(f"cotangent shape {ct.shape} != flow {flow.shape}")
            ct = ct.reshape(solved.shape)
            try:
                levels = tapes.pop()  # one call takes the tape, even from two threads
            except IndexError:  # a repeat call solves again
                levels = self._solve(f1, f2, tape=True)[2]
            grads = self._backward(ct[..., 0, :, :], ct[..., 1, :, :], levels)
            return tuple(g.reshape(lead + g.shape[-3:]) for g in grads)

        return flow, vjp

    def tape_bytes(self, shape, batch: int = 1) -> int:
        """Bytes of the tape that one forward keeps for its VJP, for
        `batch` pairs of frames whose last three dims `shape` gives (two
        dims are one channel): every array `_forward` allocates and keeps.
        Per pair and level of a C-channel M x N grid, with L = M * (N + 1)
        and K sweeps, that is in 8-byte values
        - the derivatives ix, iy, it: 3 * C * M * N;
        - the Jacobi tape: (2K + 3) * L whole, or (2s + 2c + 5) * L
          checkpointed into s-sweep segments with c checkpoints;
        - with warp, below the coarsest level: the corner index and fx
          and fy, 3 * M * N, and 2 * M * N bytes of in-range masks, beside
          the unwarped second frame of each level but the finest, whose
          frame is the caller's.
        Known before any solve, and the largest term of a forward plus
        VJP's memory."""
        m, n = shape[-2:]
        chans = shape[-3] if len(shape) > 2 else 1
        cfg = self.config
        total = 0
        for lev in range(cfg.pyramid_levels):
            seg, checkpoints = _tape_plan(cfg.iterations, 2 * m * (n + 1))
            rows = 2 * seg + 3 + (2 * checkpoints + 2 if checkpoints else 0)
            total += 8 * (rows * m * (n + 1) + 3 * chans * m * n)
            if cfg.warp and lev < cfg.pyramid_levels - 1:
                total += (8 * 3 + 2) * m * n + (8 * chans * m * n if lev else 0)
            m, n = (m + 1) // 2, (n + 1) // 2
        return batch * total


def finite_diff_check(estimator: FlowEstimator, frame1, frame2, loss, h: float,
                      seed: int = 0) -> float:
    """Max mixed relative error of the analytic input gradient vs central FD.

    `loss` maps a (2, M, N) flow array to (value, gradient-w.r.t.-flow).
    The analytic gradient composes that with the estimator adjoint; the
    check samples 64 random image coordinates across both frames, drawn
    from `seed`. Entries far below the gradient's own scale are judged
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
    for _ in range(64):
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
    """The two shipped solver configurations, keyed by label; `hs` is
    `EstimatorConfig()`."""
    single = FlowEstimator(EstimatorConfig(), label="hs")
    pyramidal = FlowEstimator(EstimatorConfig(alpha=0.05, iterations=40,
                                              pyramid_levels=3, warp=True),
                              label="hs-pyr")
    return {e.label: e for e in (single, pyramidal)}
