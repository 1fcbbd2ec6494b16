import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from flowattack import diffflow as df
from flowattack.attack import LossKind, loss_with_grad
from flowattack.core import FlowField, ShapeError
from flowattack.diffflow import (EstimatorConfig, FlowEstimator,
                                 builtin_estimators, finite_diff_check)
from flowattack.synthetic import make_pair


def aee_to_zero(flow):
    return loss_with_grad(LossKind.AEE, flow, np.zeros_like(flow))


class TestPrimitiveAdjoints:
    """Dot tests: <g, L x> == <L^T g, x> for every linear building block."""

    @pytest.mark.parametrize("shape", [(5, 7), (1, 6, 6), (3, 4, 9)])
    def test_dx_dy(self, shape):
        rng = np.random.default_rng(0)
        x = rng.normal(size=shape)
        for fwd, adj in [(df._dx, df._dx_adj), (df._dy, df._dy_adj)]:
            g = rng.normal(size=shape)
            lhs = np.sum(g * fwd(x))
            rhs = np.sum(adj(g) * x)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_neighbor_sum_self_adjoint(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 8))
        g = rng.normal(size=(6, 8))
        assert np.sum(g * _nsum(x)) == pytest.approx(
            np.sum(_nsum(g) * x), rel=1e-12)

    @pytest.mark.parametrize("shape", [(6, 8), (7, 9), (1, 5, 5)])
    def test_down2(self, shape):
        rng = np.random.default_rng(2)
        x = rng.normal(size=shape)
        y = df._down2(x)
        g = rng.normal(size=y.shape)
        m, n = shape[-2:]
        assert np.sum(g * y) == pytest.approx(
            np.sum(df._down2_adj(g, m, n) * x), rel=1e-12)

    @pytest.mark.parametrize("mn", [(13, 9), (12, 10)])
    def test_up2(self, mn):
        rng = np.random.default_rng(3)
        m, n = mn
        mc, nc = (m + 1) // 2, (n + 1) // 2
        x = rng.normal(size=(mc, nc))
        y = df._up2(x, m, n)
        g = rng.normal(size=(m, n))
        assert np.sum(g * y) == pytest.approx(
            np.sum(df._up2_adj(g, mc, nc) * x), rel=1e-12)

    def test_warp_adjoints(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, (2, 9, 10))
        u = rng.uniform(-1.3, 1.3, (9, 10)) + 0.37  # keep off integer coords
        v = rng.uniform(-1.3, 1.3, (9, 10)) + 0.29
        out, ctx = df._warp(img, u, v)
        g = rng.normal(size=out.shape)
        g_img, g_u, g_v = df._warp_adj(g, ctx)
        # image part is linear: dot test
        d_img = rng.normal(size=img.shape)
        out2, _ = df._warp(img + 1e-7 * d_img, u, v)
        fd = np.sum(g * (out2 - out)) / 1e-7
        assert fd == pytest.approx(np.sum(g_img * d_img), rel=1e-5)
        # position part: central differences
        d_u = rng.normal(size=u.shape)
        d_v = rng.normal(size=v.shape)
        h = 1e-6
        op, _ = df._warp(img, u + h * d_u, v + h * d_v)
        om, _ = df._warp(img, u - h * d_u, v - h * d_v)
        fd = np.sum(g * (op - om)) / (2 * h)
        an = np.sum(g_u * d_u) + np.sum(g_v * d_v)
        assert an == pytest.approx(fd, rel=1e-4)


class TestEstimateFlow:
    def test_alpha_must_be_finite(self):
        with pytest.raises(ValueError):
            EstimatorConfig(alpha=np.inf)

    def test_identical_frames_zero_flow(self, fast_estimator):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, (3, 12, 12))
        flow = fast_estimator.estimate_flow(img, img)
        assert np.max(np.abs(flow.data)) <= 1e-6

    def test_identical_frames_zero_flow_pyramidal(self, pyramid_estimator):
        rng = np.random.default_rng(6)
        img = rng.uniform(0, 1, (1, 16, 16))
        flow = pyramid_estimator.estimate_flow(img, img)
        assert np.max(np.abs(flow.data)) <= 1e-6

    def test_constant_image_exact_zero(self, fast_estimator):
        img = np.full((1, 8, 8), 0.4)
        flow = fast_estimator.estimate_flow(img, img.copy())
        assert np.array_equal(flow.data, np.zeros((2, 8, 8)))

    def test_deterministic(self, pyramid_estimator, small_pair):
        f1, f2, _ = small_pair
        a = pyramid_estimator.estimate_flow(f1, f2)
        b = pyramid_estimator.estimate_flow(f1, f2)
        assert np.array_equal(a.data, b.data)

    def test_shape_mismatch(self, fast_estimator):
        with pytest.raises(ShapeError):
            fast_estimator.estimate_flow(np.zeros((1, 8, 8)),
                                         np.zeros((1, 8, 9)))

    def test_too_small_for_pyramid(self):
        est = FlowEstimator(EstimatorConfig(pyramid_levels=4))
        with pytest.raises(ShapeError):
            est.estimate_flow(np.zeros((1, 8, 8)), np.zeros((1, 8, 8)))

    def test_ramp_shift_against_energy_minimizer(self):
        """Translating ramp: the energy's minimizer has unit horizontal
        flow; the unrolled solver must land within 15% of it. Oracle:
        conjugate gradients to convergence on the same discrete system."""
        m = n = 32
        alpha = 0.01
        x = np.linspace(0.0, 1.0, n)[None, None, :] * np.ones((1, m, 1))
        slope_px = 0.8 / (n - 1)
        f1 = 0.1 + 0.8 * x
        f2 = np.clip(f1 - slope_px, 0.0, 1.0)  # content shifted right 1 px

        est = FlowEstimator(EstimatorConfig(alpha=alpha, iterations=400,
                                            pyramid_levels=1, warp=False))
        flow = est.estimate_flow(f1, f2)

        # oracle: assemble the Euler-Lagrange system and solve it exactly
        ix, iy, it = df._derivatives(f1, f2)
        a11, a12, a22, b1, b2 = df._coefficients(ix, iy, it)
        npx = m * n
        lap = sp.csr_matrix((npx, npx))
        idx = np.arange(npx).reshape(m, n)
        rows, cols = [], []
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            src = idx[max(di, 0):m + min(di, 0), max(dj, 0):n + min(dj, 0)]
            dst = idx[max(-di, 0):m + min(-di, 0), max(-dj, 0):n + min(-dj, 0)]
            rows.append(src.ravel())
            cols.append(dst.ravel())
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        adj = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                            shape=(npx, npx)).tocsr()
        ncount = np.asarray(adj.sum(axis=1)).ravel()
        lap = sp.diags(ncount) - adj
        system = sp.bmat([
            [sp.diags(a11.ravel()) + alpha * lap, sp.diags(a12.ravel())],
            [sp.diags(a12.ravel()), sp.diags(a22.ravel()) + alpha * lap],
        ]).tocsr()
        rhs = -np.concatenate([b1.ravel(), b2.ravel()])
        sol, info = spla.cg(system, rhs, rtol=1e-12, maxiter=20000)
        assert info == 0
        u_exact = sol[:npx].reshape(m, n)

        interior = (slice(4, -4), slice(4, -4))
        assert abs(u_exact[interior].mean() - 1.0) <= 0.15
        assert abs(flow.u[interior].mean() - 1.0) <= 0.15


class TestInputGradient:
    def test_zero_cotangent(self, fast_estimator, small_pair):
        f1, f2, _ = small_pair
        g1, g2 = fast_estimator.input_gradient(f1, f2,
                                               FlowField.zeros(32, 32))
        assert not g1.any() and not g2.any()

    @pytest.mark.parametrize("pair", ["small_pair", "seed1"])
    def test_linearity_in_cotangent(self, pyramid_estimator, small_pair, pair):
        """Linear up to rounding: the error is judged on the scale of the
        gradient's largest entry, since an entry near zero keeps the
        absolute rounding of its larger neighbours."""
        f1, f2, _ = small_pair if pair == "small_pair" else make_pair(1, 32, 32)
        rng = np.random.default_rng(7)
        flow, vjp = pyramid_estimator.value_and_vjp(f1, f2)
        ct1 = rng.normal(size=flow.shape)
        ct2 = rng.normal(size=flow.shape)
        a, b = 1.7, -0.4
        g1_lin, g2_lin = vjp(a * ct1 + b * ct2)
        g1a, g2a = vjp(ct1)
        g1b, g2b = vjp(ct2)
        assert _close((g1_lin, g2_lin), (a * g1a + b * g1b, a * g2a + b * g2b))

    def test_cotangent_shape_checked(self, fast_estimator, small_pair):
        f1, f2, _ = small_pair
        with pytest.raises(ShapeError):
            fast_estimator.input_gradient(f1, f2, np.zeros((2, 8, 8)))

    def test_one_step_solve_adjoint_exact(self):
        """The Jacobi update is linear in the flow iterate; its adjoint
        must match in exact arithmetic, checked as a dot test."""
        rng = np.random.default_rng(8)
        m, n = 6, 7
        a11 = rng.uniform(0.5, 1.0, (m, n))
        a22 = rng.uniform(0.5, 1.0, (m, n))
        a12 = rng.uniform(-0.2, 0.2, (m, n))
        b1 = rng.normal(0, 0.1, (m, n))
        b2 = rng.normal(0, 0.1, (m, n))
        coeffs = (a11, a12, a22, b1, b2)
        alpha = 0.07
        u0 = rng.normal(size=(m, n))
        v0 = rng.normal(size=(m, n))
        zero = np.zeros((m, n))
        u1, v1, _ = df._jacobi(coeffs, u0, v0, alpha, 1)
        u1z, v1z, tape0 = df._jacobi(coeffs, zero, zero, alpha, 1)
        cu = rng.normal(size=(m, n))
        cv = rng.normal(size=(m, n))
        gu, gv, _ = df._jacobi_adj(cu, cv, df._jacobi(coeffs, u0, v0, alpha, 1)[2])
        lhs = np.sum(cu * (u1 - u1z)) + np.sum(cv * (v1 - v1z))
        rhs = np.sum(gu * u0) + np.sum(gv * v0)
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestFiniteDiffCheck:
    def test_aee_to_zero_at_1e3(self, fast_estimator):
        f1, f2, _ = make_pair(123, 16, 16)
        err = finite_diff_check(fast_estimator, f1, f2, aee_to_zero, h=1e-3)
        assert err < 1e-4

    @pytest.mark.parametrize("label", ["hs", "hs-pyr"])
    @pytest.mark.parametrize("loss", list(LossKind))
    def test_all_losses_all_estimators(self, label, loss):
        est = builtin_estimators()[label]
        rng = np.random.default_rng(9)
        target = rng.normal(0, 1.0, (2, 16, 16))
        f1, f2, _ = make_pair(17, 16, 16)
        err = finite_diff_check(
            est, f1, f2, lambda fl: loss_with_grad(loss, fl, target), h=1e-5)
        assert err < 1e-4

    def test_h_zero_rejected(self, fast_estimator, small_pair):
        f1, f2, _ = small_pair
        with pytest.raises(ValueError):
            finite_diff_check(fast_estimator, f1, f2, aee_to_zero, h=0.0)


# ---------------------------------------------------------------------------
# solver kernels: byte-equal to the per-grid kernels, exact dot tests
# ---------------------------------------------------------------------------

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


def _reference_jacobi(coeffs, u0, v0, alpha, iters, ncnt):
    """Jacobi sweeps with two `_nsum` calls per sweep and the iterates on
    the tape, the solver's original kernel, kept as the oracle."""
    a11, a12, a22, b1, b2 = coeffs
    d11 = a11 + alpha * ncnt
    d22 = a22 + alpha * ncnt
    det = d11 * d22 - a12 * a12
    us = [u0]
    vs = [v0]
    u, v = u0, v0
    for _ in range(iters):
        r1 = alpha * _nsum(u) - b1
        r2 = alpha * _nsum(v) - b2
        u = (d22 * r1 - a12 * r2) / det
        v = (d11 * r2 - a12 * r1) / det
        us.append(u)
        vs.append(v)
    return u, v, (us, vs, d11, d22, det)


def _reference_jacobi_adj(gu, gv, coeffs, tape, alpha, iters):
    """Reverse sweep of `_reference_jacobi`: four `_nsum` calls a step."""
    a11, a12, a22, b1, b2 = coeffs
    us, vs, d11, d22, det = tape
    ga11 = np.zeros_like(a11)
    ga12 = np.zeros_like(a12)
    ga22 = np.zeros_like(a22)
    gb1 = np.zeros_like(b1)
    gb2 = np.zeros_like(b2)
    gu = gu.copy()
    gv = gv.copy()
    for k in range(iters - 1, -1, -1):
        r1 = alpha * _nsum(us[k]) - b1
        r2 = alpha * _nsum(vs[k]) - b2
        p = us[k + 1]
        q = vs[k + 1]
        gr1 = (gu * d22 - gv * a12) / det
        gr2 = (gv * d11 - gu * a12) / det
        ga11 += (gu * (-p * d22) + gv * (r2 - q * d22)) / det
        ga22 += (gu * (r1 - p * d11) + gv * (-q * d11)) / det
        ga12 += (gu * (2.0 * a12 * p - r2) + gv * (2.0 * a12 * q - r1)) / det
        gb1 -= gr1
        gb2 -= gr2
        gu = alpha * _nsum(gr1)
        gv = alpha * _nsum(gr2)
    return gu, gv, (ga11, ga12, ga22, gb1, gb2)


def _reference_jacobi_taped(coeffs, u0, v0, alpha, iters):
    """`_reference_jacobi` behind the signature of `df._jacobi`."""
    ncnt = _ncount(*u0.shape)
    u, v, tape = _reference_jacobi(coeffs, u0, v0, alpha, iters, ncnt)
    return u, v, (coeffs, tape, alpha, iters)


def _reference_jacobi_adj_taped(gu, gv, tape):
    """`_reference_jacobi_adj` behind the signature of `df._jacobi_adj`."""
    coeffs, tape, alpha, iters = tape
    return _reference_jacobi_adj(gu, gv, coeffs, tape, alpha, iters)


def _reference_warp_adj(g, ctx):
    """Warp adjoint scattering with `np.add.at`, the original kernel."""
    img, x0, x1, y0, y1, fx, fy, in_x, in_y = ctx
    c, m, n = img.shape
    w00 = (1 - fy) * (1 - fx)
    w01 = (1 - fy) * fx
    w10 = fy * (1 - fx)
    w11 = fy * fx
    g_img = np.zeros_like(img)
    for ch in range(c):
        np.add.at(g_img[ch], (y0, x0), g[ch] * w00)
        np.add.at(g_img[ch], (y0, x1), g[ch] * w01)
        np.add.at(g_img[ch], (y1, x0), g[ch] * w10)
        np.add.at(g_img[ch], (y1, x1), g[ch] * w11)
    i00 = img[:, y0, x0]
    i01 = img[:, y0, x1]
    i10 = img[:, y1, x0]
    i11 = img[:, y1, x1]
    dout_dx = (1 - fy) * (i01 - i00) + fy * (i11 - i10)
    dout_dy = (1 - fx) * (i10 - i00) + fx * (i11 - i01)
    g_u = np.sum(g * dout_dx, axis=0) * in_x
    g_v = np.sum(g * dout_dy, axis=0) * in_y
    return g_img, g_u, g_v


def _reference_forward(cfg, f1, f2):
    """The estimator's original forward pass: one level body per `warp`
    branch, on the reference kernels."""
    pyr1 = [f1]
    pyr2 = [f2]
    for _ in range(cfg.pyramid_levels - 1):
        pyr1.append(df._down2(pyr1[-1]))
        pyr2.append(df._down2(pyr2[-1]))
    levels = [None] * cfg.pyramid_levels
    u = np.zeros(pyr1[-1].shape[1:])
    v = np.zeros_like(u)
    for lev in range(cfg.pyramid_levels - 1, -1, -1):
        i1 = pyr1[lev]
        i2 = pyr2[lev]
        m, n = i1.shape[1:]
        if lev < cfg.pyramid_levels - 1:
            u = 2.0 * df._up2(u, m, n)
            v = 2.0 * df._up2(v, m, n)
        ncnt = _ncount(m, n)
        if cfg.warp:
            if lev < cfg.pyramid_levels - 1:
                i2eff, wctx = df._warp(i2, u, v)
            else:
                i2eff, wctx = i2, None
            ix, iy, it = df._derivatives(i1, i2eff)
            coeffs = df._coefficients(ix, iy, it)
            du, dv, jtape = _reference_jacobi(coeffs, np.zeros((m, n)),
                                              np.zeros((m, n)), cfg.alpha,
                                              cfg.iterations, ncnt)
            levels[lev] = (ix, iy, it, coeffs, jtape, wctx)
            u = u + du
            v = v + dv
        else:
            ix, iy, it = df._derivatives(i1, i2)
            coeffs = df._coefficients(ix, iy, it)
            u, v, jtape = _reference_jacobi(coeffs, u, v, cfg.alpha,
                                            cfg.iterations, ncnt)
            levels[lev] = (ix, iy, it, coeffs, jtape, None)
    return u, v, (pyr1, pyr2, levels)


def _reference_backward(cfg, gu, gv, tape):
    """The adjoint of `_reference_forward`, as the estimator first had it."""
    pyr1, pyr2, levels = tape
    g1pyr = [np.zeros_like(a) for a in pyr1]
    g2pyr = [np.zeros_like(a) for a in pyr2]
    for lev in range(cfg.pyramid_levels):
        ix, iy, it, coeffs, jtape, wctx = levels[lev]
        if cfg.warp:
            gu_init, gv_init = gu, gv
            _, _, gcoef = _reference_jacobi_adj(gu, gv, coeffs, jtape, cfg.alpha,
                                                cfg.iterations)
            gix, giy, git = df._coefficients_adj(ix, iy, it, *gcoef)
            g1, g2eff = df._derivatives_adj(gix, giy, git)
            g1pyr[lev] += g1
            if wctx is None:
                g2pyr[lev] += g2eff
            else:
                g2, gu_w, gv_w = _reference_warp_adj(g2eff, wctx)
                g2pyr[lev] += g2
                gu_init = gu_init + gu_w
                gv_init = gv_init + gv_w
        else:
            gu_init, gv_init, gcoef = _reference_jacobi_adj(
                gu, gv, coeffs, jtape, cfg.alpha, cfg.iterations)
            gix, giy, git = df._coefficients_adj(ix, iy, it, *gcoef)
            g1, g2 = df._derivatives_adj(gix, giy, git)
            g1pyr[lev] += g1
            g2pyr[lev] += g2
        if lev < cfg.pyramid_levels - 1:
            mc, nc = pyr1[lev + 1].shape[1:]
            gu = 2.0 * df._up2_adj(gu_init, mc, nc)
            gv = 2.0 * df._up2_adj(gv_init, mc, nc)
    for lev in range(cfg.pyramid_levels - 1, 0, -1):
        m, n = pyr1[lev - 1].shape[1:]
        g1pyr[lev - 1] += df._down2_adj(g1pyr[lev], m, n)
        g2pyr[lev - 1] += df._down2_adj(g2pyr[lev], m, n)
    return g1pyr[0], g2pyr[0]


def _looped_jacobi(coeffs, u0, v0, alpha, iters):
    """`_reference_jacobi_taped` run pair by pair over a leading batch
    axis, if there is one; the per-pair tapes go in a list."""
    if u0.ndim == 2:
        return _reference_jacobi_taped(coeffs, u0, v0, alpha, iters)
    runs = [_reference_jacobi_taped([c[k] for c in coeffs], u0[k], v0[k],
                                    alpha, iters) for k in range(len(u0))]
    u, v, tapes = zip(*runs)
    return np.stack(u), np.stack(v), list(tapes)


def _looped_jacobi_adj(gu, gv, tape):
    """`_reference_jacobi_adj_taped` over the tapes of `_looped_jacobi`."""
    if not isinstance(tape, list):
        return _reference_jacobi_adj_taped(gu, gv, tape)
    runs = [_reference_jacobi_adj_taped(gu[k], gv[k], t) for k, t in enumerate(tape)]
    gu, gv, gcoef = zip(*runs)
    return np.stack(gu), np.stack(gv), tuple(np.stack(g) for g in zip(*gcoef))


def _looped_warp_adj(g, ctx):
    """`_reference_warp_adj` run pair by pair over a leading batch axis."""
    if g.ndim == 3:
        return _reference_warp_adj(g, ctx)
    runs = [_reference_warp_adj(g[k], tuple(a[k] for a in ctx))
            for k in range(len(g))]
    return tuple(np.stack(parts) for parts in zip(*runs))


def _random_coeffs(rng, m, n):
    return (rng.uniform(0.5, 1.0, (m, n)), rng.uniform(-0.2, 0.2, (m, n)),
            rng.uniform(0.5, 1.0, (m, n)), rng.normal(0, 0.1, (m, n)),
            rng.normal(0, 0.1, (m, n)))


def _same_bytes(xs, ys):
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


def _close(xs, ys, rel=1e-14):
    """Every x within `rel` of the largest entry of its y."""
    return len(xs) == len(ys) and all(
        x.shape == y.shape and np.max(np.abs(x - y)) <= rel * np.max(np.abs(y))
        for x, y in zip(xs, ys))


class TestKernelOracles:
    """The kernels reproduce the original per-grid kernels: flows and the
    cotangents of the start and of b byte for byte. The coefficient
    cotangents, and so the estimator's input gradients, are sums
    reassociated by `_jacobi_adj`'s closed form; they agree to 1e-14 of
    their largest entry."""

    @pytest.mark.parametrize("shape", [(2, 2), (3, 7), (64, 64)])
    @pytest.mark.parametrize("iters", [1, 60])
    @pytest.mark.parametrize("start", ["zero", "random"])
    def test_jacobi_and_adjoint_bytes(self, shape, iters, start):
        rng = np.random.default_rng(10)
        m, n = shape
        coeffs = _random_coeffs(rng, m, n)
        ncnt = _ncount(m, n)
        if start == "zero":
            u0, v0 = np.zeros((m, n)), np.zeros((m, n))
        else:
            u0, v0 = rng.normal(size=(2, m, n))
        u, v, tape = df._jacobi(coeffs, u0, v0, 0.07, iters)
        ur, vr, tape_r = _reference_jacobi(coeffs, u0, v0, 0.07, iters, ncnt)
        assert _same_bytes((u, v), (ur, vr))
        cu, cv = rng.normal(size=(2, m, n))
        gu, gv, gc = df._jacobi_adj(cu, cv, tape)
        gur, gvr, gcr = _reference_jacobi_adj(cu, cv, coeffs, tape_r, 0.07, iters)
        assert _same_bytes((gu, gv) + gc[3:], (gur, gvr) + gcr[3:])
        assert _close(gc[:3], gcr[:3])

    @pytest.mark.parametrize("iters", [1, 2])
    def test_negative_zeros_bytes(self, iters):
        """Zeros keep their sign bit as in the original kernels: start and
        cotangent hold -0.0 on a block where b = +0.0 and a12 < 0."""
        rng = np.random.default_rng(16)
        m, n = 9, 9
        a11, a12, a22, b1, b2 = _random_coeffs(rng, m, n)
        u0, v0, cu, cv = rng.normal(size=(4, m, n))
        for a in (u0, v0, cu, cv):
            a[1:8, 1:8] = -0.0
        b1[1:8, 1:8] = b2[1:8, 1:8] = 0.0
        coeffs = (a11, -np.abs(a12), a22, b1, b2)
        ncnt = _ncount(m, n)
        u, v, tape = df._jacobi(coeffs, u0, v0, 0.05, iters)
        ur, vr, tape_r = _reference_jacobi(coeffs, u0, v0, 0.05, iters, ncnt)
        assert _same_bytes((u, v), (ur, vr))
        gu, gv, gc = df._jacobi_adj(cu, cv, tape)
        gur, gvr, gcr = _reference_jacobi_adj(cu, cv, coeffs, tape_r, 0.05, iters)
        assert _same_bytes((gu, gv) + gc[3:], (gur, gvr) + gcr[3:])
        assert _close(gc[:3], gcr[:3])

    @pytest.mark.parametrize("shape", [(1, 9, 10), (3, 64, 64)])
    def test_warp_adjoint_bytes(self, shape):
        rng = np.random.default_rng(11)
        c, m, n = shape
        img = rng.uniform(0, 1, shape)
        u, v = rng.uniform(-4.0, 4.0, (2, m, n))
        out, ctx = df._warp(img, u, v)
        g = rng.normal(size=out.shape)
        assert _same_bytes(df._warp_adj(g, ctx), _reference_warp_adj(g, ctx))

    @pytest.mark.parametrize("label", ["hs", "hs-pyr"])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_estimator_bytes(self, label, channels, monkeypatch):
        """One pair and a stack of two, against the per-grid reference
        kernels looped over the batch axis."""
        est = builtin_estimators()[label]
        f1, f2, _ = make_pair(12, 24, 28, channels=channels)
        a, b, _ = make_pair(20, 24, 28, channels=channels)
        cotangent = np.random.default_rng(13).normal(size=(2, 2, 24, 28))
        inputs = [(f1, f2, cotangent[0]),
                  (np.stack([f1.data, a.data]), np.stack([f2.data, b.data]), cotangent)]
        runs = []
        for frame1, frame2, ct in inputs:
            flow, vjp = est.value_and_vjp(frame1, frame2)
            runs.append((flow,) + tuple(vjp(ct)))
        monkeypatch.setattr(df, "_jacobi", _looped_jacobi)
        monkeypatch.setattr(df, "_jacobi_adj", _looped_jacobi_adj)
        monkeypatch.setattr(df, "_warp_adj", _looped_warp_adj)
        for (frame1, frame2, ct), run in zip(inputs, runs):
            flow_r, vjp_r = est.value_and_vjp(frame1, frame2)
            assert _same_bytes(run[:1], (flow_r,))
            assert _close(run[1:], vjp_r(ct))


class TestOrchestrationOracle:
    """The estimator's level loops reproduce the original two-branch loops
    on the reference kernels: the flow byte for byte, the VJP to 1e-14 of
    its largest entry (see `TestKernelOracles`)."""

    @pytest.mark.parametrize("config", [
        builtin_estimators()["hs"].config,
        builtin_estimators()["hs-pyr"].config,
        EstimatorConfig(alpha=0.03, iterations=9, pyramid_levels=2, warp=False),
        EstimatorConfig(alpha=0.08, iterations=7, pyramid_levels=3, warp=False),
        EstimatorConfig(alpha=0.05, iterations=11, pyramid_levels=1, warp=True),
        EstimatorConfig(alpha=0.02, iterations=8, pyramid_levels=2, warp=True),
    ], ids=["hs", "hs-pyr", "levels2", "levels3", "warp-levels1", "warp-levels2"])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_flow_and_vjp_bytes(self, config, channels):
        f1, f2, _ = make_pair(18, 23, 29, channels=channels)
        cotangent = np.random.default_rng(19).normal(size=(2, 23, 29))
        flow, vjp = FlowEstimator(config).value_and_vjp(f1, f2)
        grads = vjp(cotangent)
        u, v, tape = _reference_forward(config, f1.data, f2.data)
        grads_r = _reference_backward(config, cotangent[0], cotangent[1], tape)
        assert _same_bytes((flow,), (np.stack([u, v]),))
        assert _close(grads, grads_r)


class TestBatchedEstimator:
    """A (B, C, M, N) stack runs as one batch: flow and both gradients of
    every pair are bitwise those of its own call."""

    @pytest.mark.parametrize("label", ["hs", "hs-pyr"])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("batch", [1, 2, 4])
    def test_stack_matches_single_calls(self, label, channels, batch):
        est = builtin_estimators()[label]
        pairs = [make_pair(70 + k, 24, 28, channels=channels) for k in range(batch)]
        f1 = np.stack([p[0].data for p in pairs])
        f2 = np.stack([p[1].data for p in pairs])
        cotangent = np.random.default_rng(71).normal(size=(batch, 2, 24, 28))
        flow, vjp = est.value_and_vjp(f1, f2)
        assert flow.shape == (batch, 2, 24, 28)
        g1, g2 = vjp(cotangent)
        for k in range(batch):
            flow_k, vjp_k = est.value_and_vjp(f1[k], f2[k])
            assert _same_bytes((flow[k], g1[k], g2[k]),
                               (flow_k,) + tuple(vjp_k(cotangent[k])))
        # the pairs move differently, so each warps by its own flow
        assert all(not np.allclose(flow[0], flow[k]) for k in range(1, batch))

    def test_shapes_checked(self, fast_estimator):
        one = np.zeros((1, 8, 8))
        with pytest.raises(ShapeError):
            fast_estimator.value_and_vjp(one[None, None], one[None, None])
        with pytest.raises(ShapeError):
            fast_estimator.estimate_flow(one[None], one[None])
        _, vjp = fast_estimator.value_and_vjp(one[None], one[None])
        with pytest.raises(ShapeError):
            vjp(np.zeros((2, 8, 8)))


class TestExactDotProducts:
    def test_jacobi_solve_full_grid(self):
        """With a11, a12, a22 fixed the K-sweep solve is linear in
        (u0, v0, b1, b2); its adjoint must pass a full-grid dot test."""
        rng = np.random.default_rng(14)
        m, n, iters, alpha = 23, 31, 60, 0.05
        a11, a12, a22, _, _ = _random_coeffs(rng, m, n)
        u0, v0, b1, b2 = rng.normal(size=(4, m, n))
        u, v, tape = df._jacobi((a11, a12, a22, b1, b2), u0, v0, alpha, iters)
        cu, cv = rng.normal(size=(2, m, n))
        gu, gv, (_, _, _, gb1, gb2) = df._jacobi_adj(cu, cv, tape)
        lhs = np.sum(cu * u) + np.sum(cv * v)
        rhs = (np.sum(gu * u0) + np.sum(gv * v0)
               + np.sum(gb1 * b1) + np.sum(gb2 * b2))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_warp_image_part_piled_and_clamped(self):
        """The warp is linear in the image. Flows here send whole rows and
        columns onto one source pixel and far past every border."""
        rng = np.random.default_rng(15)
        c, m, n = 2, 11, 13
        jj, ii = np.meshgrid(np.arange(n, dtype=float), np.arange(m, dtype=float))
        u = np.where(jj < n // 2, 4.3 - jj, 40.0 * rng.choice([-1.0, 1.0], (m, n)))
        v = np.where(ii < m // 2, 2.6 - ii, -25.0 + rng.normal(size=(m, n)))
        img = rng.normal(size=(c, m, n))
        out, ctx = df._warp(img, u, v)
        g = rng.normal(size=out.shape)
        g_img, _, _ = df._warp_adj(g, ctx)
        assert np.sum(g * out) == pytest.approx(np.sum(g_img * img), rel=1e-12)
        # the flows above do pile up: some source pixels take many terms
        weight_sums, _, _ = df._warp_adj(np.ones((c, m, n)), ctx)
        assert weight_sums.max() > 10.0


class TestCoefficientCotangents:
    """The closed-form ga11, ga12, ga22 of `_jacobi_adj` against the
    function they differentiate: <c, w_K> moved along a random
    (da11, da12, da22), by a fourth-order central difference. Floating
    point errors raise, so a guard cell reaching the closed form fails."""

    @pytest.mark.parametrize("shape", [(2, 2), (3, 7), (23, 31)])
    @pytest.mark.parametrize("iters", [1, 60])
    @pytest.mark.parametrize("batch", [None, 2])
    def test_directional_derivative(self, shape, iters, batch):
        rng = np.random.default_rng(22)
        m, n = shape
        pairs = [_random_coeffs(rng, m, n) for _ in range(batch or 1)]
        coeffs = [np.stack(c) if batch else c[0] for c in zip(*pairs)]
        lead = (batch,) if batch else ()
        u0, v0, cu, cv = rng.normal(size=(4,) + lead + (m, n))
        da = rng.normal(size=(3,) + lead + (m, n))
        alpha, h = 0.05, 1e-4

        def value(step):
            a11, a12, a22, b1, b2 = coeffs
            moved = (a11 + step * da[0], a12 + step * da[1], a22 + step * da[2], b1, b2)
            u, v, _ = df._jacobi(moved, u0, v0, alpha, iters)
            return np.sum(cu * u) + np.sum(cv * v)

        with np.errstate(all="raise"):
            _, _, tape = df._jacobi(coeffs, u0, v0, alpha, iters)
            _, _, gcoef = df._jacobi_adj(cu, cv, tape)
            fd = (8.0 * (value(h) - value(-h)) - (value(2 * h) - value(-2 * h))) / (12 * h)
        analytic = sum(np.sum(g * d) for g, d in zip(gcoef[:3], da))
        assert analytic == pytest.approx(fd, rel=1e-9)
