import numpy as np
import pytest
from scipy.integrate import quad

from chflow import (
    Diffeo,
    Grid,
    ScalarField0,
    ScalarField1,
    inv_helmholtz,
    l_eta_direct,
    l_op,
    norm_components,
)
from chflow.checks import random_bump_diffeo, random_bump_field0, random_bump_field1
from chflow.errors import GridMismatch
from chflow.operators import _decay_scans, _l_eta_arrays, _scan_plan, _scan_sd

from conftest import gateaux_df, gaussian_field, gaussian_source, l_eta_conjugated


def exp_kink_source(grid):
    return ScalarField0(grid, np.exp(-np.abs(grid.x)))


def two_cumsum_scans(plan, g, cl, cr):
    """_decay_scans with a real (2, blocks, width + 1) buffer, one cumsum per direction."""
    n, e, r, decay, r_end = plan
    blocks, width = e.shape
    g = np.concatenate((g, np.zeros(e.size - n))).reshape(blocks, width)
    s = np.zeros((2, blocks, width + 1))
    left, right = s
    np.multiply(g, e, out=left[:, 1:])
    np.multiply(g, r, out=right[:, :-1])
    left_totals, right_totals = np.add.reduce(s, axis=-1).tolist()
    left_carry = [cl]
    for f, total in zip(decay, left_totals):
        left_carry.append(f * (left_carry[-1] + total))
    right_carry = [cr * r_end]
    for f, total in zip(decay[::-1], right_totals[:0:-1]):
        right_carry.append(f * (right_carry[-1] + total))
    left[:, 0] = left_carry
    right[:, -1] = right_carry[::-1]
    np.add.accumulate(left, axis=-1, out=left)
    np.add.accumulate(right[:, ::-1], axis=-1, out=right[:, ::-1])
    left = np.multiply(left[:, :-1], r).reshape(e.size)
    right = np.multiply(right[:, 1:], e).reshape(e.size)
    return left[:n], right[:n]


def reference_scans(positions, weights, h, slopes=None, order=2):
    """Node-by-node recurrence for the left/right scans: the blocked scan's oracle."""
    n = positions.shape[0]
    ef = np.exp(-np.diff(positions)).tolist()
    wl = weights.tolist()
    half = 0.5 * h
    la = [0.0] * n
    rb = [0.0] * n
    if order == 2:
        acc = 0.0
        for k in range(n - 1):
            acc = ef[k] * (acc + half * wl[k]) + half * wl[k + 1]
            la[k + 1] = acc
        acc = 0.0
        for k in range(n - 2, -1, -1):
            acc = ef[k] * (acc + half * wl[k + 1]) + half * wl[k]
            rb[k] = acc
    else:
        if slopes is None:
            slopes = np.ones(n)
        dw = np.empty_like(weights)
        dw[1:-1] = (weights[2:] - weights[:-2]) / (2.0 * h)
        dw[0] = (-3.0 * weights[0] + 4.0 * weights[1] - weights[2]) / (2.0 * h)
        dw[-1] = (3.0 * weights[-1] - 4.0 * weights[-2] + weights[-3]) / (2.0 * h)
        c = h * h / 12.0
        ql = (slopes * weights + dw).tolist()
        sl = (dw - slopes * weights).tolist()
        acc = 0.0
        for k in range(n - 1):
            acc = ef[k] * (acc + half * wl[k] + c * ql[k]) + half * wl[k + 1] - c * ql[k + 1]
            la[k + 1] = acc
        acc = 0.0
        for k in range(n - 2, -1, -1):
            acc = ef[k] * (acc + half * wl[k + 1] - c * sl[k + 1]) + half * wl[k] + c * sl[k]
            rb[k] = acc
    return np.array(la), np.array(rb)


def scan_cases():
    """(name, positions, weights, h, slopes) for the scan agreement tests."""
    rng = np.random.default_rng(7)
    grid = Grid.from_interval(-20.0, 20.0, 1537)
    x, h = grid.x, grid.h
    yield "positive", x, rng.random(x.size), h, None
    yield "signed", x, rng.standard_normal(x.size), h, None
    # non-uniform monotone map m = x + v with slope 1 + v' in [0.6, 1.4]
    bump = np.exp(-x * x / 50.0)
    v = 0.4 * np.sin(x) * bump
    slope = 1.0 + 0.4 * (np.cos(x) - x / 25.0 * np.sin(x)) * bump
    yield "nonuniform", x + v, rng.standard_normal(x.size) * slope, h, slope
    for lo, n in ((-3.0, 129), (-400.0, 2049), (-2000.0, 257)):
        wide = Grid.from_interval(lo, -lo, n)
        yield f"[{lo:g}, {-lo:g}] n={n}", wide.x, rng.standard_normal(n), wide.h, None
    # gap 0.3: blocks of 8 / 0.3 + 1 = 27 nodes, which do not divide n = 1001
    padded = Grid.from_interval(-150.0, 150.0, 1001)
    yield "padded last block", padded.x, rng.standard_normal(1001), padded.h, None
    # 300 nodes spanning 6.5 < 8: one block
    one = Grid.from_interval(-3.0, 3.5, 300)
    yield "single block", one.x + 0.1 * np.sin(one.x), rng.standard_normal(300), one.h, None
    # one cell 20 times wider than the rest: blocks of about 8 / 0.4 = 20 nodes
    gaps = np.full(1024, 0.02)
    gaps[700] = 0.4
    wide_cell = np.concatenate(([-10.0], -10.0 + np.cumsum(gaps)))
    yield "one wide cell", wide_cell, rng.standard_normal(1025), 0.02, None


class TestScanPair:
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("case", list(scan_cases()), ids=lambda c: c[0])
    def test_matches_reference_recurrence(self, case, order):
        _, m, w, h, slopes = case
        # half sum S = (A + B)/2 and half difference D = (B - A)/2 of the node loop
        S, D = _scan_sd(_scan_plan(m), w, h, slopes=slopes, order=order)
        A0, B0 = reference_scans(m, w, h, slopes=slopes, order=order)
        assert np.isfinite(S).all() and np.isfinite(D).all()
        scale = max(np.abs(A0).max(), np.abs(B0).max())
        assert np.abs(S - 0.5 * (A0 + B0)).max() <= 1e-13 * scale
        assert np.abs(D - 0.5 * (B0 - A0)).max() <= 1e-13 * scale

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("case", list(scan_cases()), ids=lambda c: c[0])
    def test_l_eta_arrays_match_reference_recombined(self, case, order):
        # value (B - A)/2 and derivative eta' ((A + B)/2 - phi) of the node loop
        _, m, phi, h, slopes = case
        slopes = np.ones_like(m) if slopes is None else slopes
        val, der = _l_eta_arrays(_scan_plan(m), slopes, phi, h, order)
        A0, B0 = reference_scans(m, phi * slopes, h, slopes=slopes, order=order)
        scale = max(np.abs(A0).max(), np.abs(B0).max())
        assert np.abs(val - 0.5 * (B0 - A0)).max() <= 1e-13 * scale
        expected = slopes * (0.5 * (A0 + B0) - phi)
        assert np.abs(der - expected).max() <= 1e-13 * scale * slopes.max()

    @pytest.mark.parametrize("m", [
        # gap 1/32: blocks of at most 8 * 32 + 1 = 257 nodes, so 4 blocks of
        # exactly 256 and no padding
        -16.0 + np.arange(1024) / 32.0,
        # gap 0.3: 38 blocks of 27 nodes, the last one padded
        np.linspace(-150.0, 150.0, 1001),
        # span 6.5 < 8: one block
        np.linspace(-3.0, 3.5, 300),
    ], ids=["whole blocks", "padded", "single block"])
    def test_decay_scans_match_double_sums(self, m):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((2, m.size))
        seeds = [(0.7, -1.3), (-0.2, 0.9)]
        kernel = np.exp(-np.abs(m[:, None] - m[None, :]))
        for row, (cl, cr) in zip(g, seeds):
            left, right = _decay_scans(_scan_plan(m), row, cl, cr)
            L0 = np.tril(kernel, -1) @ row + cl * np.exp(-(m - m[0]))
            R0 = np.triu(kernel, 1) @ row + cr * np.exp(-(m[-1] - m))
            scale = (kernel @ np.abs(row)).max() + abs(cl) + abs(cr)
            assert np.abs(left - L0).max() <= 1e-13 * scale
            assert np.abs(right - R0).max() <= 1e-13 * scale

    @pytest.mark.parametrize("m", [
        # gap 0.3: 38 blocks of 27 nodes, the last one padded
        np.linspace(-150.0, 150.0, 1001),
        # span 6.5 < 8: one block
        np.linspace(-3.0, 3.5, 300),
        # gap 3: 334 blocks of 3 nodes; gap 9: one node per block
        3.0 * np.arange(1001), 9.0 * np.arange(200),
    ], ids=["padded", "single block", "narrow blocks", "width one"])
    def test_decay_scans_equal_two_cumsum_form(self, m):
        # The complex buffer does both directions in one cumsum: the same
        # numbers, bit for bit, as a cumsum per direction.
        rng = np.random.default_rng(12)
        plan = _scan_plan(m)
        for row, (cl, cr) in zip(rng.standard_normal((2, m.size)), [(0.7, -1.3), (-0.2, 0.9)]):
            left, right = _decay_scans(plan, row, cl, cr)
            left0, right0 = two_cumsum_scans(plan, row, cl, cr)
            np.testing.assert_array_equal(left, left0)
            np.testing.assert_array_equal(right, right0)

    @pytest.mark.parametrize("positions", [
        np.linspace(1.0, -1.0, 64),
        np.append(np.linspace(-1.0, 1.0, 63), np.nan),
        np.append(np.linspace(-1.0, 1.0, 63), np.inf),
    ], ids=["decreasing", "nan", "inf"])
    def test_rejects_bad_positions(self, positions):
        with pytest.raises(ValueError):
            _scan_sd(_scan_plan(positions), np.ones(64), 2.0 / 63)


class TestInvHelmholtz:
    def test_zero(self, grid20):
        f = inv_helmholtz(ScalarField0(grid20, np.zeros(grid20.n)))
        assert np.abs(f.u).max() == 0.0
        assert np.abs(f.du).max() == 0.0

    def test_exponential_closed_form(self):
        # (1 - d_xx) f = e^{-|x|} has f = (1 + |x|) e^{-|x|} / 2.
        grid = Grid.from_interval(-20.0, 20.0, 4096)
        f = inv_helmholtz(exp_kink_source(grid))
        exact = 0.5 * (1.0 + np.abs(grid.x)) * np.exp(-np.abs(grid.x))
        assert np.abs(f.u - exact).max() <= 1e-4
        k = int(np.argmin(np.abs(grid.x - 1.0)))
        assert f.u[k] == pytest.approx(0.5 * (1 + grid.x[k]) * np.exp(-grid.x[k]), abs=1e-5)
        # derivative channel carries L g = -x e^{-|x|} / 2
        dexact = -0.5 * grid.x * np.exp(-np.abs(grid.x))
        assert np.abs(f.du - dexact).max() <= 5e-4

    def test_gaussian_against_adaptive_quadrature(self):
        oracle = 0.5 * quad(lambda y: np.exp(-abs(y) - y * y), -np.inf, np.inf)[0]
        grid = Grid.from_interval(-20.0, 20.0, 16385)
        f = inv_helmholtz(gaussian_source(grid))
        assert f.u[8192] == pytest.approx(oracle, abs=1e-6)

    def test_corrected_rule_is_fourth_order(self):
        oracle = 0.5 * quad(lambda y: np.exp(-abs(y) - y * y), -np.inf, np.inf)[0]
        errs = []
        for n in (513, 1025, 2049):
            grid = Grid.from_interval(-20.0, 20.0, n)
            f = inv_helmholtz(gaussian_source(grid), order=4)
            errs.append(abs(f.u[(n - 1) // 2] - oracle))
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(orders > 3.5)

    def test_helmholtz_residual_second_order(self):
        residuals, hs = [], []
        for n in (513, 1025):
            grid = Grid.from_interval(-20.0, 20.0, n)
            f = inv_helmholtz(gaussian_source(grid))
            fxx = np.gradient(np.gradient(f.u, grid.h, edge_order=2),
                              grid.h, edge_order=2)
            residuals.append(np.abs(f.u - fxx - np.exp(-grid.x ** 2)).max())
            hs.append(grid.h)
        assert residuals[0] <= hs[0] ** 2
        order = np.log(residuals[0] / residuals[1]) / np.log(hs[0] / hs[1])
        assert 1.8 <= order <= 2.2


class TestLOp:
    def test_zero(self, grid20):
        f = l_op(ScalarField0(grid20, np.zeros(grid20.n)))
        assert np.abs(f.u).max() == 0.0

    def test_even_source_vanishes_at_origin(self, grid20):
        f = l_op(gaussian_source(grid20))
        assert abs(f.u[(grid20.n - 1) // 2]) <= 1e-14

    def test_exponential_closed_form(self):
        grid = Grid.from_interval(-20.0, 20.0, 4001)
        f = l_op(exp_kink_source(grid))
        k = 2100  # node at x = 1 exactly
        assert grid.x[k] == 1.0
        assert f.u[k] == pytest.approx(-0.5 * np.exp(-1.0), abs=1e-5)

    def test_derivative_channel_identity(self, grid20, rng):
        phi = random_bump_field0(grid20, rng)
        f = l_op(phi)
        g = inv_helmholtz(phi)
        np.testing.assert_array_equal(f.du, g.u - phi.g)
        np.testing.assert_array_equal(f.u, g.du)


class TestLEtaDirect:
    def test_identity_reduces_to_l_op(self, grid20, rng):
        phi = random_bump_field0(grid20, rng)
        direct = l_eta_direct(phi, Diffeo.identity(grid20))
        plain = l_op(phi)
        np.testing.assert_array_equal(direct.u, plain.u)
        np.testing.assert_array_equal(direct.du, plain.du)

    def test_operator_bounds(self, grid20, rng):
        slack = 10.0 * grid20.h ** 2
        for _ in range(30):
            phi = random_bump_field0(grid20, rng)
            eta = random_bump_diffeo(grid20, rng)
            f = l_eta_direct(phi, eta)
            a, b = eta.a, eta.b
            sup_phi = np.abs(phi.g).max()
            assert np.abs(f.u).max() <= (b / a) * sup_phi + slack
            assert np.abs(f.du).max() <= (b * b / a + b) * sup_phi + slack

    def test_h1_bound(self, grid20, rng):
        slack = 10.0 * grid20.h ** 2
        for _ in range(30):
            phi = random_bump_field0(grid20, rng)
            eta = random_bump_diffeo(grid20, rng)
            f = l_eta_direct(phi, eta)
            c = norm_components(f)
            h1 = np.hypot(c.l2_u, c.l2_du)
            l2_phi = np.sqrt(grid20.h * (phi.g ** 2).sum()
                             - 0.5 * grid20.h * (phi.g[0] ** 2 + phi.g[-1] ** 2))
            assert h1 <= (np.sqrt(eta.b / eta.a) + eta.b) * l2_phi + slack

    def test_linearity(self, grid20, rng):
        phi1 = random_bump_field0(grid20, rng)
        phi2 = random_bump_field0(grid20, rng)
        eta = random_bump_diffeo(grid20, rng)
        combo = l_eta_direct(ScalarField0(grid20, 1.7 * phi1.g - 0.4 * phi2.g), eta)
        f1, f2 = l_eta_direct(phi1, eta), l_eta_direct(phi2, eta)
        assert np.abs(combo.u - 1.7 * f1.u + 0.4 * f2.u).max() <= 1e-12
        assert np.abs(combo.du - 1.7 * f1.du + 0.4 * f2.du).max() <= 1e-12

    def test_output_decays_when_input_does(self, rng):
        grid = Grid.from_interval(-30.0, 30.0, 1537)
        for _ in range(10):
            # narrow bumps near 0 (centers in [-3, 3], widths in [0.8, 1.5]) vanish at the ends
            phi = ScalarField0(grid, sum(gaussian_source(grid, rng.uniform(-1.0, 1.0),
                                                         rng.uniform(-3.0, 3.0),
                                                         rng.uniform(0.8, 1.5)).g
                                         for _ in range(3)))
            eta = random_bump_diffeo(grid, rng)
            f = l_eta_direct(phi, eta)
            boundary = max(abs(f.u[0]), abs(f.u[-1]), abs(f.du[0]), abs(f.du[-1]))
            assert boundary <= 1e-8

    def test_grid_mismatch(self, grid20):
        other = Grid.from_interval(-20.0, 20.0, 513)
        with pytest.raises(GridMismatch):
            l_eta_direct(ScalarField0(other, np.zeros(other.n)), Diffeo.identity(grid20))


class TestLEtaConjugated:
    def test_identity_matches_l_op(self, grid20, rng):
        phi = random_bump_field0(grid20, rng)
        conj = l_eta_conjugated(phi, Diffeo.identity(grid20))
        plain = l_op(phi)
        assert np.abs(conj.u - plain.u).max() <= 1e-12

    def test_zero_source(self, grid20):
        eta = Diffeo(gaussian_field(grid20, amp=0.3))
        f = l_eta_conjugated(ScalarField0(grid20, np.zeros(grid20.n)), eta)
        assert np.abs(f.u).max() <= 1e-15

    def test_agrees_with_direct_route(self, grid20, rng):
        tol = 50.0 * grid20.h ** 2
        for _ in range(20):
            phi = random_bump_field0(grid20, rng)
            eta = random_bump_diffeo(grid20, rng)
            direct = l_eta_direct(phi, eta)
            conj = l_eta_conjugated(phi, eta)
            assert np.abs(direct.u - conj.u).max() <= tol


class TestGateaux:
    def test_zero_direction(self, grid20, rng):
        phi = random_bump_field0(grid20, rng)
        eta = random_bump_diffeo(grid20, rng)
        G = gateaux_df(phi, eta, ScalarField1.zeros(grid20))
        assert np.abs(G.u).max() == 0.0

    def test_zero_source(self, grid20, rng):
        eta = random_bump_diffeo(grid20, rng)
        rho = random_bump_field1(grid20, rng)
        G = gateaux_df(ScalarField0(grid20, np.zeros(grid20.n)), eta, rho)
        assert np.abs(G.u).max() == 0.0

    def test_central_difference_consistency(self, grid20, rng):
        phi = random_bump_field0(grid20, rng)
        eta = random_bump_diffeo(grid20, rng, max_slope=0.4)
        rho = random_bump_field1(grid20, rng, max_slope=0.4)
        G = gateaux_df(phi, eta, rho)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            step = ScalarField1(grid20, eps * rho.u, eps * rho.du)
            plus = l_eta_direct(phi, Diffeo(eta.v + step))
            minus = l_eta_direct(phi, Diffeo(eta.v - step))
            fd = (plus.u - minus.u) / (2.0 * eps)
            errs.append(np.abs(fd - G.u).max())
        assert errs[0] > errs[1] > errs[2]
        slope = np.polyfit(np.log10([1e-2, 1e-3, 1e-4]), np.log10(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)
