import numpy as np
import pytest
from scipy.integrate import quad

from chflow import (
    Diffeo,
    Grid,
    ScalarField0,
    ScalarField1,
    from_displacement,
    gateaux_df,
    inv_helmholtz,
    l_eta_conjugated,
    l_eta_direct,
    l_op,
    norm_components,
)
from chflow.checks import random_bump_diffeo, random_bump_field0, random_bump_field1
from chflow.errors import GridMismatch

from conftest import gaussian_field, gaussian_source


def exp_kink_source(grid):
    return ScalarField0(grid, np.exp(-np.abs(grid.x)))


class TestInvHelmholtz:
    def test_zero(self, grid20):
        f = inv_helmholtz(ScalarField0.zeros(grid20))
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
        f = l_op(ScalarField0.zeros(grid20))
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
            phi = random_bump_field0(grid, rng, centers=(-3.0, 3.0), widths=(0.8, 1.5))
            eta = random_bump_diffeo(grid, rng)
            f = l_eta_direct(phi, eta)
            boundary = max(abs(f.u[0]), abs(f.u[-1]), abs(f.du[0]), abs(f.du[-1]))
            assert boundary <= 1e-8

    def test_grid_mismatch(self, grid20):
        other = Grid.from_interval(-20.0, 20.0, 513)
        with pytest.raises(GridMismatch):
            l_eta_direct(ScalarField0.zeros(other), Diffeo.identity(grid20))


class TestLEtaConjugated:
    def test_identity_matches_l_op(self, grid20, rng):
        phi = random_bump_field0(grid20, rng)
        conj = l_eta_conjugated(phi, Diffeo.identity(grid20))
        plain = l_op(phi)
        assert np.abs(conj.u - plain.u).max() <= 1e-12

    def test_zero_source(self, grid20):
        eta = from_displacement(gaussian_field(grid20, amp=0.3))
        f = l_eta_conjugated(ScalarField0.zeros(grid20), eta)
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
        G = gateaux_df(ScalarField0.zeros(grid20), eta, rho)
        assert np.abs(G.u).max() == 0.0

    def test_central_difference_consistency(self, grid20, rng):
        phi = random_bump_field0(grid20, rng)
        eta = random_bump_diffeo(grid20, rng, max_slope=0.4)
        rho = random_bump_field1(grid20, rng, max_slope=0.4)
        G = gateaux_df(phi, eta, rho)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            plus = l_eta_direct(phi, from_displacement(eta.v + eps * rho))
            minus = l_eta_direct(phi, from_displacement(eta.v + (-eps) * rho))
            fd = (plus.u - minus.u) / (2.0 * eps)
            errs.append(np.abs(fd - G.u).max())
        assert errs[0] > errs[1] > errs[2]
        slope = np.polyfit(np.log10([1e-2, 1e-3, 1e-4]), np.log10(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)
