from collections import Counter

import numpy as np
import pytest

from chflow import (
    Diffeo,
    Grid,
    ScalarField1,
    comp1,
    comp2,
    diffeo,
    distance,
    invert,
    norm_11,
)
from chflow.errors import ChartViolation, ConvergenceFailure, GridMismatch

from conftest import gaussian_field


def bump_displacement(grid, amp=0.3, center=0.0, width=1.0):
    return gaussian_field(grid, amp=amp, center=center, width=width)


def random_diffeo(grid, rng, max_slope=0.5):
    v = np.zeros(grid.n)
    dv = np.zeros(grid.n)
    for _ in range(3):
        a = rng.uniform(-1, 1)
        c = rng.uniform(-5, 5)
        w = rng.uniform(0.8, 2.5)
        z = (grid.x - c) / w
        v += a * np.exp(-z * z)
        dv += -2.0 * a * z / w * np.exp(-z * z)
    peak = np.abs(dv).max()
    scale = max_slope * rng.uniform(0.3, 1.0) / peak
    return Diffeo(ScalarField1(grid, v * scale, dv * scale))


class TestConstruction:
    def test_identity(self, grid20):
        e = Diffeo.identity(grid20)
        assert (e.a, e.b) == (1.0, 1.0)
        np.testing.assert_array_equal(e.values(), grid20.x)

    def test_gaussian_bump_slope_bounds(self, grid20):
        eta = Diffeo(bump_displacement(grid20, amp=0.3))
        # max of |x e^{-x^2}| is e^{-1/2}/sqrt(2), so a = 1 - 0.6 max, b = 1 + 0.6 max.
        extremum = 0.6 * np.exp(-0.5) / np.sqrt(2.0)
        assert eta.a == pytest.approx(1.0 - extremum, abs=1e-4)
        assert eta.b == pytest.approx(1.0 + extremum, abs=1e-4)

    def test_chart_violation(self, grid20):
        with pytest.raises(ChartViolation):
            Diffeo(bump_displacement(grid20, amp=2.4))

    def test_decreasing_nodes_violate_chart(self, grid20):
        # The derivative channel says v' = 0, but the values make eta = -x.
        v = ScalarField1(grid20, -2.0 * grid20.x, np.zeros(grid20.n))
        with pytest.raises(ChartViolation) as exc:
            Diffeo(v)
        assert exc.value.min_slope == pytest.approx(-1.0)

    def test_eval_continues_as_identity(self, grid20):
        eta = Diffeo(bump_displacement(grid20))
        val, der = eta.eval(grid20.x_max + 5.0)
        assert (val, der) == (grid20.x_max + 5.0, 1.0)


class TestComp1:
    def test_compose_with_identity_is_exact(self, grid20, rng):
        u = gaussian_field(grid20, amp=rng.uniform(0.5, 2.0))
        w = comp1(u, Diffeo.identity(grid20))
        np.testing.assert_array_equal(w.u, u.u)
        np.testing.assert_array_equal(w.du, u.du)

    def test_closed_form_at_origin(self):
        grid = Grid.from_interval(-20.0, 20.0, 4001)
        u = gaussian_field(grid)
        eta = Diffeo(bump_displacement(grid, amp=0.3))
        w = comp1(u, eta)
        k0 = 2000  # node at x = 0, where eta(0) = 0.3 and eta'(0) = 1
        assert w.u[k0] == pytest.approx(np.exp(-0.09), abs=1e-8)
        assert w.du[k0] == pytest.approx(-0.6 * np.exp(-0.09), abs=1e-8)

    def test_sup_norm_stability(self, grid20, rng):
        # ||u o eta1 - u o eta2||_inf <= sup|u'| ||eta1 - eta2||_inf + slack
        slack = 10.0 * grid20.h ** 2
        for _ in range(25):
            u = gaussian_field(grid20, amp=rng.uniform(0.5, 2.0),
                               center=rng.uniform(-2, 2))
            eta1 = random_diffeo(grid20, rng)
            eta2 = random_diffeo(grid20, rng)
            gap = np.abs(comp1(u, eta1).u - comp1(u, eta2).u).max()
            c1 = np.abs(u.du).max()
            rho = np.abs(eta1.values() - eta2.values()).max()
            assert gap <= c1 * rho + slack

    def test_grid_mismatch(self, grid20):
        other = Grid.from_interval(-20.0, 20.0, 513)
        with pytest.raises(GridMismatch):
            comp1(ScalarField1.zeros(other), Diffeo.identity(grid20))


class TestComp2:
    def test_identity_element(self, grid20, rng):
        eta = random_diffeo(grid20, rng)
        e = Diffeo.identity(grid20)
        assert distance(comp2(e, eta), eta) <= 1e-12
        assert distance(comp2(eta, e), eta) <= 1e-12

    def test_slope_bounds_multiply(self, grid20, rng):
        # True slopes satisfy a1 a2 <= (zeta o eta)' <= b1 b2; the sampled
        # bounds of the factors carry O(h^2) bias, hence the slack.
        slack = 10.0 * grid20.h ** 2
        for _ in range(25):
            zeta = random_diffeo(grid20, rng)
            eta = random_diffeo(grid20, rng)
            comp = comp2(zeta, eta)
            assert comp.a >= zeta.a * eta.a - slack
            assert comp.b <= zeta.b * eta.b + slack

    def test_associativity(self, grid20, rng):
        slack = 10.0 * grid20.h ** 2
        for _ in range(10):
            al, be, ga = (random_diffeo(grid20, rng) for _ in range(3))
            assert distance(comp2(comp2(al, be), ga),
                            comp2(al, comp2(be, ga))) <= slack

    def test_grid_mismatch(self, grid20):
        other = Diffeo.identity(Grid.from_interval(-20.0, 20.0, 513))
        for zeta, eta in [(other, Diffeo.identity(grid20)),
                          (Diffeo.identity(grid20), other)]:
            with pytest.raises(GridMismatch, match="^diffeomorphisms live on"):
                comp2(zeta, eta)


class TestInvert:
    def test_identity(self, grid20):
        xi = invert(Diffeo.identity(grid20))
        assert np.abs(xi.v.u).max() <= 1e-12
        assert np.abs(xi.v.du).max() <= 1e-12

    def test_round_trip(self, grid20):
        eta = Diffeo(bump_displacement(grid20, amp=0.3))
        xi = invert(eta)
        assert distance(comp2(xi, eta), Diffeo.identity(grid20)) <= 10 * grid20.h ** 2

    def test_pointwise_inverse_residual(self, grid20, rng):
        eta = random_diffeo(grid20, rng)
        xi = invert(eta)
        values, _ = eta.eval(grid20.x + xi.v.u)
        assert np.abs(values - grid20.x).max() <= 1e-12

    def test_derivative_bounds(self, grid20, rng):
        slack = 10.0 * grid20.h ** 2
        for _ in range(20):
            eta = random_diffeo(grid20, rng)
            xi = invert(eta)
            slopes = 1.0 + xi.v.du
            assert slopes.min() >= 1.0 / eta.b - slack
            assert slopes.max() <= 1.0 / eta.a + slack

    def test_chain_rule_identity_is_exact(self, grid20, rng):
        eta = random_diffeo(grid20, rng)
        xi = invert(eta)
        _, der = eta.eval(grid20.x + xi.v.u)
        assert np.abs((1.0 + xi.v.du) * der - 1.0).max() <= 1e-12

    def test_derivative_channel_matches_differences(self, grid20, rng):
        eta = random_diffeo(grid20, rng)
        xi = invert(eta)
        fd = np.gradient(grid20.x + xi.v.u, grid20.h, edge_order=2)
        assert np.abs(fd - (1.0 + xi.v.du)).max() <= 10 * grid20.h ** 2

    @pytest.mark.parametrize("amp", [1e-3, -1e-3])
    def test_displaced_end_target_is_pinned(self, grid20, amp):
        # v(x_0) > 0, or v(x_{n-1}) < 0, puts that end's target off the range
        # of eta: it is pinned at xi = x, where eta(x) - x = v(x) is far above
        # tol at every iteration, so only the inside targets may count.
        eta = Diffeo(bump_displacement(grid20, amp=amp, width=5.0))
        end, inside = (0, slice(1, None)) if amp > 0 else (-1, slice(None, -1))
        assert abs(eta.v.u[end]) > 1e-10
        xi = invert(eta)
        values, _ = eta.eval(grid20.x + xi.v.u)
        assert np.abs(values - grid20.x)[inside].max() <= 1e-12
        assert xi.v.u[end] == 0.0 and xi.v.du[end] == 0.0

    def test_failure_is_reported(self, grid20, monkeypatch):
        eta = Diffeo(bump_displacement(grid20, amp=0.3))
        monkeypatch.setattr(diffeo, "_MAX_SWEEPS", 0)
        with pytest.raises(ConvergenceFailure):
            invert(eta)

    def test_steep_maps(self):
        # Slopes down to 1 - 0.97, and a map that is the identity on x < -4
        # (its bump underflows to exactly 0 there), so those roots are nodes.
        grid = Grid.from_interval(-20.0, 20.0, 1024)
        x, slack = grid.x, 10.0 * grid.h ** 2
        rng = np.random.default_rng(18)
        etas = [random_diffeo(grid, rng, max_slope=s) for s in (0.9, 0.97) for _ in range(20)]
        etas.append(Diffeo(bump_displacement(grid, amp=0.45 / 0.8578, center=10.0, width=0.5)))
        assert (etas[-1].v.u[x < -4.0] == 0.0).all() and etas[-1].a < 0.11
        for eta in etas:
            xi = invert(eta)
            nodes = eta.values()
            inside = (x > nodes[0]) & (x < nodes[-1])
            values, _ = eta.eval(x + xi.v.u)
            assert np.abs(values - x)[inside].max() <= 1e-12
            cell = np.searchsorted(nodes, x[inside]) - 1
            roots = (x + xi.v.u)[inside]
            assert (x[cell] <= roots).all() and (roots <= x[cell + 1]).all()
            slopes = 1.0 + xi.v.du
            assert slopes.min() >= 1.0 / eta.b - slack
            assert slopes.max() <= 1.0 / eta.a + slack

    def test_tally_of_identity_has_no_bisection(self, grid20):
        tally = Counter()
        invert(Diffeo.identity(grid20), tally=tally)
        assert tally["bisections"] == 0

    def test_tally_counts_bisection_fallback(self, grid20):
        # a = 0.31: from x - v(x), some Newton steps leave their bracket
        tally = Counter()
        xi = invert(Diffeo(bump_displacement(grid20, amp=0.8)), tally=tally)
        assert tally["bisections"] >= 1 and tally["iterations"] >= 1
        assert np.abs(xi.v.u).max() > 0.0


class TestDistance:
    def test_metric_axioms(self, grid20, rng):
        for _ in range(10):
            eta, zeta, chi = (random_diffeo(grid20, rng) for _ in range(3))
            assert distance(eta, eta) == 0.0
            assert distance(eta, zeta) == distance(zeta, eta)
            assert (distance(eta, chi)
                    <= distance(eta, zeta) + distance(zeta, chi) + 1e-12)

    def test_matches_displacement_norm(self, grid20, rng):
        eta, zeta = random_diffeo(grid20, rng), random_diffeo(grid20, rng)
        assert distance(eta, zeta) == norm_11(eta.v - zeta.v)

    def test_grid_mismatch(self, grid20):
        other = Grid.from_interval(-20.0, 20.0, 513)
        with pytest.raises(GridMismatch):
            distance(Diffeo.identity(grid20), Diffeo.identity(other))


class TestInversionStability:
    def test_close_pairs_obey_sup_and_l2_bounds(self, grid20, rng):
        slack = 10.0 * grid20.h ** 2
        for _ in range(25):
            eta1 = random_diffeo(grid20, rng, max_slope=0.45)
            pert = gaussian_field(grid20, amp=rng.uniform(0.005, 0.05),
                                  center=rng.uniform(-3, 3))
            eta2 = Diffeo(eta1.v + pert)
            rho = distance(eta1, eta2)
            diff = invert(eta1).v - invert(eta2).v
            assert np.abs(diff.u).max() <= rho / eta1.a + slack
            l2 = np.sqrt(grid20.h * (diff.u ** 2).sum())
            assert l2 <= np.sqrt(eta1.b + rho) * rho / eta1.a + slack
