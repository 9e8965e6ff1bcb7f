import warnings

import numpy as np
import pytest

from chflow import (
    Grid,
    ScalarField1,
    norm_11,
    norm_components,
    read_field_csv,
    require_admissible,
    write_field_csv,
)
from chflow import fields
from chflow.errors import AdmissibilityError, GridMismatch, ParseError

from conftest import derivative_consistency, gaussian_field, reflect


def random_field(grid, rng, amp=1.0):
    u = np.zeros(grid.n)
    du = np.zeros(grid.n)
    for _ in range(3):
        a = rng.uniform(-amp, amp)
        c = rng.uniform(-5, 5)
        w = rng.uniform(0.8, 2.5)
        z = (grid.x - c) / w
        u += a * np.exp(-z * z)
        du += -2.0 * a * z / w * np.exp(-z * z)
    return ScalarField1(grid, u, du)


class TestGrid:
    def test_nodes(self):
        grid = Grid.from_interval(-1.0, 1.0, 5)
        assert grid.h == 0.5
        np.testing.assert_allclose(grid.x, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert grid.x_max == 1.0

    @pytest.mark.parametrize("args", [(-1.0, 0.0, 5), (-1.0, -0.5, 2), (0.0, np.inf, 9)])
    def test_invalid(self, args):
        x_min, h, n = args
        with pytest.raises(ValueError):
            Grid(x_min, h, n)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Grid.from_interval(0.0, 1.0, 1)


class TestFieldConstruction:
    def test_rejects_non_finite(self, grid20):
        u = np.zeros(grid20.n)
        u[3] = np.nan
        with pytest.raises(ValueError):
            ScalarField1(grid20, u, np.zeros(grid20.n))

    def test_rejects_wrong_length(self, grid20):
        with pytest.raises(ValueError):
            ScalarField1(grid20, np.zeros(grid20.n - 1), np.zeros(grid20.n))

    def test_samples_read_only(self, grid20):
        f = ScalarField1.zeros(grid20)
        with pytest.raises(ValueError):
            f.u[0] = 1.0

    def test_grid_mismatch_in_arithmetic(self, grid20):
        other = Grid.from_interval(-20.0, 20.0, 513)
        with pytest.raises(GridMismatch):
            ScalarField1.zeros(grid20) + ScalarField1.zeros(other)


class TestNorms:
    def test_zero_field(self, grid20):
        assert norm_components(ScalarField1.zeros(grid20)) == (0.0, 0.0, 0.0, 0.0)
        assert norm_11(ScalarField1.zeros(grid20)) == 0.0

    def test_gaussian_components(self):
        # n = 4001 on [-20, 20] puts h = 0.01 with a node exactly at zero.
        grid = Grid.from_interval(-20.0, 20.0, 4001)
        f = gaussian_field(grid)
        c = norm_components(f)
        assert c.sup_u == 1.0
        # The sampled sup of |f'| is attained at the node x = 0.71 nearest the
        # true maximizer 1/sqrt(2); the analytic value sqrt(2) e^{-1/2} is an
        # upper bound approached with the O(h^2) max-sampling bias.
        assert c.sup_du == pytest.approx(2 * 0.71 * np.exp(-0.71 ** 2), abs=1e-12)
        analytic_sup = np.sqrt(2.0) * np.exp(-0.5)
        assert analytic_sup - 2e-5 <= c.sup_du <= analytic_sup
        # Trapezoid is spectrally accurate for the Gaussian: int e^{-2x^2} = sqrt(pi/2).
        assert c.l2_u == pytest.approx((np.pi / 2) ** 0.25, abs=1e-8)
        assert c.l2_du == pytest.approx((np.pi / 2) ** 0.25, abs=1e-8)

    def test_gaussian_norm_11(self):
        grid = Grid.from_interval(-20.0, 20.0, 4001)
        analytic = 1.0 + np.sqrt(2.0) * np.exp(-0.5) + np.sqrt(2.0 * np.sqrt(np.pi / 2))
        assert norm_11(gaussian_field(grid)) == pytest.approx(analytic, abs=5e-5)

    def test_homogeneity(self, grid20, rng):
        for _ in range(100):
            f = random_field(grid20, rng)
            c = rng.uniform(-3, 3)
            base = np.array(norm_components(f))
            scaled = np.array(norm_components(ScalarField1(grid20, c * f.u, c * f.du)))
            assert np.abs(scaled - abs(c) * base).max() <= 1e-12 * max(1.0, abs(c))

    def test_triangle_inequality(self, grid20, rng):
        for _ in range(100):
            f, g = random_field(grid20, rng), random_field(grid20, rng)
            assert norm_11(f + g) <= norm_11(f) + norm_11(g) + 1e-12

    def test_nonnegativity(self, grid20, rng):
        f = random_field(grid20, rng)
        assert norm_11(f) >= 0.0


class TestTrapezoidConvergence:
    def test_kinked_integrand_shows_second_order(self):
        # e^{-|x|} with the kink on a node gives the L2 quadrature a genuine
        # O(h^2) error signal against the analytic value of int e^{-2|x|}.
        exact = np.sqrt(1.0 - np.exp(-80.0))
        errs, hs = [], []
        for n in (513, 1025, 2049, 4097):
            grid = Grid.from_interval(-20.0, 20.0, n)
            f = ScalarField1(grid, np.exp(-np.abs(grid.x)),
                             -np.sign(grid.x) * np.exp(-np.abs(grid.x)))
            errs.append(abs(norm_components(f).l2_u - exact))
            hs.append(grid.h)
        orders = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(np.array(hs[:-1]) / hs[1:])
        assert np.all((orders > 1.8) & (orders < 2.2))

    def test_smooth_decaying_integrand_is_spectrally_exact(self):
        # For analytic data that decays inside the domain the trapezoid rule
        # beats every algebraic order; no h^2 signal exists to measure.
        for n in (513, 1025):
            grid = Grid.from_interval(-20.0, 20.0, n)
            c = norm_components(gaussian_field(grid))
            assert c.l2_u == pytest.approx((np.pi / 2) ** 0.25, abs=1e-13)


class TestEval:
    def test_zero_everywhere(self, grid20):
        f = ScalarField1.zeros(grid20)
        assert f.eval(0.37) == (0.0, 0.0)

    def test_nodes_return_stored_samples(self, grid20, rng):
        f = random_field(grid20, rng)
        val, der = f.eval(grid20.x)
        np.testing.assert_array_equal(val, f.u)
        np.testing.assert_array_equal(der, f.du)

    def test_reproduces_cubics_mid_cell(self):
        grid = Grid.from_interval(-4.0, 4.0, 101)
        f = ScalarField1(grid, grid.x ** 3 - 2 * grid.x, 3 * grid.x ** 2 - 2)
        x = grid.x[37] + 0.5 * grid.h
        val, der = f.eval(x)
        assert val == pytest.approx(x ** 3 - 2 * x, abs=1e-12)
        assert der == pytest.approx(3 * x ** 2 - 2, abs=1e-12)

    def test_gaussian_closed_form(self):
        grid = Grid.from_interval(-20.0, 20.0, 4001)
        f = gaussian_field(grid)
        val, der = f.eval(0.5)
        assert val == pytest.approx(np.exp(-0.25), abs=1e-8)
        assert der == pytest.approx(-np.exp(-0.25), abs=1e-8)
        val, der = f.eval(0.505)  # mid-cell, interpolated
        assert val == pytest.approx(np.exp(-0.505 ** 2), abs=1e-8)
        assert der == pytest.approx(-2 * 0.505 * np.exp(-0.505 ** 2), abs=1e-8)

    def test_outside_domain_is_zero(self, grid20, rng):
        f = random_field(grid20, rng)
        assert f.eval(25.0) == (0.0, 0.0)
        assert f.eval(-333.0) == (0.0, 0.0)

    def test_non_finite_point_rejected(self, grid20):
        with pytest.raises(ValueError):
            ScalarField1.zeros(grid20).eval(np.nan)


class TestMembership:
    def test_gaussian_passes(self, grid20):
        require_admissible(gaussian_field(grid20))

    def test_linear_ramp_fails_decay(self, grid20):
        f = ScalarField1(grid20, grid20.x.copy(), np.ones(grid20.n))
        with pytest.raises(AdmissibilityError) as exc:
            require_admissible(f)
        assert str(exc.value).endswith("condition(s): boundary_decay")

    def test_zero_passes(self, grid20):
        require_admissible(ScalarField1.zeros(grid20))

    def test_tolerance_is_configurable(self, grid20, monkeypatch):
        # The tolerance is the module constant _TAIL_TOL, read at call time.
        f = gaussian_field(grid20, width=8.0)
        with pytest.raises(AdmissibilityError):
            require_admissible(f)
        monkeypatch.setattr(fields, "_TAIL_TOL", 1e-2)
        require_admissible(f)

    def test_overflow_fails_l2(self, grid20):
        f = gaussian_field(grid20, amp=1e160)
        with np.errstate(over="ignore"), pytest.raises(AdmissibilityError) as exc:
            require_admissible(f)
        assert str(exc.value).endswith("condition(s): l2_norms_finite")

    def test_overflow_is_reported_without_warning(self, grid20):
        # The overflow is the failure the error names, so numpy must not also
        # warn about it.
        f = gaussian_field(grid20, amp=1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AdmissibilityError, match="l2_norms_finite"):
                require_admissible(f)


def test_derivative_consistency_is_second_order():
    devs = []
    for n in (513, 1025):
        grid = Grid.from_interval(-20.0, 20.0, n)
        devs.append(derivative_consistency(gaussian_field(grid)))
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.25)


class TestReflect:
    def test_involution(self, grid20, rng):
        f = random_field(grid20, rng)
        g = reflect(reflect(f))
        np.testing.assert_array_equal(g.u, f.u)
        np.testing.assert_array_equal(g.du, f.du)

    def test_needs_symmetric_grid(self):
        grid = Grid.from_interval(0.0, 10.0, 33)
        with pytest.raises(GridMismatch):
            reflect(ScalarField1.zeros(grid))


class TestCsv:
    def test_round_trip_is_exact(self, grid20, rng, tmp_path):
        f = random_field(grid20, rng)
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        g = read_field_csv(path, f.grid)
        assert g.grid == f.grid
        np.testing.assert_array_equal(g.u, f.u)
        np.testing.assert_array_equal(g.du, f.du)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,u\n0,1\n1,2\n")
        with pytest.raises(ParseError):
            read_field_csv(path, Grid(0.0, 1.0, 2))

    def test_non_uniform_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,u,du\n0,0,0\n1,0,0\n3,0,0\n")
        with pytest.raises(ParseError, match="line 4 has x = 3, off the grid node 2$"):
            read_field_csv(path, Grid(0.0, 1.0, 3))

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,u,du\n0,zero,0\n1,0,0\n")
        with pytest.raises(ParseError):
            read_field_csv(path, Grid(0.0, 1.0, 2))

    @pytest.mark.parametrize("row, fragment", [
        (b"1,\xff,0", "not UTF-8 text"),
        (b"1," + b"0" * 200_000 + b",0", "field larger than field limit"),
    ], ids=["not-utf8", "oversized-field"])
    def test_unreadable_text_named(self, tmp_path, row, fragment):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x,u,du\n0,0,0\n" + row + b"\n2,0,0\n")
        with pytest.raises(ParseError, match=fragment) as exc:
            read_field_csv(path, Grid(0.0, 1.0, 3))
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("row, columns", [("1,0", 2), ("1,0,0,0", 4)],
                             ids=["short", "long"])
    def test_ragged_row_named(self, tmp_path, row, columns):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,u,du\n0,0,0\n{row}\n2,0,0\n")
        with pytest.raises(ParseError, match=f"line 3 has {columns} columns, not 3"):
            read_field_csv(path, Grid(0.0, 1.0, 3))

    @pytest.mark.parametrize("column", range(3), ids=["x", "u", "du"])
    def test_non_finite_entry_named(self, tmp_path, column):
        rows = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
        rows[1][column] = "nan"
        path = tmp_path / "bad.csv"
        path.write_text("x,u,du\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
        with pytest.raises(ParseError, match="line 3 holds a non-finite entry"):
            read_field_csv(path, Grid(0.0, 1.0, 3))
