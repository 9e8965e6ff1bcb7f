import numpy as np
import pytest

from chflow import (
    Grid,
    ScalarField0,
    ScalarField1,
    compare,
    integrate,
    integrate_eulerian,
    l_op,
)
from chflow.errors import GridMismatch, TimeMismatch
from chflow.eulerian import _dudt, fourth_order_dx
from chflow.fields import _trapz
from chflow.lagrangian import _march
from chflow.operators import _scan_plan

from conftest import antisymmetric_field, gaussian_field


class TestEulerRhs:
    def test_zero(self, grid20):
        out = _dudt(np.zeros(grid20.n), _scan_plan(grid20.x), grid20.h)
        assert np.abs(out).max() == 0.0

    def test_even_velocity_gives_odd_tendency(self, grid20):
        u = 0.7 * np.exp(-grid20.x ** 2)
        out = _dudt(u, _scan_plan(grid20.x), grid20.h)
        assert np.abs(out + out[::-1]).max() <= 1e-13

    def test_fd_stencil_is_fourth_order_on_interior(self):
        errs = []
        for n in (513, 1025):
            grid = Grid.from_interval(-20.0, 20.0, n)
            u = np.exp(-grid.x ** 2)
            ux = fourth_order_dx(u, grid.h)
            errs.append(np.abs(ux + 2 * grid.x * u).max())
        assert np.log2(errs[0] / errs[1]) >= 3.5


def l_op_rhs(u, grid):
    """The Eulerian right side through l_op and its typed fields, planning each scan."""
    ux = fourth_order_dx(u, grid.h)
    return -u * ux - l_op(ScalarField0(grid, u * u + 0.5 * ux * ux)).u


class TestPlannedRightSide:
    """The oracle scans its fixed grid with one plan per run, and that is exact."""

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("scale", [1.0, 1.3])
    def test_matches_l_op_bit_for_bit(self, n, scale):
        grid = Grid.from_interval(-20.0, 20.0, n)
        u = scale * gaussian_field(grid, amp=0.5).u
        np.testing.assert_array_equal(_dudt(u, _scan_plan(grid.x), grid.h),
                                      l_op_rhs(u, grid))

    def test_blow_up_run_matches_l_op_loop(self):
        grid = Grid.from_interval(-20.0, 20.0, 256)
        u0 = antisymmetric_field(grid, amp=-1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            states = integrate_eulerian(u0, 3.0, 2e-3, record_every=100)
            t, u = 0.0, u0.u
            expected = [(t, u)]
            try:
                march = _march(u, 3.0, 2e-3, lambda z, tz: l_op_rhs(z, grid))
                for steps, (t, u, _) in enumerate(march, 1):
                    if steps % 100 == 0:
                        expected.append((t, u))
            except ValueError:
                pass  # the reference blew up too
        if expected[-1][0] != t:
            expected.append((t, u))
        assert t < 3.0
        assert [s.t for s in states] == [te for te, _ in expected]
        for state, (_, u) in zip(states, expected):
            np.testing.assert_array_equal(state.u, u)


class TestIntegrateEulerian:
    def test_zero_data(self, grid20):
        states = integrate_eulerian(ScalarField1.zeros(grid20), 0.1, 1e-2)
        assert all(np.abs(s.u).max() == 0.0 for s in states)
        assert states[-1].t == pytest.approx(0.1, abs=1e-12)

    def test_energy_drift_small(self):
        grid = Grid.from_interval(-20.0, 20.0, 1024)
        states = integrate_eulerian(gaussian_field(grid, amp=0.5), 0.5, 2e-3,
                                    record_every=50)
        E, M = [], []
        for s in states:
            ux = fourth_order_dx(s.u, grid.h)
            E.append(_trapz(s.u ** 2 + ux ** 2, grid.h))
            M.append(_trapz(s.u, grid.h))
        E, M = np.array(E), np.array(M)
        # The trapezoid kernel scans leave an O(h^2) conservation residual,
        # measured at ~4e-5 relative at this resolution and horizon.
        assert np.abs(E - E[0]).max() / E[0] <= 1e-4
        assert np.abs(M - M[0]).max() / abs(M[0]) <= 1e-7

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_bad_times_rejected(self, grid20, bad):
        with pytest.raises(ValueError):
            integrate_eulerian(ScalarField1.zeros(grid20), bad, 1e-3)

    def test_record_every_must_be_positive(self, grid20):
        with pytest.raises(ValueError, match="record_every"):
            integrate_eulerian(ScalarField1.zeros(grid20), 0.1, 1e-2, record_every=0)

    @pytest.mark.parametrize("n, t_last", [(256, 2.176), (512, 2.056), (1024, 1.976)])
    def test_blow_up_ends_at_last_state_with_finite_right_side(self, n, t_last):
        # Breaking data blow up in the Eulerian form.  The loop evaluates the
        # right side of each new state before accepting it, so the run ends at
        # the last state whose right side is finite.  At n = 256 the state at
        # t = 2.184 is finite but its right side is not.
        grid = Grid.from_interval(-20.0, 20.0, n)
        with np.errstate(over="ignore", invalid="ignore"):
            states = integrate_eulerian(antisymmetric_field(grid, amp=-1.0), 3.0, 8e-3,
                                        record_every=10 ** 9)
        assert [s.t for s in states[:-1]] == [0.0]
        assert states[-1].t == pytest.approx(t_last, abs=1e-9)
        assert np.isfinite(_dudt(states[-1].u, _scan_plan(grid.x), grid.h)).all()

    @pytest.mark.filterwarnings("error")
    def test_blow_up_raises_no_warning(self):
        # A blow-up is an expected end of an Eulerian run: it overflows on its
        # way to the non-finite value that ends the run, without a warning.
        grid = Grid.from_interval(-20.0, 20.0, 256)
        states = integrate_eulerian(antisymmetric_field(grid, amp=-1.0), 3.0, 8e-3,
                                    record_every=10 ** 9)
        assert states[-1].t == pytest.approx(2.176, abs=1e-9)


class TestCompare:
    def test_identical_zero_solutions(self, grid20):
        traj = integrate(ScalarField1.zeros(grid20), 0.1, 1e-2, record_every=5)
        states = integrate_eulerian(ScalarField1.zeros(grid20), 0.1, 1e-2,
                                    record_every=5)
        report = compare(traj, states, [0.0, 0.1])
        assert report.sup_diff == [0.0, 0.0]
        assert report.l2_diff == [0.0, 0.0]

    def test_missing_time_rejected(self, grid20):
        traj = integrate(ScalarField1.zeros(grid20), 0.1, 1e-2)
        states = integrate_eulerian(ScalarField1.zeros(grid20), 0.1, 1e-2)
        with pytest.raises(TimeMismatch):
            compare(traj, states, [0.05])

    def test_grid_mismatch_rejected(self, grid20):
        other = Grid.from_interval(-20.0, 20.0, 513)
        traj = integrate(ScalarField1.zeros(grid20), 0.1, 1e-2)
        states = integrate_eulerian(ScalarField1.zeros(other), 0.1, 1e-2)
        with pytest.raises(GridMismatch, match="trajectories live on different grids"):
            compare(traj, states, [0.1])

    def test_cross_method_gap_shrinks_second_order(self):
        # Halving h (and dt with it) cuts the cross-formulation gap by the
        # trapezoid floor factor of about four.
        gaps = []
        for n, dt in ((512, 4e-3), (1024, 2e-3)):
            grid = Grid.from_interval(-20.0, 20.0, n)
            u0 = gaussian_field(grid, amp=0.5)
            traj = integrate(u0, 1.0, dt, record_every=10 ** 9)
            states = integrate_eulerian(u0, 1.0, dt, record_every=10 ** 9)
            gaps.append(compare(traj, states, [1.0]).sup_diff[0])
        assert 3.0 <= gaps[0] / gaps[1] <= 6.0
