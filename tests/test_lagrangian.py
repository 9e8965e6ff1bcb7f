import numpy as np
import pytest

from chflow import (
    Diffeo,
    FlowState,
    Grid,
    ScalarField1,
    comp1,
    conserved_quantities,
    consistency_diagnostics,
    from_displacement,
    integrate,
    l_op,
    quadratic_source,
    reconstruct_u,
    reflect,
    rhs,
    rk4_step,
)
from chflow import lagrangian
from chflow.errors import AdmissibilityError, ChartViolation
from chflow.eulerian import EulerianState, euler_rhs
from chflow.fields import norm_11

from conftest import antisymmetric_field, gaussian_field


def id_state(grid, U):
    return FlowState(0.0, Diffeo.identity(grid), U)


class TestQuadraticSource:
    def test_zero_velocity(self, grid20):
        g = quadratic_source(id_state(grid20, ScalarField1.zeros(grid20)))
        assert np.abs(g.g).max() == 0.0

    def test_gaussian_closed_form(self):
        # eta = id, U = e^{-x^2}: source is e^{-2x^2} (1 + 2 x^2).
        grid = Grid.from_interval(-20.0, 20.0, 4001)
        g = quadratic_source(id_state(grid, gaussian_field(grid)))
        exact = np.exp(-2 * grid.x ** 2) * (1 + 2 * grid.x ** 2)
        assert np.abs(g.g - exact).max() <= 1e-14
        assert g.g[2000] == pytest.approx(1.0)
        assert g.g[2100] == pytest.approx(3 * np.exp(-2.0), abs=1e-12)

    def test_nonnegative(self, grid20, rng):
        from chflow.checks import random_bump_diffeo, random_bump_field1
        for _ in range(10):
            state = FlowState(0.0, random_bump_diffeo(grid20, rng),
                              random_bump_field1(grid20, rng))
            assert quadratic_source(state).g.min() >= 0.0

    def test_chart_violation(self, grid20):
        # Slope dips to 5e-4: still a diffeomorphism, but past the breaking guard.
        shallow = ScalarField1(grid20, np.zeros(grid20.n),
                               -0.9995 * np.exp(-grid20.x ** 2))
        state = FlowState(0.0, Diffeo(shallow), gaussian_field(grid20))
        with pytest.raises(ChartViolation):
            quadratic_source(state)


class TestRhs:
    def test_rest_state_is_stationary(self, grid20):
        deta, dU = rhs(id_state(grid20, ScalarField1.zeros(grid20)))
        assert np.abs(deta.u).max() == 0.0
        assert np.abs(dU.u).max() == 0.0
        assert np.abs(dU.du).max() == 0.0

    def test_identity_map_matches_eulerian_nonlocal_term(self, grid20):
        # At eta = id the acceleration is -L(u^2 + u_x^2/2), the nonlocal
        # side of u_t + u u_x = -L(...); euler_rhs carries the extra -u u_x.
        u0 = gaussian_field(grid20, amp=0.5)
        state = id_state(grid20, u0)
        _, dU = rhs(state, quad_order=2)
        direct = l_op(quadratic_source(state))
        np.testing.assert_array_equal(dU.u, -direct.u)
        eul = euler_rhs(EulerianState(0.0, grid20, u0.u))
        ux = np.gradient(u0.u, grid20.h, edge_order=2)
        assert np.abs(dU.u - (eul + u0.u * ux)).max() <= 50 * grid20.h ** 2

    def test_even_velocity_gives_odd_acceleration(self, grid20):
        _, dU = rhs(id_state(grid20, gaussian_field(grid20, amp=0.7)))
        assert np.abs(dU.u + dU.u[::-1]).max() <= 1e-13

    def test_deta_is_velocity(self, grid20):
        u0 = gaussian_field(grid20, amp=0.4)
        deta, _ = rhs(id_state(grid20, u0))
        np.testing.assert_array_equal(deta.u, u0.u)
        np.testing.assert_array_equal(deta.du, u0.du)


class TestRk4Step:
    def test_rest_state_only_advances_time(self, grid20):
        state = id_state(grid20, ScalarField1.zeros(grid20))
        out = rk4_step(state, 0.25)
        assert out.t == 0.25
        assert np.abs(out.U.u).max() == 0.0
        assert np.abs(out.eta.v.u).max() == 0.0

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan])
    def test_bad_time_step_rejected(self, grid20, dt):
        with pytest.raises(ValueError):
            rk4_step(id_state(grid20, ScalarField1.zeros(grid20)), dt)

    def test_local_order_at_least_four_and_a_half(self):
        grid = Grid.from_interval(-20.0, 20.0, 513)
        state = id_state(grid, gaussian_field(grid, amp=0.4))
        diffs = []
        for dt in (0.05, 0.025):
            one = rk4_step(state, dt)
            two = rk4_step(rk4_step(state, dt / 2), dt / 2)
            diffs.append(max(np.abs(one.U.u - two.U.u).max(),
                             np.abs(one.eta.v.u - two.eta.v.u).max(),
                             np.abs(one.U.du - two.U.du).max(),
                             np.abs(one.eta.v.du - two.eta.v.du).max()))
        assert np.log2(diffs[0] / diffs[1]) >= 4.5


class TestIntegrate:
    def test_zero_data_stays_at_rest(self, grid20):
        traj = integrate(ScalarField1.zeros(grid20), 0.2, 1e-2, record_every=5)
        assert traj.completed
        for state in traj.states:
            assert np.abs(state.U.u).max() == 0.0
            assert np.abs(state.eta.v.u).max() == 0.0
        assert np.abs(traj.diagnostics.energy).max() == 0.0

    def test_inadmissible_data_rejected(self, grid20):
        ramp = ScalarField1(grid20, grid20.x.copy(), np.ones(grid20.n))
        with pytest.raises(AdmissibilityError):
            integrate(ramp, 1.0, 1e-3)

    def test_small_data_reaches_final_time(self):
        grid = Grid.from_interval(-20.0, 20.0, 513)
        traj = integrate(gaussian_field(grid, amp=0.1), 1.0, 4e-3, record_every=50)
        assert traj.completed
        assert traj.final.t == pytest.approx(1.0, abs=1e-12)

    def test_energy_conservation_moderate_run(self):
        grid = Grid.from_interval(-20.0, 20.0, 1024)
        traj = integrate(gaussian_field(grid, amp=0.5), 0.5, 2e-3, record_every=50)
        d = traj.diagnostics
        assert np.abs(d.energy - d.energy[0]).max() / d.energy[0] <= 1e-7
        assert np.abs(d.momentum - d.momentum[0]).max() / d.momentum[0] <= 1e-7

    def test_breaking_profile_halts_cleanly(self):
        grid = Grid.from_interval(-20.0, 20.0, 512)
        traj = integrate(antisymmetric_field(grid, amp=-1.0), 5.0, 2e-3,
                         record_every=100)
        assert not traj.completed
        assert np.isfinite(traj.breakdown_time)
        d = traj.diagnostics
        for arr in (d.energy, d.momentum, d.min_eta_x, d.sup_u):
            assert np.isfinite(arr).all()
        tail = d.min_eta_x[-max(2, len(d.min_eta_x) // 5):]
        assert np.all(np.diff(tail) < 0)
        assert d.min_eta_x[-1] > 0

    def test_recording_cadence(self):
        grid = Grid.from_interval(-20.0, 20.0, 256)
        traj = integrate(gaussian_field(grid, amp=0.2), 0.1, 1e-2, record_every=3)
        times = [s.t for s in traj.states]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.1, abs=1e-12)
        assert len(traj.diagnostics.t) == 11

    def test_adaptive_matches_fixed_step(self):
        grid = Grid.from_interval(-20.0, 20.0, 256)
        u0 = gaussian_field(grid, amp=0.3)
        fixed = integrate(u0, 0.2, 2e-3, record_every=10 ** 9)
        adaptive = integrate(u0, 0.2, 2e-3, record_every=10 ** 9,
                             adaptive=True, adapt_tol=1e-10)
        assert adaptive.completed
        assert np.abs(fixed.final.U.u - adaptive.final.U.u).max() <= 1e-7

    @pytest.mark.parametrize("steps, record_every", [(10, 10 ** 9), (100, 10 ** 9), (100, 10)])
    def test_typed_containers_only_for_recorded_states(self, monkeypatch, steps,
                                                       record_every):
        # The stage loop evolves flat arrays; ScalarField1 is built for the
        # recorded states only, however many steps the run takes.
        grid = Grid.from_interval(-20.0, 20.0, 128)
        u0 = gaussian_field(grid, amp=0.3)
        built = []
        original = ScalarField1.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(ScalarField1, "__post_init__", counting)
        traj = integrate(u0, 0.2, 0.2 / steps, record_every=record_every)
        assert len(traj.diagnostics.t) == steps + 1
        assert len(built) <= 4 + 2 * len(traj.states)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_state_raises(self, monkeypatch):
        grid = Grid.from_interval(-20.0, 20.0, 128)
        real = lagrangian._l_eta_arrays

        def poisoned(*args):
            val, der = real(*args)
            der[grid.n // 2] = -np.inf
            return val, der

        monkeypatch.setattr(lagrangian, "_l_eta_arrays", poisoned)
        with pytest.raises(ValueError, match="non-finite"):
            integrate(gaussian_field(grid, amp=0.3), 0.1, 1e-2)


class TestReconstruct:
    def test_identity_state_returns_velocity(self, grid20):
        u0 = gaussian_field(grid20, amp=0.5)
        u = reconstruct_u(id_state(grid20, u0))
        assert np.abs(u.u - u0.u).max() <= 1e-12
        assert np.abs(u.du - u0.du).max() <= 1e-12

    def test_round_trip_through_flow_map(self):
        grid = Grid.from_interval(-20.0, 20.0, 1024)
        traj = integrate(gaussian_field(grid, amp=0.5), 0.5, 2e-3,
                         record_every=10 ** 9)
        state = traj.final
        u = reconstruct_u(state)
        back = comp1(u, state.eta)
        assert norm_11(back - state.U) <= 10 * grid.h ** 2


class TestConservedQuantities:
    def test_zero(self, grid20):
        assert conserved_quantities(ScalarField1.zeros(grid20)) == (0.0, 0.0)

    def test_gaussian_closed_forms(self, grid20):
        energy, momentum = conserved_quantities(gaussian_field(grid20))
        assert energy == pytest.approx(2.0 * np.sqrt(np.pi / 2.0), abs=1e-9)
        assert momentum == pytest.approx(np.sqrt(np.pi), abs=1e-9)


class TestStructure:
    def test_channel_consistency_is_second_order(self):
        devs = []
        for n in (513, 1025):
            grid = Grid.from_interval(-20.0, 20.0, n)
            traj = integrate(gaussian_field(grid, amp=0.5), 0.25,
                             grid.h / 8.0, record_every=10 ** 9)
            devs.append(max(consistency_diagnostics(traj.final).values()))
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.35)

    def test_reflection_equivariance(self):
        grid = Grid.from_interval(-20.0, 20.0, 512)
        u0 = antisymmetric_field(grid, amp=0.3, center=1.0)
        fwd = integrate(u0, 0.5, 2e-3, record_every=10 ** 9).final
        bwd = integrate(reflect(u0), 0.5, 2e-3, record_every=10 ** 9).final
        u_fwd = reconstruct_u(fwd)
        u_bwd = reconstruct_u(bwd)
        assert norm_11(reflect(u_fwd) - u_bwd) <= 10 * grid.h ** 2
