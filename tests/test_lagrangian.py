import ast
import functools
import inspect
import math
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from chflow import (
    Diffeo,
    FlowState,
    Grid,
    ScalarField0,
    ScalarField1,
    Trajectory,
    comp1,
    integrate,
    l_op,
    reconstruct_u,
    rk4_step,
)
from chflow import config, lagrangian
from chflow.config import TimeConfig, config_from_dict, make_initial
from chflow.errors import AdmissibilityError, ChartViolation, GridMismatch
from chflow.eulerian import _dudt
from chflow.fields import norm_11
from chflow.operators import _scan_plan, _scan_sd

from conftest import (
    antisymmetric_field,
    conserved_quantities,
    derivative_consistency,
    gaussian_field,
    reflect,
)


def id_state(grid, U):
    return FlowState(0.0, Diffeo.identity(grid), U)


def source(state):
    """U^2 + U_x^2 / (2 eta_x^2) of the state, as the stage loop forms it."""
    y = lagrangian._pack(state)
    return ScalarField0(state.grid, lagrangian._source(y, 1.0 + y[1]))


def dydt(state, order=4):
    """(d eta/dt, dU/dt) of the state from the stage loop's right side."""
    k = lagrangian._dydt(lagrangian._pack(state), state.t, state.grid, order)
    return ScalarField1(state.grid, k[0], k[1]), ScalarField1(state.grid, k[2], k[3])


@functools.lru_cache(maxsize=None)
def breaking_run(amp, n=512, eps_break=1e-3):
    """Adaptive run of odd data with u0'(0) = amp < 0, dt and t_end scaled by 1/|amp|,
    with the breaking threshold _EPS_BREAK set to eps_break."""
    grid = Grid.from_interval(-20.0, 20.0, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lagrangian, "_EPS_BREAK", eps_break)
        return integrate(antisymmetric_field(grid, amp=amp), 3.0 / abs(amp), 2e-3 / abs(amp),
                         record_every=10 ** 9, adaptive=True)


class TestQuadraticSource:
    def test_zero_velocity(self, grid20):
        g = source(id_state(grid20, ScalarField1.zeros(grid20)))
        assert np.abs(g.g).max() == 0.0

    def test_gaussian_closed_form(self):
        # eta = id, U = e^{-x^2}: source is e^{-2x^2} (1 + 2 x^2).
        grid = Grid.from_interval(-20.0, 20.0, 4001)
        g = source(id_state(grid, gaussian_field(grid)))
        exact = np.exp(-2 * grid.x ** 2) * (1 + 2 * grid.x ** 2)
        assert np.abs(g.g - exact).max() <= 1e-14
        assert g.g[2000] == pytest.approx(1.0)
        assert g.g[2100] == pytest.approx(3 * np.exp(-2.0), abs=1e-12)

    def test_nonnegative(self, grid20, rng):
        from chflow.checks import random_bump_diffeo, random_bump_field1
        for _ in range(10):
            state = FlowState(0.0, random_bump_diffeo(grid20, rng),
                              random_bump_field1(grid20, rng))
            assert source(state).g.min() >= 0.0

    def test_chart_violation(self, grid20):
        # Slope dips to 5e-4: still a diffeomorphism, but past the breaking guard.
        shallow = ScalarField1(grid20, np.zeros(grid20.n),
                               -0.9995 * np.exp(-grid20.x ** 2))
        state = FlowState(0.0, Diffeo(shallow), gaussian_field(grid20))
        with pytest.raises(ChartViolation):
            dydt(state)


class TestRhs:
    def test_rest_state_is_stationary(self, grid20):
        deta, dU = dydt(id_state(grid20, ScalarField1.zeros(grid20)))
        assert np.abs(deta.u).max() == 0.0
        assert np.abs(dU.u).max() == 0.0
        assert np.abs(dU.du).max() == 0.0

    def test_identity_map_matches_eulerian_nonlocal_term(self, grid20):
        # At eta = id the acceleration is -L(u^2 + u_x^2/2), the nonlocal
        # side of u_t + u u_x = -L(...); the Eulerian u_t carries the extra -u u_x.
        # At order 2, which only integrate(quad_order=2) reaches, the reference
        # is the order-2 scan pair itself: value D, derivative S - phi.
        u0 = gaussian_field(grid20, amp=0.5)
        state = id_state(grid20, u0)
        _, dU = dydt(state, order=2)
        phi = source(state).g
        S, D = _scan_sd(_scan_plan(grid20.x), phi, grid20.h, order=2)
        np.testing.assert_array_equal(dU.u, -D)
        np.testing.assert_array_equal(dU.du, -(S - phi))
        eul = _dudt(u0.u, _scan_plan(grid20.x), grid20.h)
        ux = np.gradient(u0.u, grid20.h, edge_order=2)
        assert np.abs(dU.u - (eul + u0.u * ux)).max() <= 50 * grid20.h ** 2

    def test_identity_map_matches_eulerian_nonlocal_term_order_4(self, grid20):
        u0 = gaussian_field(grid20, amp=0.5)
        state = id_state(grid20, u0)
        _, dU = dydt(state, order=4)
        direct = l_op(source(state))
        np.testing.assert_array_equal(dU.u, -direct.u)
        np.testing.assert_array_equal(dU.du, -direct.du)
        eul = _dudt(u0.u, _scan_plan(grid20.x), grid20.h)
        ux = np.gradient(u0.u, grid20.h, edge_order=2)
        assert np.abs(dU.u - (eul + u0.u * ux)).max() <= 50 * grid20.h ** 2

    def test_even_velocity_gives_odd_acceleration(self, grid20):
        _, dU = dydt(id_state(grid20, gaussian_field(grid20, amp=0.7)))
        assert np.abs(dU.u + dU.u[::-1]).max() <= 1e-13

    def test_deta_is_velocity(self, grid20):
        u0 = gaussian_field(grid20, amp=0.4)
        deta, _ = dydt(id_state(grid20, u0))
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

    def test_non_finite_end_position_raises(self, grid20):
        # Gaps stay positive when only the last node runs off to +inf; the
        # chart check still rejects the state, so the scan need not.
        y = lagrangian._pack(id_state(grid20, gaussian_field(grid20, amp=0.3)))
        y[0, -1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            lagrangian._dydt(y, 0.0, grid20, 4)

    def test_end_state_chart_checked(self, grid20, monkeypatch):
        # Stages are checked where they are evaluated; the returned state is
        # checked by rk4_step itself.  A constant right side lowers eta_x at
        # x = 0 from 1 to 1 - dt without any stage check in the way.
        k = np.zeros((4, grid20.n))
        k[1] = -np.exp(-grid20.x ** 2)
        monkeypatch.setattr(lagrangian, "_dydt", lambda y, t, grid, order: k)
        state = id_state(grid20, ScalarField1.zeros(grid20))
        assert rk4_step(state, 0.998).eta.v.du.min() == pytest.approx(-0.998)
        with pytest.raises(ChartViolation) as exc:
            rk4_step(state, 0.9995)
        assert exc.value.time == 0.9995


class TestTableaus:
    @pytest.mark.parametrize("tab", [lagrangian._RK4, lagrangian._DP54], ids=["RK4", "DP54"])
    def test_consistent(self, tab):
        # stage i sits at time t + c_i step; y_{n+1} is a weighted mean of the
        # stages, and the embedded error vanishes on constant stages
        assert len(tab.a) == len(tab.c) == len(tab.b) - 1
        for i, (row, c) in enumerate(zip(tab.a, tab.c)):
            assert len(row) == i + 1
            assert sum(row) == c
        assert sum(tab.b) == 1
        if tab.e is not None:
            assert len(tab.e) == len(tab.b) + 1
            assert sum(tab.e) == 0

    @pytest.mark.parametrize("z", [-2.0, -0.5, 0.3])
    def test_linear_step_is_the_stability_polynomial(self, z):
        # On y' = lam y one step from y0 = 1 gives the method's stability
        # polynomial R(z), z = lam step, and the DP54 error, formed as _march
        # forms it, gives |E(z)| with E = R - R_hat of the embedded
        # fourth-order solution.  Stage sums reach magnitudes near ten at
        # z = -2, so R keeps about 1e-14 of relative accuracy; the error is a
        # difference of O(1) stage sums, accurate to about 1e-17 absolute.
        step = 0.5

        def f(y, t):
            return (z / step) * y

        y = np.ones(1)
        new, _ = lagrangian._rk_step(lagrangian._RK4, y, 0.0, step, f, f(y, 0.0))
        rk4 = sum(z ** k / math.factorial(k) for k in range(5))
        assert new[0] == pytest.approx(rk4, rel=1e-14)
        tab = lagrangian._DP54
        new, ks = lagrangian._rk_step(tab, y, 0.0, step, f, f(y, 0.0))
        dp5 = sum(z ** k / math.factorial(k) for k in range(6)) + z ** 6 / 600
        assert new[0] == pytest.approx(dp5, rel=1e-14)
        ks.append(f(new, step))
        err = float(np.abs(lagrangian._lincomb([k[:2] for k in ks], tab.err, step)).max())
        e = -97 / 120000 * z ** 5 + 13 / 40000 * z ** 6 - 1 / 24000 * z ** 7
        assert err == pytest.approx(abs(e), rel=1e-10)

    def test_adaptive_local_order_at_least_five_and_a_half(self):
        # Fifth-order solution: one step against two half steps differs by
        # O(dt^6); the embedded fourth-order error estimate is O(dt^5).
        grid = Grid.from_interval(-20.0, 20.0, 513)
        tab = lagrangian._DP54
        y = lagrangian._pack(id_state(grid, gaussian_field(grid, amp=0.4)))

        def f(z, tz):
            return lagrangian._dydt(z, tz, grid, 4)

        def step(z, dt):
            new, ks = lagrangian._rk_step(tab, z, 0.0, dt, f, f(z, 0.0))
            ks.append(f(new, dt))
            err = dt * np.abs(sum(float(e) * k[:2] for e, k in zip(tab.e, ks))).max()
            return new, err

        diffs, errs = [], []
        for dt in (0.2, 0.1):
            one, err = step(y, dt)
            two = step(step(y, dt / 2)[0], dt / 2)[0]
            diffs.append(np.abs(one - two).max())
            errs.append(err)
        assert np.log2(diffs[0] / diffs[1]) >= 5.5
        assert np.log2(errs[0] / errs[1]) >= 4.5


class TestRecords:
    def test_flow_state_grids_must_match(self, grid20):
        other = Grid.from_interval(-20.0, 20.0, 513)
        with pytest.raises(GridMismatch, match="flow map and velocity"):
            FlowState(0.0, Diffeo.identity(other), ScalarField1.zeros(grid20))

    def test_trajectory_times_must_increase(self, grid20):
        traj = integrate(ScalarField1.zeros(grid20), 0.1, 1e-2, record_every=5)
        assert len(traj.states) == 3
        for states in (traj.states[::-1], [traj.states[0], traj.final, traj.final]):
            with pytest.raises(ValueError, match="strictly increasing"):
                Trajectory(states=states, diagnostics=traj.diagnostics)


    @pytest.mark.parametrize("tab, dt, fail_at, recorded", [
        (lagrangian._RK4, 2.0 ** -3, None, [0, 3, 6, 7]),
        (lagrangian._RK4, 2.0 ** -3, 1 + 4 * 5 + 2, [0, 3, 5]),  # in the sixth step's stages
        (lagrangian._RK4, 2.0 ** -3, 1, [0]),
        (lagrangian._DP54, 2.0 ** 9, None, [0, 3, 4]),
    ], ids=["completed", "raises-later", "raises-first", "adaptive-at-floor"])
    def test_march_records_by_its_rule(self, monkeypatch, tab, dt, fail_at, recorded):
        # record_every = 3: _march records the initial state, every third
        # accepted step and the last accepted one, however the march ends.
        # No DP54 step meets this tolerance, so its first trial, the whole
        # t_end, is rejected and it takes four steps at the floor dt 2^-12 =
        # 2^-3, where the error estimate lies far above rounding.
        monkeypatch.setattr(lagrangian, "_ADAPT_TOL", 1e-30)
        t_end = (7 if tab is lagrangian._RK4 else 4) * 2.0 ** -3
        calls = []

        def f(y, t):
            calls.append(t)
            if len(calls) == fail_at:
                raise ValueError("right side failed")
            return np.cos(y)

        y0 = np.ones((1, 4))
        tally, records, accepted = Counter(), [], [(0.0, y0)]
        try:
            for t, y, _ in lagrangian._march(y0, t_end, dt, 3, f, tab, tally, records):
                accepted.append((t, y))
        except ValueError:
            assert len(calls) == fail_at
        assert [t for t, _ in records] == [accepted[k][0] for k in recorded]
        assert all(y is accepted[k][1] for (_, y), k in zip(records, recorded))
        if fail_at is None:
            assert accepted[-1][0] == t_end
        trials = (len(calls) - 1) // len(tab.b)
        steps = len(accepted) - 1
        assert tally == (Counter() if tab is lagrangian._RK4 else
                         Counter(rejected=trials - steps, at_floor=steps))


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

    def test_every_broken_time_rule_named_at_once(self, grid20):
        # The solvers' input check and the configuration's share one owner
        # of the time rules, which reports each broken rule.
        with pytest.raises(ValueError) as exc:
            lagrangian._check_run(ScalarField1.zeros(grid20), math.inf, 0.0, 1)
        assert str(exc.value) == "t_end must be > 0, got inf; dt must be > 0, got 0.0"

    def test_record_every_bounded_where_float_is_exact(self, grid20):
        # Up to 2**53 float(record_every) is exact; past it dt * record_every
        # may overflow, and no run records more than 0 and t_end anyway.
        zeros = ScalarField1.zeros(grid20)
        lagrangian._check_run(zeros, 1.0, 0.1, 2 ** 53)
        for record_every in (2 ** 53 + 1, 10 ** 400):
            with pytest.raises(ValueError, match=r"record_every must lie in \[1, 2\*\*53\]"):
                lagrangian._check_run(zeros, 1.0, 0.1, record_every)

    def test_small_data_reaches_final_time(self):
        grid = Grid.from_interval(-20.0, 20.0, 513)
        traj = integrate(gaussian_field(grid, amp=0.1), 1.0, 4e-3, record_every=50)
        assert traj.completed
        assert traj.final.t == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t_end, dt, record_every", [(2.0, 1e-3, 100), (1.0, 8e-3, 25)])
    def test_fixed_run_ends_at_t_end(self, t_end, dt, record_every):
        # t sums the steps with compensation, so every step is dt, the run
        # ends at t_end exactly and its k-th record lies within an ulp of
        # k * record_every * dt.
        grid = Grid.from_interval(-20.0, 20.0, 64)
        traj = integrate(gaussian_field(grid, amp=0.1), t_end, dt, record_every=record_every)
        assert traj.final.t == t_end
        assert traj.step_min == traj.step_max == dt
        for k, state in enumerate(traj.states):
            expected = k * record_every * dt
            assert abs(state.t - expected) <= np.spacing(expected)

    def test_integrate_takes_only_what_a_run_sets(self):
        # Besides the data and the scan order, integrate takes the time
        # section as it is; the breaking threshold and the adaptive tolerance
        # are constants.
        params = inspect.signature(integrate).parameters
        assert sorted(params) == sorted(["u0", "quad_order",
                                         *(f.name for f in fields(TimeConfig))])

    def test_config_sections_hold_only_schema(self):
        # A section class is its keys: the only method is the grid's build.
        tree = ast.parse(Path(config.__file__).read_text())
        methods = {node.name: [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
                   for node in tree.body if isinstance(node, ast.ClassDef)}
        assert methods == {"GridConfig": ["build"], "TimeConfig": [], "InitialConfig": [],
                           "SimConfig": []}

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

    def test_breaking_time_bound_and_scaling(self):
        # Odd data with u0'(0) = A < 0 break before 2/|A| (Constantin-Escher),
        # and u(t, x) -> l u(l t, x) maps the A = -1 run onto the A = -2 run
        # (dt scaled by 1/l), so the breakdown time halves.
        grid = Grid.from_interval(-20.0, 20.0, 512)
        dt = 2e-3
        times = {}
        for amp in (-1.0, -2.0):
            traj = integrate(antisymmetric_field(grid, amp=amp), 3.0 / abs(amp),
                             dt / abs(amp), record_every=10 ** 9, adaptive=True)
            assert not traj.completed
            assert 0.0 < traj.breakdown_time < 2.0 / abs(amp)
            times[amp] = traj.breakdown_time
        assert abs(times[-1.0] - 2.0 * times[-2.0]) <= 2.0 * dt

    def test_scaling_maps_whole_trajectory(self):
        # u(t, x) -> 2 u(2 t, x) maps the A = -1 run onto the A = -2 run with
        # dt halved: at every recorded state eta agrees and U doubles.
        grid = Grid.from_interval(-20.0, 20.0, 512)
        one = integrate(antisymmetric_field(grid, amp=-1.0), 1.0, 2e-3, record_every=25)
        two = integrate(antisymmetric_field(grid, amp=-2.0), 0.5, 1e-3, record_every=25)
        assert one.completed and two.completed
        assert len(one.states) == len(two.states) == 21
        for a, b in zip(one.states, two.states):
            assert b.t == pytest.approx(0.5 * a.t, abs=1e-12)
            for x1, x2 in ((a.eta.v.u, b.eta.v.u), (a.eta.v.du, b.eta.v.du),
                           (2.0 * a.U.u, b.U.u), (2.0 * a.U.du, b.U.du)):
                assert np.abs(x2 - x1).max() <= 1e-13 * np.abs(x1).max()

    def test_recording_cadence(self):
        grid = Grid.from_interval(-20.0, 20.0, 256)
        traj = integrate(gaussian_field(grid, amp=0.2), 0.1, 1e-2, record_every=3)
        times = [s.t for s in traj.states]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.1, abs=1e-12)
        assert len(traj.diagnostics.t) == 11

    def test_adaptive_matches_fixed_step(self, monkeypatch):
        grid = Grid.from_interval(-20.0, 20.0, 256)
        u0 = gaussian_field(grid, amp=0.3)
        fixed = integrate(u0, 0.2, 2e-3, record_every=10 ** 9)
        monkeypatch.setattr(lagrangian, "_ADAPT_TOL", 1e-10)
        adaptive = integrate(u0, 0.2, 2e-3, record_every=10 ** 9, adaptive=True)
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

    @pytest.mark.parametrize("adaptive, adapt_tol, t_end, dt, stages", [
        pytest.param(False, 1e-10, 0.1, 1e-2, 4, id="False-1e-10"),
        pytest.param(True, 1e-10, 2.0, 0.1, 6, id="True-1e-10"),
        pytest.param(True, 1e-14, 0.5, 0.1, 6, id="True-1e-14")])
    def test_four_evaluations_per_step_plus_one(self, monkeypatch, adaptive, adapt_tol,
                                                t_end, dt, stages):
        # The last evaluation of a step is the next step's first stage (FSAL):
        # per accepted or rejected step, 4 right-side evaluations for fixed
        # RK4 and 6 for the adaptive Dormand-Prince pair, plus one.
        grid = Grid.from_interval(-20.0, 20.0, 128)
        calls = []
        real = lagrangian._dydt

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(lagrangian, "_dydt", counting)
        monkeypatch.setattr(lagrangian, "_ADAPT_TOL", adapt_tol)
        traj = integrate(gaussian_field(grid, amp=0.3), t_end, dt, record_every=10 ** 9,
                         adaptive=adaptive)
        accepted = len(traj.diagnostics.t) - 1
        assert traj.completed
        assert accepted >= 10
        assert (traj.steps_rejected > 0) == (adapt_tol < 1e-12)
        assert traj.steps_at_floor == 0
        assert len(calls) == traj.rhs_evaluations == (
            stages * (accepted + traj.steps_rejected) + 1)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_chart_formed_once_per_evaluation(self, monkeypatch, adaptive):
        # Every evaluation checks its own state's chart, the new state's
        # included (its evaluation is the next step's first stage).
        grid = Grid.from_interval(-20.0, 20.0, 128)
        charts, evals = [], []
        real_chart, real_dydt = lagrangian._chart, lagrangian._dydt

        def chart(*args):
            charts.append(1)
            return real_chart(*args)

        def dydt(*args):
            evals.append(1)
            return real_dydt(*args)

        monkeypatch.setattr(lagrangian, "_chart", chart)
        monkeypatch.setattr(lagrangian, "_dydt", dydt)
        traj = integrate(gaussian_field(grid, amp=0.3), 0.1, 1e-2, record_every=10 ** 9,
                         adaptive=adaptive)
        if not adaptive:
            assert len(traj.diagnostics.t) - 1 == 10
            assert len(evals) == 41
        assert len(evals) == traj.rhs_evaluations
        assert len(charts) == len(evals)

    def test_unreachable_tolerance_accepts_at_floor(self, monkeypatch):
        # No step meets _ADAPT_TOL: the first step, 6 dt 2^-12 long, shrinks by
        # the factor 0.2 until it reaches the floor dt 2^-12 (two rejections),
        # and every step is accepted there and counted.
        grid = Grid.from_interval(-20.0, 20.0, 128)
        dt = 1e-2
        monkeypatch.setattr(lagrangian, "_ADAPT_TOL", 1e-30)
        traj = integrate(gaussian_field(grid, amp=0.3), 6.0 * dt * 2.0 ** -12, dt,
                         record_every=10 ** 9, adaptive=True)
        assert traj.completed
        assert traj.steps_rejected == 2
        assert traj.steps_at_floor == len(traj.diagnostics.t) - 1 == 6

    def test_step_grows_back_when_error_falls(self):
        # CH is invariant under (t, u) -> (-t, -u), so odd data that steepen
        # toward breaking (A = -1), taken at t = 1 and negated, relax instead:
        # after the first trial step is rejected, the error estimate falls on
        # the way and the step grows again.  Nothing but t_end caps it: from a
        # small first step it grows well past dt.
        grid = Grid.from_interval(-20.0, 20.0, 256)
        steep = reconstruct_u(integrate(antisymmetric_field(grid, amp=-1.0), 1.0, 2e-3,
                                        record_every=10 ** 9).final)
        u0 = ScalarField1(grid, -steep.u, -steep.du)
        traj = integrate(u0, 2.0, 0.1, record_every=10 ** 9, adaptive=True)
        steps = np.diff(traj.diagnostics.t)[:-1]  # the last step is cut to t_end
        assert traj.completed and traj.steps_rejected > 0
        assert steps.max() > 1.5 * steps[0]
        small = integrate(u0, 2.0, 1e-3, record_every=10 ** 9, adaptive=True)
        assert small.completed
        assert np.diff(small.diagnostics.t).max() > 4.0 * 1e-3

    @pytest.mark.parametrize("amp, t_end, dt, spread", [
        (0.5, 2.0, 1e-3, 0.0), (-1.0, 3.0, 2e-3, 0.05)])
    def test_step_count_independent_of_grid(self, amp, t_end, dt, spread):
        # The flow-map ODE has a bounded right side on the diffeomorphism
        # group, so accuracy, not h, sets the step (no CFL limit): refining
        # the grid does not add steps, on smooth data (Gaussian) or up to
        # wave breaking (odd data, A < 0).
        field = gaussian_field if amp > 0 else antisymmetric_field
        counts = []
        for n in (1024, 2048, 4096):
            grid = Grid.from_interval(-20.0, 20.0, n)
            traj = integrate(field(grid, amp=amp), t_end, dt, record_every=10 ** 9,
                             adaptive=True)
            assert traj.completed == (amp > 0)
            counts.append(len(traj.diagnostics.t) - 1)
        assert max(counts) <= (1.0 + spread) * min(counts)

    def test_breakdown_time_resolved_to_floor(self):
        # A trial step that loses the chart is retried at half its size, so
        # the run stops only once such a step is at the floor
        # dt 2^-12: breakdown_time lies within that of the last valid state
        # (up to the rounding of t + step at t near 1.7).
        traj = breaking_run(-1.0)
        assert not traj.completed
        assert 0.0 < traj.breakdown_time - traj.final.t <= 2e-3 * 2.0 ** -12 + 1e-15
        assert traj.steps_rejected > 0

    def test_step_sizes_span_floor_to_beyond_dt(self):
        # dt = 2e-3 is only the first step: the run steps past it on the way
        # and down to (never below) the floor dt 2^-12 near breaking.
        traj = breaking_run(-1.0)
        assert traj.step_min >= 2e-3 * 2.0 ** -12
        assert traj.step_max > 2e-3

    def test_adaptive_steps_follow_scaling(self):
        # u -> 2 u(2 t, .) with dt halved leaves the eta-channel error estimate
        # unchanged, so the A = -2 run takes the A = -1 run's steps, halved.
        one, two = breaking_run(-1.0), breaking_run(-2.0)
        assert not one.completed and not two.completed
        assert len(one.diagnostics.t) == len(two.diagnostics.t)
        assert one.steps_rejected == two.steps_rejected
        assert np.abs(two.diagnostics.t - 0.5 * one.diagnostics.t).max() <= 1e-12
        assert abs(one.breakdown_time - 2.0 * two.breakdown_time) <= 1e-12

    def test_breaking_time_estimate_independent_of_guard(self):
        # The guard _EPS_BREAK decides where the run stops, not the estimate
        # of when the wave breaks; both stay below the bound 2/|A|.
        near, deep = breaking_run(-1.0), breaking_run(-1.0, eps_break=1e-5)
        assert deep.breakdown_time > near.breakdown_time + 0.02
        assert abs(deep.breaking_time_estimate - near.breaking_time_estimate) <= 1e-4
        for traj in (near, deep):
            assert traj.breakdown_time < traj.breaking_time_estimate < 2.0

    def test_breaking_time_estimate_scales_and_converges(self):
        est = {n: breaking_run(-1.0, n).breaking_time_estimate for n in (512, 1024, 2048)}
        assert abs(2.0 * breaking_run(-2.0).breaking_time_estimate - est[512]) <= 1e-12
        assert abs(est[2048] - est[1024]) < abs(est[1024] - est[512])

    def test_blow_up_rate_at_recorded_states(self):
        # Constantin-Escher: (T* - t) inf u_x -> -2, with u_x o eta = U_x / eta_x.
        grid = Grid.from_interval(-20.0, 20.0, 512)
        traj = integrate(antisymmetric_field(grid, amp=-1.0), 3.0, 2e-3, record_every=3,
                         adaptive=True)
        late = [s for s in traj.states if s.t >= 1.4]
        assert len(late) >= 10
        for s in late:
            inf_ux = float((s.U.du / s.eta.slopes()).min())
            assert abs((traj.breaking_time_estimate - s.t) * inf_ux + 2.0) <= 0.02

    def test_nonnegative_momentum_never_breaks(self):
        # m0 = u0 - u0'' >= 0 gives a global solution (Constantin-Escher,
        # McKean): no breakdown, and the chart margin stays away from 0.
        cfg = config_from_dict({
            "grid": {"x_min": -20.0, "x_max": 20.0, "n": 512},
            "time": {"t_end": 3.0, "dt": 2e-3, "adaptive": True},
            "initial": {"kind": "momentum_gaussian", "amplitude": 2.0}})
        traj = integrate(make_initial(cfg), **asdict(cfg.time), quad_order=4)
        assert traj.completed
        assert traj.final.t == pytest.approx(3.0, abs=1e-12)
        assert traj.diagnostics.min_eta_x.min() >= 0.05

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

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_velocity_raises_before_step_control(self, monkeypatch):
        # Only the last stage of the first step is poisoned: the new state's
        # flow-map channels stay finite, so no chart check catches it, and
        # step control would only halve the step and go on.
        grid = Grid.from_interval(-20.0, 20.0, 128)
        real = lagrangian._l_eta_arrays
        calls = []

        def poisoned(*args):
            val, der = real(*args)
            calls.append(1)
            if len(calls) == 4:
                der[grid.n // 2] = -np.inf
            return val, der

        monkeypatch.setattr(lagrangian, "_l_eta_arrays", poisoned)
        with pytest.raises(ValueError, match="non-finite"):
            integrate(gaussian_field(grid, amp=0.3), 1e-2, 1e-2, adaptive=True)


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
    def test_third_invariant(self):
        # H2 = int u^3 + u u_x^2 dx = int U^3 eta_x + U U_x^2 / eta_x dy is
        # conserved; its drift is quadrature error, falling at order 4 in h.
        drift = {}
        for n in (512, 1024):
            grid = Grid.from_interval(-20.0, 20.0, n)
            traj = integrate(gaussian_field(grid, amp=0.5), 1.0, 4e-3, record_every=25)
            assert traj.completed and len(traj.states) == 11
            h2 = []
            for s in traj.states:
                U, Ux, eta_x = s.U.u, s.U.du, 1.0 + s.eta.v.du
                h2.append(np.trapezoid(U ** 3 * eta_x + U * Ux ** 2 / eta_x, dx=grid.h))
            drift[n] = np.abs(np.array(h2) - h2[0]).max() / abs(h2[0])
        assert drift[1024] <= 1e-7
        assert drift[512] / drift[1024] >= 8.0

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
            devs.append(max(derivative_consistency(traj.final.eta.v),
                            derivative_consistency(traj.final.U)))
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.35)

    def test_reflection_equivariance(self):
        grid = Grid.from_interval(-20.0, 20.0, 512)
        u0 = antisymmetric_field(grid, amp=0.3, center=1.0)
        fwd = integrate(u0, 0.5, 2e-3, record_every=10 ** 9).final
        bwd = integrate(reflect(u0), 0.5, 2e-3, record_every=10 ** 9).final
        u_fwd = reconstruct_u(fwd)
        u_bwd = reconstruct_u(bwd)
        assert norm_11(reflect(u_fwd) - u_bwd) <= 10 * grid.h ** 2


def test_readme_library_quickstart_runs():
    # The README "Library quickstart" block, run as written, reaches t_end and
    # reconstructs a finite velocity.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Library quickstart", 1)[1]
    scope = {}
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], scope)
    assert scope["traj"].completed
    assert np.isfinite(scope["u_final"].u).all() and np.isfinite(scope["u_final"].du).all()
