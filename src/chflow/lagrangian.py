"""Time integration of the Camassa-Holm equation in flow-map variables.

Instead of evolving the velocity field u(t, x) directly, the solver evolves
the particle-trajectory map eta(t) = id + v(t) together with the Lagrangian
velocity U = d(eta)/dt:

    d(eta)/dt = U,
    dU/dt     = -L_eta( U^2 + U_x^2 / (2 eta_x^2) ),

where L_eta is the flow-conjugated smoothing operator from
:mod:`chflow.operators` and subscripts denote derivatives in the Lagrangian
label.  The sign of the nonlocal term matches the Eulerian form
u_t + u u_x = -d_x (1 - d_xx)^(-1) (u^2 + u_x^2 / 2) under u = U o eta^(-1);
with it, the H1 energy of u is a constant of the motion, which the
diagnostics track every step.

The evolved state is the four-channel tuple (v, v', U, U'): derivative
channels are part of the state and advance through the operator identities
and the ODE itself, never through numerical differentiation.  The right side
gains one derivative, so the system closes in these variables and classical
RK4 applies.

Solutions exist only until the chart condition min eta_x > 0 fails (wave
breaking).  The integrator stops strictly before that boundary, at
min eta_x <= eps_break, and reports the breakdown time instead of producing
non-finite values.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .diffeo import DEFAULT_EPS_CHART, Diffeo, invert
from .errors import AdmissibilityError, ChartViolation, GridMismatch
from .fields import (
    DEFAULT_TAIL_TOL,
    Grid,
    ScalarField0,
    ScalarField1,
    check_membership,
    _trapz,
)
from .operators import _l_eta_arrays, l_eta_direct

__all__ = [
    "FlowState",
    "StepDiagnostics",
    "Trajectory",
    "quadratic_source",
    "rhs",
    "rk4_step",
    "integrate",
    "reconstruct_u",
    "conserved_quantities",
    "consistency_diagnostics",
]

DEFAULT_EPS_BREAK = 1e-3
DEFAULT_QUAD_ORDER = 4


@dataclass
class FlowState:
    """A point (eta, U) of the flow phase space at time t."""

    t: float
    eta: Diffeo
    U: ScalarField1

    def __post_init__(self):
        if self.eta.grid != self.U.grid:
            raise GridMismatch("flow map and velocity live on different grids")

    @property
    def grid(self) -> Grid:
        return self.U.grid


@dataclass
class StepDiagnostics:
    """Per-step scalar diagnostics along a trajectory."""

    t: np.ndarray
    energy: np.ndarray
    momentum: np.ndarray
    min_eta_x: np.ndarray
    sup_u: np.ndarray


@dataclass
class Trajectory:
    """Recorded states plus per-step diagnostics and step counts of one integration."""

    states: list[FlowState]
    diagnostics: StepDiagnostics
    breakdown_time: float | None = None
    breakdown_min_slope: float | None = None
    breaking_time_estimate: float | None = None
    steps_rejected: int = 0
    steps_at_floor: int = 0
    rhs_evaluations: int = 0

    def __post_init__(self):
        times = [s.t for s in self.states]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("recorded states must be strictly increasing in time")

    @property
    def completed(self) -> bool:
        return self.breakdown_time is None

    @property
    def final(self) -> FlowState:
        return self.states[-1]


def _chart(y: np.ndarray, grid: Grid, eps: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Node positions m = x + v of the state and their gaps, after the chart check."""
    # Both slope estimates must stay above the breaking guard: the evolved
    # derivative channel and the nodal increments (they agree to O(h^2) on
    # smooth states but separate as the map steepens toward breaking).
    # Written as not (m > eps) so that a NaN slope fails too, as an error
    # rather than as wave breaking.
    m = grid.x + y[0]
    d = m[1:] - m[:-1]
    slope = float(np.minimum(1.0 + y[1].min(), d.min() / grid.h))
    if not slope > eps:
        if np.isnan(slope):
            raise ValueError(f"flow map slope became non-finite at t = {t:.9g}")
        raise ChartViolation(
            f"flow map slope reached {slope:.6g} <= {eps:g} at t = {t:.9g}; "
            "wave breaking, chart lost", min_slope=slope, time=t)
    return m, d


def _source(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """U^2 + U_x^2 / (2 eta_x^2) of the flat state, s = eta_x."""
    q = y[3] / s
    q *= q
    q *= 0.5
    q += y[2] * y[2]
    return q


def _dydt(y: np.ndarray, t: float, grid: Grid, eps: float, order: int) -> np.ndarray:
    """Right side (U, U', -L_eta(source)) of the flat state; checks y's chart at t."""
    m, d = _chart(y, grid, eps, t)
    s = 1.0 + y[1]
    val, der = _l_eta_arrays(m, s, _source(y, s), grid.h, order, d)
    k = np.empty_like(y)
    k[:2] = y[2:]
    np.negative(val, out=k[2])
    np.negative(der, out=k[3])
    return k


def _rk4(y: np.ndarray, t: float, dt: float, f: Callable[[np.ndarray, float], np.ndarray],
         k1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step of the flat state y from k1 = f(y, t).

    Returns the new state, not yet checked by f, and the last stage k4.
    The flow-map (4, n) state and the Eulerian oracle's n samples both step
    through it.
    """
    stage, total, k = np.empty_like(y), k1.copy(), k1
    for c, w in ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0)):
        np.multiply(k, c, out=stage)
        stage += y
        k = f(stage, t + c)
        np.multiply(k, w, out=stage)
        total += stage
    total *= dt / 6.0
    total += y
    return total, k


def _pack(state: FlowState) -> np.ndarray:
    return np.stack((state.eta.v.u, state.eta.v.du, state.U.u, state.U.du))


def _unpack(y: np.ndarray, t: float, grid: Grid) -> FlowState:
    return FlowState(t, Diffeo(ScalarField1(grid, y[0], y[1])),
                     ScalarField1(grid, y[2], y[3]))


def quadratic_source(state: FlowState, eps_break: float = DEFAULT_EPS_BREAK) -> ScalarField0:
    """The nonnegative source U^2 + U_x^2 / (2 eta_x^2) feeding the smoothing operator."""
    y = _pack(state)
    _chart(y, state.grid, max(eps_break, DEFAULT_EPS_CHART), state.t)
    return ScalarField0(state.grid, _source(y, 1.0 + y[1]))


def rhs(state: FlowState, *, eps_break: float = DEFAULT_EPS_BREAK,
        quad_order: int = DEFAULT_QUAD_ORDER) -> tuple[ScalarField1, ScalarField1]:
    """Right side (d eta/dt, dU/dt) of the first-order system.

    d eta/dt = U in both channels; dU/dt = -L_eta(source) with the operator's
    analytic derivative channel, so no channel is ever differenced.
    """
    f = l_eta_direct(quadratic_source(state, eps_break), state.eta, order=quad_order)
    return state.U, ScalarField1(state.grid, -f.u, -f.du)


def rk4_step(state: FlowState, dt: float, *, eps_break: float = DEFAULT_EPS_BREAK,
             quad_order: int = DEFAULT_QUAD_ORDER) -> FlowState:
    """One classical four-stage Runge-Kutta step; revalidates the chart throughout."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"time step must be positive and finite, got {dt}")
    eps = max(eps_break, DEFAULT_EPS_CHART)
    grid, t = state.grid, state.t
    y = _pack(state)

    def f(z, tz):
        return _dydt(z, tz, grid, eps, quad_order)

    y, _ = _rk4(y, t, dt, f, f(y, t))
    _chart(y, grid, eps, t + dt)
    return _unpack(y, t + dt, grid)


def _diag_row(t: float, y: np.ndarray, h: float) -> tuple[float, float, float, float, float]:
    """Energy/momentum in Lagrangian variables by change of variables.

    int (u^2 + u_x^2) dx = int (U^2 eta_x + U_x^2 / eta_x) dy and
    int u dx = int U eta_x dy, so no inversion is needed per step.
    """
    s = 1.0 + y[1]
    energy = _trapz(y[2] ** 2 * s + y[3] ** 2 / s, h)
    momentum = _trapz(y[2] * s, h)
    return (t, float(energy), float(momentum),
            float(s.min()), float(np.abs(y[2]).max()))


def _check_run(u0: ScalarField1, t_end: float, dt: float, record_every: int,
               tail_tol: float) -> None:
    """The input check shared by both solvers' time loops."""
    report = check_membership(u0, tail_tol)
    if not report.ok:
        raise AdmissibilityError(
            "initial data is not admissible: failed " + ", ".join(report.failures()))
    if not (np.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if record_every < 1:
        raise ValueError("record_every must be a positive integer")


def _march(y: np.ndarray, t_end: float, dt: float,
           f: Callable[[np.ndarray, float], np.ndarray],
           error: Callable[[float, np.ndarray, np.ndarray], float] | None = None,
           tol: float = 0.0, tally: Counter | None = None):
    """Accepted steps (t, y_n) of FSAL RK4 from the flat state y at t = 0 to t_end.

    Each step is classical RK4 whose fifth evaluation k5 = f(y_{n+1}) is the
    next step's k1, so f has accepted every yielded state; an error raised by
    f, or a non-finite new state (ValueError), ends the march.  Without
    error every step is dt.  With error, dt is only the first step: the
    next is step * clamp(0.9 (tol / err)^(1/4), 0.2, 4) for err =
    error(step, k4, k5) (4 when err = 0), never below the floor dt 2^-12
    and capped by nothing but t_end.  A step with err > tol is retried at
    that size, and one whose stage or new state raises ChartViolation at a
    quarter of it; at the floor the first is accepted anyway and the second
    ends the march.  tally counts "rejected" and "at_floor" steps.
    """
    t, dt_cur, floor = 0.0, dt, dt * 2.0 ** -12
    k1 = f(y, t)
    while t < t_end - 1e-12 * max(1.0, t_end):
        step = min(dt_cur, t_end - t)
        try:
            new, k4 = _rk4(y, t, step, f, k1)
            if not np.isfinite(new).all():
                raise ValueError(f"state became non-finite at t = {t + step:.9g}")
            k5 = f(new, t + step)
        except ChartViolation:
            if error is None or step <= floor:
                raise
            tally["rejected"] += 1
            dt_cur = max(0.25 * step, floor)
            continue
        if error is not None:
            err = error(step, k4, k5)
            factor = 4.0 if err == 0.0 else min(4.0, max(0.2, 0.9 * (tol / err) ** 0.25))
            dt_cur = max(factor * step, floor)
            if err > tol:
                if step > floor:
                    tally["rejected"] += 1
                    continue
                tally["at_floor"] += 1
        y, k1, t = new, k5, t + step
        yield t, y


def _eta_error(step: float, k4: np.ndarray, k5: np.ndarray) -> float:
    # embedded third-order error, weights (1/6, 1/3, 1/3, 0, 1/6), on the
    # eta channels only: invariant under u -> l u(l t, .)
    return step / 6.0 * float(np.abs(k4[:2] - k5[:2]).max())


def integrate(u0: ScalarField1, t_end: float, dt: float, record_every: int = 100,
              *, eps_break: float = DEFAULT_EPS_BREAK,
              quad_order: int = DEFAULT_QUAD_ORDER,
              tail_tol: float = DEFAULT_TAIL_TOL,
              adaptive: bool = False, adapt_tol: float = 1e-10) -> Trajectory:
    """Integrate from (id, u0) to t_end, or to breakdown of the chart condition.

    States are recorded at t = 0, every record_every accepted steps, and at
    the final time; diagnostics are recorded every step.  On wave breaking
    the trajectory ends at the last valid state and carries the breakdown
    time; no non-finite value is ever stored.

    Steps are RK4 whose fifth evaluation k5 = f(y_{n+1}) is the next k1.
    A fixed run steps by dt.  An adaptive run starts at dt and then sizes
    each step from the error estimate step/6 max |k4 - k5| over the eta
    channels against adapt_tol, with no cap but t_end (the flow-map ODE has
    no CFL limit); a trial step that loses the chart is retried at a
    quarter of its size, and the run stops at breaking only once such a
    step is down to dt 2^-12, so breakdown_time lies within dt 2^-12 of the
    last valid state.  The stage loop evolves one (4, n) array
    (v, v', U, U'); typed states are built only for recorded times.
    """
    _check_run(u0, t_end, dt, record_every, tail_tol)
    grid = u0.grid
    eps = max(eps_break, DEFAULT_EPS_CHART)
    states = [FlowState(0.0, Diffeo.identity(grid), u0)]
    t = 0.0
    y = _pack(states[0])
    rows = [_diag_row(t, y, grid.h)]
    breakdown_time = breakdown_slope = estimate = None
    steps_done = evals = 0
    tally = Counter()

    def f(z, tz):
        nonlocal evals
        evals += 1
        return _dydt(z, tz, grid, eps, quad_order)

    try:
        for t, y in _march(y, t_end, dt, f, _eta_error if adaptive else None,
                           adapt_tol, tally):
            steps_done += 1
            rows.append(_diag_row(t, y, grid.h))
            if steps_done % record_every == 0:
                states.append(_unpack(y, t, grid))
    except ChartViolation as exc:
        breakdown_time = exc.time
        breakdown_slope = exc.min_slope
        # T* from the blow-up rate (T* - t) inf u_x -> -2, u_x o eta = U_x / eta_x
        inf_ux = float((y[3] / (1.0 + y[1])).min())
        estimate = t - 2.0 / inf_ux if inf_ux < 0.0 else float("nan")

    if steps_done % record_every:
        states.append(_unpack(y, t, grid))
    cols = np.array(rows).T
    diags = StepDiagnostics(t=cols[0], energy=cols[1], momentum=cols[2],
                            min_eta_x=cols[3], sup_u=cols[4])
    return Trajectory(states=states, diagnostics=diags,
                      breakdown_time=breakdown_time,
                      breakdown_min_slope=breakdown_slope,
                      breaking_time_estimate=estimate,
                      steps_rejected=tally["rejected"],
                      steps_at_floor=tally["at_floor"], rhs_evaluations=evals)


def reconstruct_u(state: FlowState, *, inv_tol: float = 1e-12) -> ScalarField1:
    """The Eulerian velocity u = U o eta^(-1) on the grid.

    The derivative channel uses u_x o eta = U_x / eta_x, i.e.
    u'(x_k) = U'(xi_k) * xi'(x_k) with xi the computed inverse; nothing is
    differenced numerically.
    """
    xi = invert(state.eta, tol=inv_tol)
    points = state.grid.x + xi.v.u
    val, der = state.U.eval(points)
    return ScalarField1(state.grid, val, der * (1.0 + xi.v.du))


def conserved_quantities(u: ScalarField1) -> tuple[float, float]:
    """(H1 energy int u^2 + u_x^2 dx, momentum int u dx) by trapezoid."""
    h = u.grid.h
    return float(_trapz(u.u ** 2 + u.du ** 2, h)), float(_trapz(u.u, h))


def consistency_diagnostics(state: FlowState) -> dict[str, float]:
    """Max deviation of each evolved derivative channel from centered differences.

    The channels are advanced independently of the values, so this measures
    the closure error of the four-channel formulation; O(h^2) on smooth data.
    """
    h = state.grid.h
    return {
        "v_channel": float(np.abs(
            np.gradient(state.eta.v.u, h, edge_order=2) - state.eta.v.du).max()),
        "U_channel": float(np.abs(
            np.gradient(state.U.u, h, edge_order=2) - state.U.du).max()),
    }
