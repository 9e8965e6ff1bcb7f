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
gains one derivative, so the system closes in these variables and explicit
Runge-Kutta steps apply.

Solutions exist only until the chart condition min eta_x > 0 fails (wave
breaking).  The integrator stops strictly before that boundary, at
min eta_x <= eps_break, and reports the breakdown time instead of producing
non-finite values.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction as _F
from math import isfinite, lcm

import numpy as np

from .diffeo import DEFAULT_EPS_CHART, DEFAULT_INV_TOL, Diffeo, _chart_margin, comp1, invert
from .errors import ChartViolation, GridMismatch
from .fields import DEFAULT_TAIL_TOL, Grid, ScalarField1, _trapz, require_admissible
from .operators import _l_eta_arrays
# Unused here; bound so that perfbench/tracer.py can patch it in this module.
from .operators import l_eta_direct  # noqa: F401

__all__ = [
    "FlowState",
    "StepDiagnostics",
    "Trajectory",
    "rk4_step",
    "integrate",
    "reconstruct_u",
]

DEFAULT_EPS_BREAK = 1e-3
DEFAULT_QUAD_ORDER = 4
DEFAULT_RECORD_EVERY = 100


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
    """Recorded states plus per-step diagnostics, step counts and sizes of one integration."""

    states: list[FlowState]
    diagnostics: StepDiagnostics
    breakdown_time: float | None = None
    breakdown_min_slope: float | None = None
    breaking_time_estimate: float | None = None
    steps_rejected: int = 0
    steps_at_floor: int = 0
    rhs_evaluations: int = 0
    step_min: float = float("nan")
    step_max: float = float("nan")

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
    """Node positions m = x + v of the state and their gaps, after the chart check.

    A chart margin at or below eps is wave breaking, a non-finite margin or
    end position an error.  With every gap positive and both ends finite the
    positions are finite and strictly increasing, so the kernel scan takes
    them without checking again.
    """
    m = grid.x + y[0]
    d = m[1:] - m[:-1]
    slope = _chart_margin(y[1], d, grid.h)
    if not (isfinite(slope) and isfinite(m[-1] - m[0])):
        raise ValueError(f"flow map became non-finite at t = {t:.9g}")
    if not slope > eps:
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


def _integer_weights(w) -> tuple[list[tuple[int, float]], float]:
    """Nonzero weights w_j as integers N w_j over their least common denominator N."""
    den = lcm(*(_F(x).denominator for x in w))
    return [(j, float(x * den)) for j, x in enumerate(w) if x], float(den)


class _Tableau:
    """Explicit Runge-Kutta method whose last evaluation is first same as last.

    a holds the rows of stages 2..s and c their nodes; b weights stages 1..s
    into y_{n+1}, whose evaluation f(y_{n+1}) checks the new state and is the
    next step's first stage.  e, when given, weights stages 1..s and
    f(y_{n+1}) into the local error of an embedded solution of order e_order.
    Entries are exact fractions.  A step forms stage i as
    sum_j (step a_ij) k_j + y, and y_{n+1} as (sum_j N_j k_j) (step / N) + y
    with N the least common denominator of b and N_j = N b_j integers (the
    error likewise), so classical RK4 computes
    (k1 + 2 k2 + 2 k3 + k4) (dt / 6) + y.
    """

    def __init__(self, a, c, b, e=None, e_order=0):
        self.a, self.c, self.b, self.e = a, c, b, e
        self.rows = [[(j, float(x)) for j, x in enumerate(row) if x] for row in a]
        self.nodes = [float(x) for x in c]
        self.b_int = _integer_weights(b)
        self.e_int = None if e is None else _integer_weights(e)
        self.exponent = 1.0 / (e_order + 1)


_RK4 = _Tableau(a=((_F(1, 2),), (0, _F(1, 2)), (0, 0, 1)), c=(_F(1, 2), _F(1, 2), 1),
                b=(_F(1, 6), _F(1, 3), _F(1, 3), _F(1, 6)))
# Dormand & Prince, J. Comput. Appl. Math. 6 (1980): fifth-order solution with
# the error of the embedded fourth-order one, b - b_hat.
_DP54 = _Tableau(
    a=((_F(1, 5),),
       (_F(3, 40), _F(9, 40)),
       (_F(44, 45), _F(-56, 15), _F(32, 9)),
       (_F(19372, 6561), _F(-25360, 2187), _F(64448, 6561), _F(-212, 729)),
       (_F(9017, 3168), _F(-355, 33), _F(46732, 5247), _F(49, 176), _F(-5103, 18656))),
    c=(_F(1, 5), _F(3, 10), _F(4, 5), _F(8, 9), 1),
    b=(_F(35, 384), 0, _F(500, 1113), _F(125, 192), _F(-2187, 6784), _F(11, 84)),
    e=(_F(71, 57600), 0, _F(-71, 16695), _F(71, 1920), _F(-17253, 339200), _F(22, 525),
       _F(-1, 40)),
    e_order=4)


def _lincomb(ks: list[np.ndarray], weights: list[tuple[int, float]]) -> np.ndarray:
    """sum_j w_j k_j over the (j, w_j) pairs, added in their order."""
    (j, w), *rest = weights
    total = ks[j] * w
    for j, w in rest:
        total += ks[j] * w
    return total


def _rk_step(tab: _Tableau, y: np.ndarray, t: float, step: float,
             f: Callable[[np.ndarray, float], np.ndarray],
             k1: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """One step of tab for the flat state y from k1 = f(y, t).

    Returns the new state, not yet checked by f, and the stages k_1..k_s.
    The flow-map (4, n) state and the Eulerian oracle's n samples both step
    through it.
    """
    ks = [k1]
    for c, row in zip(tab.nodes, tab.rows):
        stage = _lincomb(ks, [(j, step * a) for j, a in row])
        stage += y
        ks.append(f(stage, t + c * step))
    weights, den = tab.b_int
    new = _lincomb(ks, weights)
    new *= step / den
    new += y
    return new, ks


def _pack(state: FlowState) -> np.ndarray:
    return np.stack((state.eta.v.u, state.eta.v.du, state.U.u, state.U.du))


def _unpack(y: np.ndarray, t: float, grid: Grid) -> FlowState:
    return FlowState(t, Diffeo(ScalarField1(grid, y[0], y[1])),
                     ScalarField1(grid, y[2], y[3]))


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

    y, _ = _rk_step(_RK4, y, t, dt, f, f(y, t))
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
    require_admissible(u0, tail_tol)
    if not (np.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if record_every < 1:
        raise ValueError("record_every must be a positive integer")


def _march(y: np.ndarray, t_end: float, dt: float,
           f: Callable[[np.ndarray, float], np.ndarray], tab: _Tableau = _RK4,
           tol: float = 0.0, tally: Counter | None = None):
    """Accepted steps (t, y_n, step) of tab from the flat state y at t = 0 to t_end.

    The last evaluation of each step, f(y_{n+1}), is the next step's first
    stage, so f has accepted every yielded state; an error raised by f, or a
    non-finite new state (ValueError), ends the march.  Without error weights
    in tab every step is dt.  With them, dt is only the first step: the error
    err = step max |sum_j e_j k_j| is taken over rows 0-1 of the state (the
    flow-map channels v, v'), and the next step is
    step * clamp(0.9 (tol / err)^(1/(p+1)), 0.2, 4) for an embedded solution
    of order p (4 when err = 0), never below the floor dt 2^-12 and capped
    by nothing but t_end.  A step with err > tol is retried at that size, and
    one whose stage or new state raises ChartViolation at half of it; at the
    floor the first is accepted anyway and the second ends the march.  tally
    counts "rejected" and "at_floor" steps.
    """
    t, dt_cur, floor = 0.0, dt, dt * 2.0 ** -12
    k1 = f(y, t)
    while t < t_end - 1e-12 * max(1.0, t_end):
        step = min(dt_cur, t_end - t)
        try:
            new, ks = _rk_step(tab, y, t, step, f, k1)
            if not np.isfinite(new).all():
                raise ValueError(f"state became non-finite at t = {t + step:.9g}")
            k_next = f(new, t + step)
        except ChartViolation:
            if tab.e_int is None or step <= floor:
                raise
            tally["rejected"] += 1
            dt_cur = max(0.5 * step, floor)
            continue
        if tab.e_int is not None:
            ks.append(k_next)
            weights, den = tab.e_int
            err = step / den * float(np.abs(_lincomb([k[:2] for k in ks], weights)).max())
            factor = 4.0 if err == 0.0 else min(4.0, max(0.2, 0.9 * (tol / err) ** tab.exponent))
            dt_cur = max(factor * step, floor)
            if err > tol:
                if step > floor:
                    tally["rejected"] += 1
                    continue
                tally["at_floor"] += 1
        y, k1, t = new, k_next, t + step
        yield t, y, step


def integrate(u0: ScalarField1, t_end: float, dt: float,
              record_every: int = DEFAULT_RECORD_EVERY,
              *, eps_break: float = DEFAULT_EPS_BREAK,
              quad_order: int = DEFAULT_QUAD_ORDER,
              tail_tol: float = DEFAULT_TAIL_TOL,
              adaptive: bool = False, adapt_tol: float = 1e-10) -> Trajectory:
    """Integrate from (id, u0) to t_end, or to breakdown of the chart condition.

    States are recorded at t = 0, every record_every accepted steps, and at
    the final time; diagnostics are recorded every step.  On wave breaking
    the trajectory ends at the last valid state and carries the breakdown
    time; no non-finite value is ever stored.

    Each step's last evaluation f(y_{n+1}) is the next step's first stage.
    A fixed run steps by dt with classical RK4 (4 evaluations per step).  An
    adaptive run takes the Dormand-Prince 5(4) pair (6 evaluations per step),
    starts at dt and then sizes each step from the embedded fourth-order
    error over the eta channels against adapt_tol, with no cap but t_end
    (the flow-map ODE has no CFL limit); a trial step that loses the chart
    is retried at half its size, and the run stops at breaking only once
    such a step is down to dt 2^-12, so breakdown_time lies within dt 2^-12
    of the last valid state.  The stage loop evolves one (4, n) array
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
    step_min, step_max = np.inf, 0.0
    tally = Counter()

    def f(z, tz):
        nonlocal evals
        evals += 1
        return _dydt(z, tz, grid, eps, quad_order)

    try:
        for t, y, step in _march(y, t_end, dt, f, _DP54 if adaptive else _RK4,
                                 adapt_tol, tally):
            steps_done += 1
            step_min, step_max = min(step_min, step), max(step_max, step)
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
                      steps_at_floor=tally["at_floor"], rhs_evaluations=evals,
                      step_min=step_min if steps_done else float("nan"),
                      step_max=step_max if steps_done else float("nan"))


def reconstruct_u(state: FlowState, *, inv_tol: float = DEFAULT_INV_TOL,
                  tally: Counter | None = None) -> ScalarField1:
    """The Eulerian velocity u = U o eta^(-1) on the grid.

    The derivative channel uses u_x o eta = U_x / eta_x, i.e.
    u'(x_k) = U'(xi_k) * xi'(x_k) with xi the computed inverse; nothing is
    differenced numerically.  tally, when given, gathers invert's counts.
    """
    return comp1(state.U, invert(state.eta, tol=inv_tol, tally=tally))
