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
min eta_x <= _EPS_BREAK, and reports the breakdown time instead of producing
non-finite values.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction as _F
from math import isfinite

import numpy as np

from .diffeo import Diffeo, _chart_margin, comp1, invert
from .errors import ChartViolation, GridMismatch, TimeMismatch, ValidationError
from .fields import DEFAULT_TAIL_TOL, Grid, ScalarField1, _trapz, require_admissible
from .operators import _l_eta_arrays, _scan_plan
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

_EPS_BREAK = 1e-3  # chart margin of wave breaking, above diffeo.DEFAULT_EPS_CHART
_ADAPT_TOL = 1e-10  # bound on an adaptive step's error estimate
DEFAULT_QUAD_ORDER = 4
DEFAULT_RECORD_EVERY = 100
# Largest record_every: float(record_every) is exact up to 2**53, and any value
# at or above a run's step count records only 0 and t_end
MAX_RECORD_EVERY = 2 ** 53


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
    val, der = _l_eta_arrays(_scan_plan(m, d), s, _source(y, s), grid.h, order)
    k = np.empty_like(y)
    k[:2] = y[2:]
    np.negative(val, out=k[2])
    np.negative(der, out=k[3])
    return k


class _Tableau:
    """Explicit Runge-Kutta method whose last evaluation is first same as last.

    a holds the rows of stages 2..s and c their nodes; b weights stages 1..s
    into y_{n+1}, whose evaluation f(y_{n+1}) checks the new state and is the
    next step's first stage.  e, when given, weights stages 1..s and
    f(y_{n+1}) into the local error of an embedded solution of order e_order.
    Entries are exact fractions.  rows, new and err hold the nonzero weights
    of a, b and e as (j, float) pairs: the rows every combination a step
    forms, by the one rule of _lincomb.
    """

    def __init__(self, a, c, b, e=None, e_order=0):
        def nonzero(w):
            return [(j, float(x)) for j, x in enumerate(w) if x]

        self.a, self.c, self.b, self.e = a, c, b, e
        self.rows = [nonzero(row) for row in a]
        self.nodes = [float(x) for x in c]
        self.new = nonzero(b)
        self.err = None if e is None else nonzero(e)
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


def _lincomb(ks: list[np.ndarray], weights: list[tuple[int, float]],
             step: float) -> np.ndarray:
    """sum_j (step w_j) k_j over the (j, w_j) pairs of a row, added in their order."""
    (j, w), *rest = weights
    total = ks[j] * (step * w)
    term = np.empty_like(total)
    for j, w in rest:
        total += np.multiply(ks[j], step * w, out=term)
    return total


def _rk_step(tab: _Tableau, y: np.ndarray, t: float, step: float,
             f: Callable[[np.ndarray, float], np.ndarray],
             k1: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """One step of tab for the flat state y from k1 = f(y, t).

    Stage i is y + _lincomb of row i, y_{n+1} is y + _lincomb of tab.new.
    Returns the new state, not yet checked by f, and the stages k_1..k_s.
    Fixed and adaptive runs, rk4_step and the Eulerian oracle's n samples
    all step through it.
    """
    ks = [k1]
    for c, row in zip(tab.nodes, tab.rows):
        stage = _lincomb(ks, row, step)
        stage += y
        ks.append(f(stage, t + c * step))
    new = _lincomb(ks, tab.new, step)
    new += y
    return new, ks


def _pack(state: FlowState) -> np.ndarray:
    return np.stack((state.eta.v.u, state.eta.v.du, state.U.u, state.U.du))


def _unpack(y: np.ndarray, t: float, grid: Grid) -> FlowState:
    return FlowState(t, Diffeo(ScalarField1(grid, y[0], y[1])),
                     ScalarField1(grid, y[2], y[3]))


def rk4_step(state: FlowState, dt: float) -> FlowState:
    """One classical four-stage Runge-Kutta step at the integrator's scan order 4;
    a chart margin at or below _EPS_BREAK at any stage raises ChartViolation."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"time step must be positive and finite, got {dt}")
    grid, t = state.grid, state.t
    y = _pack(state)

    def f(z, tz):
        return _dydt(z, tz, grid, _EPS_BREAK, DEFAULT_QUAD_ORDER)

    y, _ = _rk_step(_RK4, y, t, dt, f, f(y, t))
    _chart(y, grid, _EPS_BREAK, t + dt)
    return _unpack(y, t + dt, grid)


def _diag_row(t: float, y: np.ndarray, h: float) -> tuple[float, float, float, float, float]:
    """The StepDiagnostics fields at t, in order; energy and momentum by change of variables.

    int (u^2 + u_x^2) dx = int (U^2 eta_x + U_x^2 / eta_x) dy and
    int u dx = int U eta_x dy, so no inversion is needed per step.
    """
    s = 1.0 + y[1]
    energy = _trapz(y[2] ** 2 * s + y[3] ** 2 / s, h)
    momentum = _trapz(y[2] * s, h)
    return (t, float(energy), float(momentum),
            float(s.min()), float(np.abs(y[2]).max()))


def _time_problems(t_end: float, dt: float, record_every: int) -> list[str]:
    """One message per broken time-loop rule, for the solvers' and the configuration's checks."""
    problems = []
    if not (isfinite(t_end) and t_end > 0):
        problems.append(f"t_end must be > 0, got {t_end}")
    if not (isfinite(dt) and dt > 0):
        problems.append(f"dt must be > 0, got {dt}")
    if not 1 <= record_every <= MAX_RECORD_EVERY:
        problems.append(f"record_every must lie in [1, 2**53], got {record_every}")
    return problems


def _check_run(u0: ScalarField1, t_end: float, dt: float, record_every: int,
               tail_tol: float) -> None:
    """The input check shared by both solvers' time loops: AdmissibilityError
    for inadmissible u0, else one ValueError naming every broken time rule."""
    require_admissible(u0, tail_tol)
    problems = _time_problems(t_end, dt, record_every)
    if problems:
        raise ValueError("; ".join(problems))


def _march(y: np.ndarray, t_end: float, dt: float, record_every: int,
           f: Callable[[np.ndarray, float], np.ndarray], tab: _Tableau = _RK4,
           tol: float = 0.0, tally: Counter | None = None):
    """Accepted steps (t, y_n, step, recorded) of tab from the flat state y at t = 0 to t_end.

    The record rule of both solvers: a run records its initial state, every
    record_every-th step (recorded true) and, however the march ends, its
    last state if that step is not recorded.

    The last evaluation of each step, f(y_{n+1}), is the next step's first
    stage, so f has accepted every yielded state; an error raised by f, or a
    non-finite new state (ValueError), ends the march.  Without error weights
    in tab every step is dt.  With them, dt is only the first step: the error
    err = max |sum_j (step e_j) k_j|, the _lincomb of tab.err, is taken over
    rows 0-1 of the state (the flow-map channels v, v'), and the next step is
    step * clamp(0.9 (tol / err)^(1/(p+1)), 0.2, 4) for an embedded solution
    of order p (4 when err = 0), never below the floor dt 2^-12 and capped
    by nothing but t_end.  A step with err > tol is retried at that size, and
    one whose stage or new state raises ChartViolation at half of it; at the
    floor the first is accepted anyway and the second ends the march.  tally
    counts "rejected" and "at_floor" steps.

    t sums the steps by Kahan's rule, lost holding what rounding added to it.
    The march ends once t is within near of t_end, and a step that comes that
    close is taken whole, so a run whose t_end is a multiple of dt ends there.
    """
    t, dt_cur, floor = 0.0, dt, dt * 2.0 ** -12
    steps, lost, near = 0, 0.0, 1e-12 * max(1.0, t_end)
    k1 = f(y, t)
    while t < t_end - near:
        step = dt_cur if dt_cur <= t_end - t + near else t_end - t
        try:
            new, ks = _rk_step(tab, y, t, step, f, k1)
            if not np.isfinite(new).all():
                raise ValueError(f"state became non-finite at t = {t + step:.9g}")
            k_next = f(new, t + step)
        except ChartViolation:
            if tab.err is None or step <= floor:
                raise
            tally["rejected"] += 1
            dt_cur = max(0.5 * step, floor)
            continue
        if tab.err is not None:
            ks.append(k_next)
            err = float(np.abs(_lincomb([k[:2] for k in ks], tab.err, step)).max())
            factor = 4.0 if err == 0.0 else min(4.0, max(0.2, 0.9 * (tol / err) ** tab.exponent))
            dt_cur = max(factor * step, floor)
            if err > tol:
                if step > floor:
                    tally["rejected"] += 1
                    continue
                tally["at_floor"] += 1
        y, k1 = new, k_next
        inc = step - lost
        t, lost = t + inc, (t + inc - t) - inc
        steps += 1
        yield t, y, step, steps % record_every == 0


def _is_time(recorded: float, t: float) -> bool:
    """Whether t names the recorded time: within a relative 1e-9 of it."""
    return isfinite(t) and abs(recorded - t) <= 1e-9 * max(1.0, abs(t))


def _match_time(times: list[float], t: float) -> int:
    """Index of the recorded time nearest to t; TimeMismatch unless _is_time holds."""
    k = int(np.argmin(np.abs(np.subtract(times, t))))
    if not _is_time(times[k], t):
        raise TimeMismatch(f"time {t:.9g} is not recorded (nearest is {times[k]:.9g})")
    return k


def _check_record_times(times: list[float], t_end: float, dt: float, record_every: int,
                        adaptive: bool) -> None:
    """ValidationError, before any solve, if times is empty, naming each of times a
    run may not record and each that names the same time as an earlier one."""
    period = dt * record_every
    unsure = []
    for t in times:
        sure = [0.0, t_end]
        if not adaptive:  # the multiple nearest to t in [0, t_end]; nan clips to 0
            sure.append(min(round(min(t_end, max(0.0, t)) / period) * period, t_end))
        if not any(_is_time(s, t) for s in sure):
            unsure.append(f"{t:.9g}")
    problems = [] if times else ["at least one time must be compared, and none was given"]
    if unsure:
        rule = (f"an adaptive run records only t = 0 and t_end = {t_end:.9g}"
                if adaptive else
                f"a fixed run records only the multiples of dt * record_every = {period:.9g}"
                f" up to t_end = {t_end:.9g}, and t_end")
        problems.append(f"{rule}, not {', '.join(unsure)}")
    repeated = [f"{t:.9g}" for i, t in enumerate(times) if any(_is_time(s, t) for s in times[:i])]
    if repeated:
        problems.append(f"each time is compared once, so {', '.join(repeated)} "
                        "may not repeat an earlier entry")
    if problems:
        raise ValidationError(problems)


def integrate(u0: ScalarField1, t_end: float, dt: float,
              record_every: int = DEFAULT_RECORD_EVERY,
              *, quad_order: int = DEFAULT_QUAD_ORDER,
              tail_tol: float = DEFAULT_TAIL_TOL,
              adaptive: bool = False) -> Trajectory:
    """Integrate from (id, u0) to t_end, or to breakdown of the chart condition.

    States are recorded by _march's rule, diagnostics every step.  On wave
    breaking the trajectory ends at the last valid state and carries the
    breakdown time; no non-finite value is ever stored.

    Each step's last evaluation f(y_{n+1}) is the next step's first stage.
    A fixed run steps by dt with classical RK4 (4 evaluations per step).  An
    adaptive run takes the Dormand-Prince 5(4) pair (6 evaluations per step),
    starts at dt and then sizes each step from the embedded fourth-order
    error over the eta channels against _ADAPT_TOL, with no cap but t_end
    (the flow-map ODE has no CFL limit); a trial step that loses the chart
    is retried at half its size, and the run stops at breaking only once
    such a step is down to dt 2^-12, so breakdown_time lies within dt 2^-12
    of the last valid state.  The stage loop evolves one (4, n) array
    (v, v', U, U'); typed states are built only for recorded times.
    """
    _check_run(u0, t_end, dt, record_every, tail_tol)
    grid = u0.grid
    states = [FlowState(0.0, Diffeo.identity(grid), u0)]
    t = 0.0
    y = _pack(states[0])
    rows = [_diag_row(t, y, grid.h)]
    breakdown_time = breakdown_slope = estimate = None
    evals, recorded = 0, True
    step_min, step_max = np.inf, 0.0
    tally = Counter()

    def f(z, tz):
        nonlocal evals
        evals += 1
        return _dydt(z, tz, grid, _EPS_BREAK, quad_order)

    try:
        for t, y, step, recorded in _march(y, t_end, dt, record_every, f,
                                           _DP54 if adaptive else _RK4, _ADAPT_TOL, tally):
            step_min, step_max = min(step_min, step), max(step_max, step)
            rows.append(_diag_row(t, y, grid.h))
            if recorded:
                states.append(_unpack(y, t, grid))
    except ChartViolation as exc:
        breakdown_time = exc.time
        breakdown_slope = exc.min_slope
        # T* from the blow-up rate (T* - t) inf u_x -> -2, u_x o eta = U_x / eta_x
        inf_ux = float((y[3] / (1.0 + y[1])).min())
        estimate = t - 2.0 / inf_ux if inf_ux < 0.0 else float("nan")

    if not recorded:
        states.append(_unpack(y, t, grid))
    return Trajectory(states=states, diagnostics=StepDiagnostics(*np.array(rows).T),
                      breakdown_time=breakdown_time,
                      breakdown_min_slope=breakdown_slope,
                      breaking_time_estimate=estimate,
                      steps_rejected=tally["rejected"],
                      steps_at_floor=tally["at_floor"], rhs_evaluations=evals,
                      step_min=step_min if len(rows) > 1 else float("nan"),
                      step_max=step_max if len(rows) > 1 else float("nan"))


def reconstruct_u(state: FlowState, *, tally: Counter | None = None) -> ScalarField1:
    """The Eulerian velocity u = U o eta^(-1) on the grid.

    The derivative channel uses u_x o eta = U_x / eta_x, i.e.
    u'(x_k) = U'(xi_k) * xi'(x_k) with xi = invert(eta) at its fixed tolerance;
    nothing is differenced numerically.  tally, when given, gathers invert's counts.
    """
    return comp1(state.U, invert(state.eta, tally=tally))
