"""Reference method-of-lines solver for the Eulerian form of the equation.

Discretizes

    u_t = -u u_x - L( u^2 + u_x^2 / 2 ),      L = d_x (1 - d_xx)^(-1),

directly on the grid: u_x by fourth-order centered differences (with the
zero continuation outside the domain supplying the boundary stencils, which
is consistent with the decay convention), the nonlocal term by the flow-map
solver's order-4 kernel scans (one scan plan of the fixed grid per run,
applied to flat arrays), and classical RK4 in time through the flow-map
solver's time loop (the FSAL RK4 march and its input check, at fixed dt).
The two solvers share only the kernel and the time loop, so comparing them
isolates the formulation (flow map versus fixed grid), not the kernel.

This is a cross-validation oracle, not a production solver: it has no shock
capturing and simply halts when a value stops being finite (an Eulerian
discretization blows up rather than hitting a chart boundary).  Since the
loop evaluates the right side of each new state before accepting it, a run
that blows up ends at the last state whose right side is finite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .fields import Grid, ScalarField1, _own_array, _trapz
from .lagrangian import (_RK4, DEFAULT_RECORD_EVERY, Trajectory, _check_run, _march,
                         _state_at, reconstruct_u)
# l_op is unused here; bound so that perfbench/tracer.py can patch it in this module.
from .operators import _scan_plan, _scan_sd, l_op  # noqa: F401

__all__ = [
    "EulerianState",
    "integrate_eulerian",
    "ComparisonReport",
    "compare",
    "fourth_order_dx",
]


@dataclass
class EulerianState:
    """Velocity samples on the grid at one time."""

    t: float
    grid: Grid
    u: np.ndarray

    def __post_init__(self):
        self.u = _own_array(self.u, self.grid.n, "u")


def fourth_order_dx(u: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered derivative with zero continuation off the ends."""
    up = np.zeros(u.shape[0] + 4)
    up[2:-2] = u
    return (-up[4:] + 8.0 * up[3:-1] - 8.0 * up[1:-3] + up[:-4]) / (12.0 * h)


def _dudt(u: np.ndarray, plan: tuple, h: float) -> np.ndarray:
    """u_t of the grid samples u, plan the grid's scan plan; ValueError when
    the source or l_op's value or derivative channel is not finite (the
    source is finite wherever the derivative channel S - source is).
    """
    ux = fourth_order_dx(u, h)
    phi = u * u + 0.5 * ux * ux
    S, D = _scan_sd(plan, phi, h)
    S -= phi  # the derivative channel; S is not used otherwise
    if not (np.isfinite(D).all() and np.isfinite(S).all()):
        raise ValueError("Eulerian right side is not finite")
    return -u * ux - D


def integrate_eulerian(u0: ScalarField1, t_end: float, dt: float,
                       record_every: int = DEFAULT_RECORD_EVERY) -> list[EulerianState]:
    """RK4 time stepping of the Eulerian form from u0 to t_end.

    The nonlocal term takes the order-4 scan.  Steps run through the flow-map
    solver's time loop, input check and record rule, with fixed dt.  If a value
    stops being finite, in a stage, in the new state or in its right side, the
    run halts and ends at the last state whose right side is finite.
    """
    _check_run(u0, t_end, dt, record_every)
    grid = u0.grid
    plan = _scan_plan(grid.x)
    records = []
    # A blow-up overflows on its way to the ValueError that is the expected
    # end of the run, so numpy's overflow warnings are not raised.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for _ in _march(u0.u, t_end, dt, record_every,
                            lambda z, tz: _dudt(z, plan, grid.h), _RK4, Counter(), records):
                pass
        except ValueError:
            pass  # a value stopped being finite: the Eulerian form blew up
    return [EulerianState(t, grid, u) for t, u in records]


@dataclass
class ComparisonReport:
    """Per-time sup and L2 gaps between the two formulations' velocities."""

    times: list[float]
    sup_diff: list[float]
    l2_diff: list[float]

    def rows(self):
        return list(zip(self.times, self.sup_diff, self.l2_diff))


def compare(traj: Trajectory, eulerian_states: list[EulerianState],
            times: list[float]) -> ComparisonReport:
    """Gaps between the reconstructed flow-map velocity and the Eulerian one.

    Every requested time must be recorded in both inputs, which ran to the
    same t_end; lagrangian._state_at finds each run's state at it.
    reconstruct_u turns the flow-map state into a velocity (invert at its
    fixed tolerance).  A time after a run's last state is a TimeMismatch
    naming that run and where it ended; for the Eulerian reference, given a
    time the flow-map run reached, this means its values stopped being
    finite.  The report carries |.| sup and trapezoidal L2 differences per
    time and is symmetric in the two solutions.
    """
    sup, l2 = [], []
    for t in times:
        sl = traj.states[_state_at(traj.states, t, "the flow-map run")]
        se = eulerian_states[_state_at(eulerian_states, t, "the Eulerian reference",
                                       ": its values stopped being finite")]
        if sl.grid != se.grid:
            raise GridMismatch("trajectories live on different grids")
        u_lag = reconstruct_u(sl)
        diff = u_lag.u - se.u
        sup.append(float(np.abs(diff).max()))
        l2.append(float(np.sqrt(_trapz(diff * diff, sl.grid.h))))
    return ComparisonReport(times=list(times), sup_diff=sup, l2_diff=l2)
