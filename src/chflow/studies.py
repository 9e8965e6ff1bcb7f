"""Run orchestration: refinement studies and cross-method comparisons.

A refinement study reruns a configuration over a ladder of grid resolutions
with the time step scaled proportionally to the spacing, then measures either
the self-convergence of the flow-map solver (gaps between consecutive levels,
finer solution restricted to the coarser grid by Hermite evaluation) or the
gap between the flow-map solver and the Eulerian reference at the final time.
Observed orders come from consecutive gap ratios plus a least-squares fit of
log(gap) against log(h).

Levels are independent, so the flow-map runs execute in a process pool when
one can be started; they run serially otherwise.  An error raised by a level
itself propagates once and is not retried.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from .config import SimConfig, make_initial
from .eulerian import compare, integrate_eulerian
from .fields import ScalarField1
from .lagrangian import integrate, reconstruct_u

__all__ = [
    "LevelResult",
    "RefinementStudy",
    "scaled_config",
    "lagrangian_refinement",
    "oracle_refinement",
]


@dataclass
class LevelResult:
    """One rung of the ladder; breakdown_time is set when its run hit wave breaking."""

    n: int
    h: float
    dt: float
    breakdown_time: float | None = None


@dataclass
class RefinementStudy:
    """Gaps and observed orders across a resolution ladder.

    For a self-convergence study gap[i] compares levels i and i+1 (there is
    one fewer gap than levels); for a cross-method study gap[i] belongs to
    level i.  orders[i] is the observed rate between consecutive gaps and
    fitted_order the least-squares slope over all of them.  A self-convergence
    study in which any level broke down has no gaps: its final states belong
    to different times.
    """

    levels: list[LevelResult]
    gaps: list[float]
    orders: list[float]
    fitted_order: float | None


def scaled_config(cfg: SimConfig, n: int) -> SimConfig:
    """The same run at resolution n with dt scaled proportionally to h."""
    scale = (cfg.grid.n - 1) / (n - 1)
    return replace(cfg, grid=replace(cfg.grid, n=n),
                   time=replace(cfg.time, dt=cfg.time.dt * scale))


def _level(level_cfg: SimConfig, breakdown_time: float | None = None) -> LevelResult:
    return LevelResult(level_cfg.grid.n, level_cfg.grid.build().h, level_cfg.time.dt,
                       breakdown_time)


def _solve_level(payload) -> tuple[LevelResult, ScalarField1]:
    cfg, n, quad_order, base_dir = payload
    level_cfg = scaled_config(cfg, n)
    u0 = make_initial(level_cfg, base_dir=base_dir)
    traj = integrate(u0, **level_cfg.integrate_kwargs(quad_order))
    return (_level(level_cfg, traj.breakdown_time),
            reconstruct_u(traj.final, inv_tol=level_cfg.tolerances.inv_tol))


def _run_levels(cfg: SimConfig, levels: list[int], quad_order: int,
                workers: int | None,
                base_dir: str | None) -> list[tuple[LevelResult, ScalarField1]]:
    payloads = [(cfg, n, quad_order, base_dir) for n in levels]
    if workers is None or workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers or min(len(levels), 4)) as pool:
                return list(pool.map(_solve_level, payloads))
        except (OSError, BrokenProcessPool):
            pass  # no usable process pool in this environment; a level's own error propagates
    return [_solve_level(p) for p in payloads]


def _orders(gaps: list[float], hs: list[float]) -> tuple[list[float], float | None]:
    orders = []
    for i in range(len(gaps) - 1):
        if gaps[i] > 0 and gaps[i + 1] > 0:
            orders.append(float(np.log(gaps[i] / gaps[i + 1])
                                / np.log(hs[i] / hs[i + 1])))
        else:
            orders.append(float("nan"))
    positive = [(h, g) for h, g in zip(hs, gaps) if g > 0]
    fitted = None
    if len(positive) >= 2:
        lh = np.log([p[0] for p in positive])
        lg = np.log([p[1] for p in positive])
        fitted = float(np.polyfit(lh, lg, 1)[0])
    return orders, fitted


def lagrangian_refinement(cfg: SimConfig, levels: list[int], *, quad_order: int = 4,
                          workers: int | None = None,
                          base_dir: str | None = None) -> RefinementStudy:
    """Self-convergence of the flow-map solver across grid resolutions."""
    if len(levels) < 2:
        raise ValueError("a refinement study needs at least two levels")
    if sorted(levels) != list(levels):
        raise ValueError("levels must be increasing")
    meta, solutions = zip(*_run_levels(cfg, levels, quad_order, workers, base_dir))
    meta = list(meta)
    if any(m.breakdown_time is not None for m in meta):
        return RefinementStudy(levels=meta, gaps=[], orders=[], fitted_order=None)
    gaps = []
    for coarse, fine in zip(solutions[:-1], solutions[1:]):
        fine_at_coarse, _ = fine.eval(coarse.grid.x)
        gaps.append(float(np.abs(fine_at_coarse - coarse.u).max()))
    orders, fitted = _orders(gaps, [m.h for m in meta[:-1]])
    return RefinementStudy(levels=meta, gaps=gaps, orders=orders, fitted_order=fitted)


def oracle_refinement(cfg: SimConfig, levels: list[int], *, quad_order: int = 4,
                      base_dir: str | None = None) -> RefinementStudy:
    """Gap between the flow-map solver and the Eulerian reference per level."""
    if len(levels) < 1:
        raise ValueError("need at least one level")
    if sorted(levels) != list(levels):
        raise ValueError("levels must be increasing")
    gaps = []
    meta = []
    for n in levels:
        level_cfg = scaled_config(cfg, n)
        u0 = make_initial(level_cfg, base_dir=base_dir)
        traj = integrate(u0, **level_cfg.integrate_kwargs(quad_order))
        states = integrate_eulerian(u0, level_cfg.time.t_end, level_cfg.time.dt,
                                    record_every=level_cfg.time.record_every)
        report = compare(traj, states, [level_cfg.time.t_end],
                         inv_tol=level_cfg.tolerances.inv_tol)
        gaps.append(report.sup_diff[0])
        meta.append(_level(level_cfg))
    orders, fitted = _orders(gaps, [m.h for m in meta])
    return RefinementStudy(levels=meta, gaps=gaps, orders=orders, fitted_order=fitted)
