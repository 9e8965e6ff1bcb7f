"""Run orchestration: refinement studies and cross-method comparisons.

A refinement study reruns a configuration over a ladder of grid resolutions,
then measures either the self-convergence of the flow-map solver (gaps
between consecutive levels, finer solution restricted to the coarser grid by
Hermite evaluation) or the gap between the flow-map solver and the Eulerian
reference at the final time.  Flow-map runs keep the configuration's time
step on every level: their ODE has no CFL limit, so the step need not shrink
with h.  The Eulerian reference has one, and its time step is scaled
proportionally to the spacing.  Observed orders come from consecutive gap
ratios plus a least-squares fit of log(gap) against log(h).  A study in
which a flow-map run broke down compares nothing: its final states belong to
different times.

Every solve of a study is an independent task: one per level for a
self-convergence study, and one per solver and level for a cross-method
study.  The tasks run in a process pool when one can be started, finest
level first; they run serially otherwise, and the study records which.  An
error raised by a task itself propagates once and is not retried.  The
pool's modules (concurrent.futures.process and multiprocessing) load when a
study first starts a pool, so a process that starts none never loads them.

A study keeps each level's flow-map trajectory as its solve returned it,
final state only: the level's spacing and breakdown are read from it.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import SimConfig, _validate, make_initial
from .errors import ValidationError
from .eulerian import ComparisonReport, EulerianState, compare, integrate_eulerian
from .lagrangian import (DEFAULT_QUAD_ORDER, Trajectory, _check_record_times, integrate,
                         reconstruct_u)

__all__ = [
    "RefinementStudy",
    "lagrangian_refinement",
    "oracle_refinement",
]


@dataclass
class RefinementStudy:
    """Gaps and observed orders across a resolution ladder.

    levels maps each ladder n, in order, to its flow-map trajectory (final
    state only), whose grid and breakdown fields describe the level.  For a
    self-convergence study gap[i] compares levels i and i+1 (there is one
    fewer gap than levels); for a cross-method study gap[i] is the sup gap
    between level i's two solvers at t_end.  orders[i] is the observed rate
    between consecutive gaps and fitted_order the least-squares slope over
    all of them, nan with fewer than two positive gaps.  A study in which
    any flow-map run broke down has no gaps (and a cross-method one no
    report): its final states belong to different times.  When every level
    of a self-convergence study broke, estimate_order is instead the fitted
    order of the differences between consecutive breaking-time estimates.
    execution is "pool" or "serial": how the solves ran.  base is the
    (trajectory, Eulerian states) pair at the configuration's own resolution
    of a cross-method study and report compares it at the requested times.
    """

    levels: dict[int, Trajectory]
    gaps: list[float]
    orders: list[float]
    fitted_order: float | None
    execution: str = "serial"
    estimate_order: float | None = None
    base: tuple[Trajectory, list[EulerianState]] | None = None
    report: ComparisonReport | None = None


def _at(cfg: SimConfig, n: int) -> SimConfig:
    """The same run at resolution n, with the same dt."""
    return replace(cfg, grid=replace(cfg.grid, n=n))


def _check_levels(cfg: SimConfig, levels: list[int], fewest: int) -> None:
    """ValidationError unless levels are at least fewest strictly increasing
    resolutions, each giving a valid configuration; a custom_csv file holds
    the samples of one grid, so its every level must be grid.n."""
    problems = []
    if len(levels) < fewest:
        problems.append(f"a refinement study needs at least {fewest} levels, "
                        f"got {len(levels)}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        problems.append(f"levels must be strictly increasing, got {levels}")
    for n in levels:
        _validate(_at(cfg, n), problems)
    if cfg.initial.kind == "custom_csv" and any(n != cfg.grid.n for n in levels):
        problems.append(f"a custom_csv file holds the samples of one grid, so every "
                        f"level must be the configured grid.n = {cfg.grid.n}, got {levels}")
    if problems:
        raise ValidationError(dict.fromkeys(problems))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(task, payloads: list, workers: int | None) -> tuple[list, str]:
    """task(p) for every payload, in a process pool when one can be started.

    Payloads come slowest first, so the pool starts on them; the results keep
    the payload order.  workers defaults to the usable CPUs and is capped at
    the task count, so a study never starts more processes than it has
    tasks; one worker means serial.  Only a pool that cannot start or breaks
    falls back to serial; a task's own error propagates once.
    """
    workers = min(len(payloads), _usable_cpus() if workers is None else workers)
    if workers > 1:
        # Loaded here, so that a command that starts no pool loads none of it.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:  # exit waits for all
                futures = [pool.submit(task, p) for p in payloads]
        except (OSError, BrokenProcessPool):
            pass  # no usable process pool in this environment
        else:
            if not any(isinstance(f.exception(), BrokenProcessPool) for f in futures):
                return [f.result() for f in futures], "pool"
    return [task(p) for p in payloads], "serial"


def _solve(payload) -> Trajectory | list[EulerianState]:
    """One solver's run of cfg at resolution n; only the final state unless keep_all.

    The flow map keeps cfg's dt, the Eulerian reference scales it with h.
    """
    solver, cfg, n, quad_order, keep_all = payload
    u0 = make_initial(_at(cfg, n))
    if solver == "flow_map":
        traj = integrate(u0, **asdict(cfg.time), quad_order=quad_order)
        return traj if keep_all else replace(traj, states=traj.states[-1:])
    states = integrate_eulerian(u0, cfg.time.t_end,
                                cfg.time.dt * ((cfg.grid.n - 1) / (n - 1)),
                                record_every=cfg.time.record_every)
    return states if keep_all else states[-1:]


def _orders(gaps: list[float], hs: list[float]) -> tuple[list[float], float]:
    """Observed rates between consecutive gaps and the fitted slope; nan where undefined."""
    orders = []
    for i in range(len(gaps) - 1):
        if gaps[i] > 0 and gaps[i + 1] > 0:
            orders.append(float(np.log(gaps[i] / gaps[i + 1])
                                / np.log(hs[i] / hs[i + 1])))
        else:
            orders.append(float("nan"))
    positive = [(h, g) for h, g in zip(hs, gaps) if g > 0]
    fitted = float("nan")
    if len(positive) >= 2:
        lh = np.log([p[0] for p in positive])
        lg = np.log([p[1] for p in positive])
        fitted = float(np.polyfit(lh, lg, 1)[0])
    return orders, fitted


def lagrangian_refinement(cfg: SimConfig, levels: list[int], *, quad_order: int = 4,
                          workers: int | None = None) -> RefinementStudy:
    """Self-convergence of the flow-map solver across grid resolutions."""
    _check_levels(cfg, levels, 2)
    payloads = [("flow_map", cfg, n, quad_order, False) for n in levels[::-1]]
    results, execution = _run_tasks(_solve, payloads, workers)
    trajs = results[::-1]
    study = RefinementStudy(dict(zip(levels, trajs)), gaps=[], orders=[],
                            fitted_order=None, execution=execution)
    hs = [traj.final.grid.h for traj in trajs[:-1]]
    if not all(traj.completed for traj in trajs):
        if not any(traj.completed for traj in trajs):
            estimates = [traj.breaking_time_estimate for traj in trajs]
            diffs = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
            _, study.estimate_order = _orders(diffs, hs)
        return study
    solutions = [reconstruct_u(traj.final) for traj in trajs]
    for coarse, fine in zip(solutions[:-1], solutions[1:]):
        fine_at_coarse, _ = fine.eval(coarse.grid.x)
        study.gaps.append(float(np.abs(fine_at_coarse - coarse.u).max()))
    study.orders, study.fitted_order = _orders(study.gaps, hs)
    return study


def oracle_refinement(cfg: SimConfig, levels: list[int], *,
                      times: list[float] | None = None) -> RefinementStudy:
    """Gap between the flow-map solver and the Eulerian reference per level.

    Each solver runs once at every level and at cfg's own resolution, each
    run a task of its own; the flow map takes the integrator's scan order 4.
    study.base holds the pair at cfg's resolution and study.report compares
    it at times (default: t_end).  Every level's gap is a comparison of its
    own pair at t_end, cfg's resolution included, so there it equals the
    report's sup_diff at t_end.  Levels other than cfg's keep only their
    final states, all their gap reads.  levels may be empty: then only
    cfg's own resolution runs, and there are no gaps.  If any flow-map run
    broke down, the study compares nothing: no report, no gaps, and the
    breakdowns are on study.levels and study.base.
    A time that cfg's run is not sure to record, or that repeats an earlier
    one, is a ValidationError before any solve
    (lagrangian._check_record_times).
    """
    _check_levels(cfg, levels, 0)
    t_end = cfg.time.t_end
    times = [t_end] if times is None else list(times)
    _check_record_times(times, **asdict(cfg.time))
    resolutions = sorted(set(levels) | {cfg.grid.n}, reverse=True)
    payloads = [(solver, cfg, n, DEFAULT_QUAD_ORDER, n == cfg.grid.n)
                for n in resolutions for solver in ("flow_map", "eulerian")]
    results, execution = _run_tasks(_solve, payloads, None)
    runs = {(p[0], p[2]): r for p, r in zip(payloads, results)}
    base = (runs["flow_map", cfg.grid.n], runs["eulerian", cfg.grid.n])
    study = RefinementStudy({n: runs["flow_map", n] for n in levels},
                            gaps=[], orders=[], fitted_order=None,
                            execution=execution, base=base)
    if not all(runs["flow_map", n].completed for n in resolutions):
        return study
    study.report = compare(*base, times)
    study.gaps = [compare(runs["flow_map", n], runs["eulerian", n], [t_end]).sup_diff[0]
                  for n in levels]
    study.orders, study.fitted_order = _orders(
        study.gaps, [traj.final.grid.h for traj in study.levels.values()])
    return study
