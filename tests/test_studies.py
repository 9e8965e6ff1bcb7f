import concurrent.futures
import json
import re

import numpy as np
import pytest

from chflow import studies
from chflow.config import load_config
from chflow.errors import AdmissibilityError, ValidationError
from chflow.eulerian import compare


def test_level_error_in_pool_propagates_without_serial_rerun(tmp_path, monkeypatch):
    # width 15 on [-20, 20] fails boundary decay, so every level's solve raises.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 64},
        "time": {"t_end": 0.1, "dt": 1e-2},
        "initial": {"kind": "gaussian", "amplitude": 0.5, "width": 15.0}}))
    cfg = load_config(path)
    parent_calls = []
    real = studies.make_initial

    def recording(*args, **kwargs):
        parent_calls.append(1)  # pool workers append to their own copy
        return real(*args, **kwargs)

    monkeypatch.setattr(studies, "make_initial", recording)
    with pytest.raises(AdmissibilityError):
        studies.lagrangian_refinement(cfg, [64, 128], workers=2)
    assert parent_calls == []


def _no_pool(*args, **kwargs):
    raise OSError("no process pool")


def _same_levels(a, b) -> bool:
    """Same ladder, and per level the same grid, final U bit for bit and breakdown."""
    return list(a) == list(b) and all(
        a[n].final.grid == b[n].final.grid
        and (a[n].final.U.u == b[n].final.U.u).all()
        and (a[n].final.U.du == b[n].final.U.du).all()
        and a[n].breakdown_time == b[n].breakdown_time
        and a[n].breaking_time_estimate == b[n].breaking_time_estimate
        for n in a)


def test_pool_matches_serial_in_ladder_order(tmp_path, monkeypatch):
    # The pool takes the finest level first; the study keeps ladder order and
    # the same numbers as a serial run.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 64},
        "time": {"t_end": 0.1, "dt": 1e-2},
        "initial": {"kind": "gaussian", "amplitude": 0.5}}))
    cfg = load_config(path)
    pool = studies.lagrangian_refinement(cfg, [64, 128, 256], workers=2)
    serial = studies.lagrangian_refinement(cfg, [64, 128, 256], workers=1)
    assert (pool.execution, serial.execution) == ("pool", "serial")
    assert list(pool.levels) == [64, 128, 256]
    assert _same_levels(pool.levels, serial.levels)
    assert pool.gaps == serial.gaps and pool.fitted_order == serial.fitted_order
    # The cross-method study runs both solvers of every level as tasks; it
    # takes its worker count from the usable CPUs and runs serially when no
    # pool starts.
    monkeypatch.setattr(studies, "_usable_cpus", lambda: 2)
    pool = studies.oracle_refinement(cfg, [64, 128, 256])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    serial = studies.oracle_refinement(cfg, [64, 128, 256])
    assert (pool.execution, serial.execution) == ("pool", "serial")
    assert list(pool.levels) == [64, 128, 256]
    assert _same_levels(pool.levels, serial.levels)
    assert pool.gaps == serial.gaps and pool.fitted_order == serial.fitted_order
    assert (pool.base[0].final.U.u == serial.base[0].final.U.u).all()
    assert (pool.base[1][-1].u == serial.base[1][-1].u).all()


@pytest.mark.parametrize("solver", ["flow_map", "eulerian"])
def test_oracle_level_keeps_only_final_state(tmp_path, solver):
    # Levels other than the config's own return only what their gap reads.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 64},
        "time": {"t_end": 0.1, "dt": 1e-2, "record_every": 2},
        "initial": {"kind": "gaussian", "amplitude": 0.5}}))
    cfg = load_config(path)
    full = studies._solve((solver, cfg, 128, 4, True))
    final = studies._solve((solver, cfg, 128, 4, False))
    if solver == "flow_map":
        full = [s.U for s in full.states]
        final = [s.U for s in final.states]
    assert len(full) > 1 and len(final) == 1
    assert (final[0].u == full[-1].u).all()


def test_oracle_task_error_propagates_without_serial_rerun(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 64},
        "time": {"t_end": 0.1, "dt": 1e-2},
        "initial": {"kind": "gaussian", "amplitude": 0.5, "width": 15.0}}))
    cfg = load_config(path)
    parent_calls = []
    real = studies.make_initial

    def recording(*args, **kwargs):
        parent_calls.append(1)  # pool workers append to their own copy
        return real(*args, **kwargs)

    monkeypatch.setattr(studies, "make_initial", recording)
    monkeypatch.setattr(studies, "_usable_cpus", lambda: 2)
    with pytest.raises(AdmissibilityError):
        studies.oracle_refinement(cfg, [64, 128])
    assert parent_calls == []


_parent_runs = []


def _failing_task(p):
    _parent_runs.append(p)  # pool workers append to their own copy
    if p > 0:
        raise FileNotFoundError(f"task {p}")
    return p


def test_task_oserror_is_not_taken_for_a_pool_failure():
    # A task's own OSError propagates once, the first in payload order, and
    # does not send the tasks to a serial rerun.
    _parent_runs.clear()
    with pytest.raises(FileNotFoundError, match="task 2"):
        studies._run_tasks(_failing_task, [0, 2, 1], workers=2)
    assert _parent_runs == []


def test_flow_map_solves_keep_config_dt(tmp_path, monkeypatch):
    # The flow-map ODE has no CFL limit, so every flow-map solve of both
    # studies takes the configured dt; only the Eulerian reference, which has
    # one, scales dt with h.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 64},
        "time": {"t_end": 0.1, "dt": 1e-2},
        "initial": {"kind": "gaussian", "amplitude": 0.5}}))
    cfg = load_config(path)
    seen = {"flow_map": [], "eulerian": []}
    real_flow, real_eulerian = studies.integrate, studies.integrate_eulerian

    def flow(u0, **kwargs):
        seen["flow_map"].append((u0.grid.n, kwargs["dt"]))
        return real_flow(u0, **kwargs)

    def eulerian(u0, t_end, dt, **kwargs):
        seen["eulerian"].append((u0.grid.n, dt))
        return real_eulerian(u0, t_end, dt, **kwargs)

    monkeypatch.setattr(studies, "integrate", flow)
    monkeypatch.setattr(studies, "integrate_eulerian", eulerian)
    monkeypatch.setattr(studies, "_usable_cpus", lambda: 1)  # serial: patches apply
    studies.lagrangian_refinement(cfg, [64, 128, 256], workers=1)
    studies.oracle_refinement(cfg, [128, 256])
    assert sorted(seen["flow_map"]) == [(64, 1e-2), (64, 1e-2), (128, 1e-2), (128, 1e-2),
                                        (256, 1e-2), (256, 1e-2)]
    assert sorted(seen["eulerian"]) == [(64, 1e-2), (128, 1e-2 * 63 / 127),
                                        (256, 1e-2 * 63 / 255)]


def _oracle_own_level(tmp_path, monkeypatch, times):
    """The cross-method study of the own level n = 64 at times, serially, and
    the times of each comparison it made."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 64},
        "time": {"t_end": 0.1, "dt": 1e-2},
        "initial": {"kind": "gaussian", "amplitude": 0.5}}))
    calls = []
    real = studies.compare

    def counting(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(studies, "compare", counting)
    monkeypatch.setattr(studies, "_usable_cpus", lambda: 1)
    return studies.oracle_refinement(load_config(path), [64], times=times), calls


def test_oracle_own_level_gap_comes_from_the_main_report(tmp_path, monkeypatch):
    # The config's own level takes its gap from a comparison of its own at
    # t_end; a report time that names t_end within the record-time
    # tolerance, not bit for bit, reads the same states, so the two agree.
    study, calls = _oracle_own_level(tmp_path, monkeypatch, [0.1 + 1e-11])
    assert calls == [[0.1 + 1e-11], [0.1]]
    assert study.gaps == [compare(*study.base, [0.1]).sup_diff[0]]
    assert study.gaps == study.report.sup_diff


def test_oracle_own_level_gap_without_t_end_in_the_report(tmp_path, monkeypatch):
    # With no requested time naming t_end, the config's own level still gets
    # its gap at t_end, from a comparison after the report's.
    study, calls = _oracle_own_level(tmp_path, monkeypatch, [0.0])
    assert calls == [[0.0], [0.1]]
    assert study.gaps == [compare(*study.base, [0.1]).sup_diff[0]]


class _Started(Exception):
    pass


def _started(*args, **kwargs):
    raise _Started


@pytest.mark.parametrize("adaptive", [False, True])
def test_adaptive_oracle_takes_only_times_it_is_sure_to_record(tmp_path, monkeypatch,
                                                                adaptive):
    # compare() matches times within a relative 1e-9; an adaptive run is sure
    # to record only 0 and t_end, and a fixed one with dt * record_every = 1
    # past t_end = 0.1 records nothing else either, so any other time fails
    # before the solves.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 64},
        "time": {"t_end": 0.1, "dt": 1e-2, "adaptive": adaptive},
        "initial": {"kind": "gaussian", "amplitude": 0.5}}))
    cfg = load_config(path)
    monkeypatch.setattr(studies, "_run_tasks", _started)
    with pytest.raises(_Started):
        studies.oracle_refinement(cfg, [], times=[0.0, 0.1 + 1e-11])
    unrecorded = [0.0, 0.1 - 1e-8]
    with pytest.raises(ValidationError, match="not 0.09999999"):
        studies.oracle_refinement(cfg, [], times=unrecorded)


def test_fixed_oracle_takes_the_multiples_of_its_record_period(tmp_path, monkeypatch):
    # dt * record_every = 0.05 up to t_end = 0.12: 0, 0.05, 0.1 and 0.12 are recorded.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 64},
        "time": {"t_end": 0.12, "dt": 1e-2, "record_every": 5},
        "initial": {"kind": "gaussian", "amplitude": 0.5}}))
    cfg = load_config(path)
    monkeypatch.setattr(studies, "_run_tasks", _started)
    with pytest.raises(_Started):
        studies.oracle_refinement(cfg, [], times=[0.0, 0.05, 0.1 + 1e-11, 0.12])
    for t in (0.07, 0.15, -0.05):
        with pytest.raises(ValidationError, match=f"not {t:g}$"):
            studies.oracle_refinement(cfg, [], times=[t])


@pytest.mark.parametrize("t_end, dt, record_every, expected", [
    (0.12, 1e-2, 5, [0.0, 0.05, 0.1, 0.12]),    # record_every does not divide 12 steps
    (0.105, 1e-2, 5, [0.0, 0.05, 0.1, 0.105]),  # shortened last step
    (0.1, 3e-2, 2, [0.0, 0.06, 0.1]),           # the shortened last step is a record step
    (0.1, 3e-2, 3, [0.0, 0.09, 0.1]),
    (0.1, 1e-2, 20, [0.0, 0.1]),                # fewer steps than record_every
])
def test_solvers_and_times_check_share_the_record_rule(tmp_path, monkeypatch, t_end, dt,
                                                      record_every, expected):
    # The flow map and the Eulerian oracle record the same times, and the
    # --times check accepts exactly those among all step times and midpoints.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 64},
        "time": {"t_end": t_end, "dt": dt, "record_every": record_every},
        "initial": {"kind": "gaussian", "amplitude": 0.5}}))
    cfg = load_config(path)
    traj = studies._solve(("flow_map", cfg, 64, 4, True))
    recorded = [s.t for s in traj.states]
    assert recorded == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert [s.t for s in studies._solve(("eulerian", cfg, 64, 4, True))] == recorded
    monkeypatch.setattr(studies, "_run_tasks", _started)
    steps = traj.diagnostics.t
    for t in np.concatenate((steps, 0.5 * (steps[1:] + steps[:-1]))).tolist():
        with pytest.raises(_Started if t in recorded else ValidationError):
            studies.oracle_refinement(cfg, [], times=[t])


@pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan"), 1e308])
def test_non_finite_or_huge_time_is_refused(tmp_path, monkeypatch, t):
    # A fixed run with dt * record_every = 0.05 up to t_end = 0.1; 1e308 / 0.05
    # overflows, so the check clips t to [0, t_end] before it divides.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": 64},
        "time": {"t_end": 0.1, "dt": 1e-2, "record_every": 5},
        "initial": {"kind": "gaussian", "amplitude": 0.5}}))
    cfg = load_config(path)
    monkeypatch.setattr(studies, "_run_tasks", _started)
    with pytest.raises(ValidationError, match=re.escape(f"not {t:g}") + "$"):
        studies.oracle_refinement(cfg, [], times=[0.1, t])
