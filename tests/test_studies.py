import json

import pytest

from chflow import studies
from chflow.config import load_config
from chflow.errors import AdmissibilityError


def test_level_error_in_pool_propagates_without_serial_rerun(tmp_path, monkeypatch):
    # width 15 on [-20, 20] fails boundary decay, so every level raises in make_initial.
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
    assert [m.n for m in pool.levels] == [64, 128, 256]
    assert pool.levels == serial.levels
    assert pool.gaps == serial.gaps and pool.fitted_order == serial.fitted_order
    # The cross-method study runs both solvers of every level as tasks; it
    # takes its worker count from the usable CPUs and runs serially when no
    # pool starts.
    monkeypatch.setattr(studies, "_usable_cpus", lambda: 2)
    pool = studies.oracle_refinement(cfg, [64, 128, 256])
    monkeypatch.setattr(studies, "ProcessPoolExecutor", _no_pool)
    serial = studies.oracle_refinement(cfg, [64, 128, 256])
    assert (pool.execution, serial.execution) == ("pool", "serial")
    assert [m.n for m in pool.levels] == [64, 128, 256]
    assert pool.levels == serial.levels
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
    full = studies._solve((solver, cfg, 128, 4, None, True))
    final = studies._solve((solver, cfg, 128, 4, None, False))
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
