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


def test_pool_matches_serial_in_ladder_order(tmp_path):
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
