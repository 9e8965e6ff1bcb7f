import argparse
import ast
import concurrent.futures
import csv
import hashlib
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import chflow
from chflow import Grid, ScalarField1, cli, fields, integrate, invert, studies, write_field_csv
from chflow.cli import main
from chflow.config import load_config, make_initial
from chflow.fields import _CSV_CHUNK, write_csv


def write_config(tmp_path, *, n=256, t_end=0.5, dt=2e-3, record_every=50,
                 kind="gaussian", amplitude=0.5, name="config.json", **initial):
    payload = {
        "grid": {"x_min": -20.0, "x_max": 20.0, "n": n},
        "time": {"t_end": t_end, "dt": dt, "record_every": record_every},
        "initial": {"kind": kind, "amplitude": amplitude, **initial},
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_kv(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def dir_digest(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


class TestRun:
    def test_zero_data_exits_clean(self, tmp_path):
        cfg = write_config(tmp_path, amplitude=0.0, t_end=0.1, dt=1e-2,
                           record_every=5)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        summary = read_kv(out / "summary.txt")
        assert summary["breakdown"] == "0"
        assert float(summary["energy_drift_rel"]) == 0.0
        diag = np.genfromtxt(out / "diagnostics.csv", delimiter=",", names=True)
        assert np.abs(diag["energy"]).max() == 0.0
        assert np.abs(diag["sup_u"]).max() == 0.0

    def test_artifact_schema(self, tmp_path):
        cfg = write_config(tmp_path, t_end=0.1, dt=5e-3, record_every=10)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        states = sorted(out.glob("state_*.csv"))
        assert len(states) >= 2  # initial and final at least
        header = states[0].read_text().splitlines()[0]
        assert header == "x,eta,eta_x,U,U_x,u,u_x"
        diag_header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert diag_header == "t,energy,momentum,min_eta_x,sup_u"

    def test_breakdown_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, n=256, t_end=5.0, dt=2e-3, record_every=200,
                           kind="antisymmetric_gaussian", amplitude=-1.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        summary = read_kv(out / "summary.txt")
        assert summary["breakdown"] == "1"
        assert np.isfinite(float(summary["breakdown_time"]))

    def test_summary_step_telemetry(self, tmp_path):
        cfg = write_config(tmp_path, n=128, t_end=0.1, dt=5e-3, record_every=10)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        summary = read_kv(out / "summary.txt")
        assert (summary["steps_accepted"], summary["steps_rejected"],
                summary["steps_at_floor"], summary["rhs_evaluations"]) == ("20", "0", "0", "81")
        assert "breaking_time_estimate" not in summary

    def test_summary_step_sizes_of_fixed_run(self, tmp_path):
        # dt = 2^-7 keeps every t exact, so each step, the last included, is dt
        dt = 2.0 ** -7
        cfg = write_config(tmp_path, n=128, t_end=16 * dt, dt=dt, record_every=10)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        summary = read_kv(out / "summary.txt")
        assert float(summary["step_min"]) == float(summary["step_max"]) == dt

    def test_breakdown_reports_breaking_time_estimate(self, tmp_path):
        cfg = write_config(tmp_path, n=256, t_end=5.0, dt=2e-3, record_every=200,
                           kind="antisymmetric_gaussian", amplitude=-1.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        summary = read_kv(out / "summary.txt")
        assert float(summary["breakdown_time"]) < float(summary["breaking_time_estimate"]) < 2.0

    def test_deterministic_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, n=128, t_end=0.1, dt=5e-3, record_every=10)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
        assert dir_digest(out1) == dir_digest(out2)

    def test_odd_data_momentum_drift(self, tmp_path):
        # Odd data carry momentum at rounding level: the relative drift is
        # undefined there, the absolute drift stays small.
        cfg = write_config(tmp_path, t_end=0.2, dt=5e-3, record_every=100,
                           kind="antisymmetric_gaussian", amplitude=-1.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        summary = read_kv(out / "summary.txt")
        energy = float(summary["energy_initial"])
        assert abs(float(summary["momentum_initial"])) <= 1e-12 * energy
        assert summary["momentum_drift_rel"] == "nan"
        assert 0.0 <= float(summary["momentum_drift_abs"]) <= 1e-10 * energy

    def test_even_data_momentum_drift(self, tmp_path):
        cfg = write_config(tmp_path, t_end=0.2, dt=5e-3, record_every=100)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        summary = read_kv(out / "summary.txt")
        drift_abs = float(summary["momentum_drift_abs"])
        drift_rel = float(summary["momentum_drift_rel"])
        assert drift_rel <= 1e-6
        assert drift_rel == pytest.approx(drift_abs / float(summary["momentum_initial"]))


    def test_rerun_leaves_no_stale_states(self, tmp_path):
        # A shorter rerun into the same --out records fewer states; the files
        # of the earlier run's later states must not survive beside them.
        out = tmp_path / "out"
        args = ["run", "--out", str(out), "--quiet", "--config"]
        cfg = write_config(tmp_path, n=128, t_end=0.25, dt=5e-3, record_every=10)
        assert main(args + [str(cfg)]) == 0
        assert len(list(out.glob("state_*.csv"))) == 6
        cfg = write_config(tmp_path, n=128, t_end=0.05, dt=5e-3, record_every=10)
        assert main(args + [str(cfg)]) == 0
        assert read_kv(out / "summary.txt")["recorded_states"] == "2"
        assert sorted(p.name for p in out.glob("state_*.csv")) == [
            "state_00000.csv", "state_00001.csv"]

    def test_summary_invert_counts_sum_over_states(self, tmp_path):
        cfg_path = write_config(tmp_path, n=256, t_end=1.5, dt=5e-3, record_every=50,
                                kind="antisymmetric_gaussian", amplitude=-1.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        cfg = load_config(cfg_path)
        traj = integrate(make_initial(cfg), **cfg.integrate_kwargs(4))
        tally = Counter()
        for state in traj.states:
            invert(state.eta, tally=tally)
        summary = read_kv(out / "summary.txt")
        assert len(traj.states) == int(summary["recorded_states"]) == 7
        assert tally["iterations"] > 0 and tally["bisections"] > 0
        assert int(summary["invert_iterations"]) == tally["iterations"]
        assert int(summary["invert_bisections"]) == tally["bisections"]


def csv_module_writer(path, header, columns):
    """The csv-module export the direct formatter must reproduce byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{float(v):.17g}" for v in row])


def test_csv_export_matches_csv_module_bytes(tmp_path):
    tiny = np.nextafter(0.0, 1.0)
    columns = [
        np.array([0.0, -0.0, tiny, -tiny, 1e300, -1e300]),
        np.array([1.0, -2.0, 3.0, 4096.0, -0.0, 2.0 ** 53]),
        np.array([0.1, 1.0 / 3.0, -2.5e-308, np.pi, 1e-5, 123456789.0]),
    ]
    header = ["a", "b", "c"]
    write_csv(tmp_path / "new.csv", header, columns)
    csv_module_writer(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # The public field writer goes through the same writer.
    grid = Grid.from_interval(-1.0, 1.0, 6)
    field = ScalarField1(grid, columns[1], columns[2])
    write_field_csv(field, tmp_path / "field.csv")
    csv_module_writer(tmp_path / "field_old.csv", ["x", "u", "du"],
                      [grid.x, field.u, field.du])
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "field_old.csv").read_bytes()


@pytest.mark.parametrize("rows", [1, _CSV_CHUNK, 2 * _CSV_CHUNK + 3])
def test_csv_export_in_chunks_matches_csv_module_bytes(tmp_path, rows):
    # one % formats each chunk of rows: a single row, one whole chunk, and
    # more rows than one chunk with a partial last one
    rng = np.random.default_rng(rows)
    columns = list(rng.standard_normal((3, rows)) * 10.0 ** rng.integers(-300, 300, (3, rows)))
    write_csv(tmp_path / "new.csv", ["a", "b", "c"], columns)
    csv_module_writer(tmp_path / "old.csv", ["a", "b", "c"], columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# Inputs that pass the configuration's type checks but that no run can take:
# grids whose spacing (x_max - x_min)/(n - 1) is inf or 0 (at n = 256, the
# [0, 1e-320] grid is valid, but converge's default 4096 level is not), a
# record_every past 2**53, whose product with dt can overflow, and analytic
# data whose samples overflow.  The check suites take no initial data.  Each
# case is a command and the keys it sets, by section.
_BAD_GRIDS = {"inf-spacing": {"x_min": -1e308, "x_max": 1e308, "n": 256},
              "zero-spacing": {"x_min": 0.0, "x_max": 1e-321, "n": 1024}}
_BAD_DATA = {"gaussian": {"kind": "gaussian", "width": 1e-300},
             "antisymmetric": {"kind": "antisymmetric_gaussian", "amplitude": 1e300,
                               "width": 1e-5},
             "momentum": {"kind": "momentum_gaussian", "amplitude": 1e308}}
_COMMANDS = ("run", "converge", "check-operators", "check-group", "oracle-compare")
BAD_INPUTS = (
    [pytest.param(command, {"grid": grid}, "ValidationError", id=f"{command}-{name}")
     for name, grid in _BAD_GRIDS.items() for command in _COMMANDS]
    + [pytest.param("converge", {"grid": {"x_min": 0.0, "x_max": 1e-320, "n": 256}},
                    "ValidationError", id="converge-zero-spacing-at-4096")]
    + [pytest.param(command, {"time": {"record_every": 10 ** 400}}, "ValidationError",
                    id=f"{command}-huge-record-every") for command in ("run", "oracle-compare")]
    + [pytest.param(command, {"initial": initial}, "AdmissibilityError", id=f"{command}-{name}")
       for name, initial in _BAD_DATA.items()
       for command in ("run", "converge", "oracle-compare")])


def shift_x_on_line_61(lines):
    x, rest = lines[60].split(",", 1)
    lines[60] = f"{float(x) + 1e-6!r},{rest}"


class TestFailurePaths:
    @pytest.mark.parametrize("command, edits, error", BAD_INPUTS)
    def test_bad_input_ends_in_failure_report(self, tmp_path, capsys, monkeypatch,
                                              command, edits, error):
        if error == "ValidationError":  # a bad configuration is refused before any solve
            monkeypatch.setattr(studies, "_run_tasks",
                                lambda *a, **k: pytest.fail("a solve started"))
        cfg = write_config(tmp_path)
        payload = json.loads(cfg.read_text())
        for section, values in edits.items():
            payload.setdefault(section, {}).update(values)
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        report = read_kv(out / "failure.txt")
        assert report["error"] == error
        if error == "ValidationError":  # the message names every key the case sets
            assert all(f"{section}.{key}" in report["message"]
                       for section, values in edits.items() for key in values)
        assert "Traceback" not in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["run", "check-group"])
    @pytest.mark.parametrize("text, fragment", [
        (b"\xff\xfe{}", "not UTF-8 text"),
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply to parse"),
    ], ids=["not-utf8", "nested-too-deep"])
    def test_undecodable_config_is_a_parse_error(self, tmp_path, capsys, command,
                                                 text, fragment):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        report = read_kv(out / "failure.txt")
        assert report["error"] == "ParseError"
        assert report["message"].startswith(f"{cfg}: {fragment}")
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_config_exits_one_with_report(self, tmp_path, capsys):
        payload = {"grid": {"x_min": -20.0, "x_max": 20.0, "n": 4},
                   "time": {"t_end": 1.0}, "initial": {"kind": "gaussian"}}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        report = read_kv(out / "failure.txt")
        assert report["error"] == "ValidationError"
        assert "grid.n" in report["message"]
        assert "Traceback" not in capsys.readouterr().err

    def test_usage_error_exits_one(self, capsys):
        assert main(["run"]) == 1
        err = capsys.readouterr().err
        assert "error=ParseError" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("section, key", [("grid", "n"), ("time", "record_every")])
    def test_non_finite_integer_exits_one_with_report(self, tmp_path, capsys,
                                                      section, key, value):
        cfg = write_config(tmp_path)
        payload = json.loads(cfg.read_text())
        payload[section][key] = value  # written as NaN or Infinity
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        report = read_kv(out / "failure.txt")
        assert report["error"] == "ValidationError"
        assert f"{section}.{key} must be an integer" in report["message"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("n", [10 ** 11, 10 ** 400], ids=["1e11", "401-digits"])
    def test_huge_grid_exits_one_with_report(self, tmp_path, capsys, n):
        # A representable n would allocate grids of that size, and one beyond
        # the float range would overflow: both are configuration errors.
        cfg = write_config(tmp_path)
        payload = json.loads(cfg.read_text())
        payload["grid"]["n"] = n
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        report = read_kv(out / "failure.txt")
        assert report["error"] == "ValidationError"
        assert "grid.n must lie in [16, 2**22]" in report["message"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "converge", "oracle-compare"])
    def test_seed_is_a_usage_error_outside_check_suites(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        assert main([command, "--config", str(cfg), "--seed", "1"]) == 1
        assert "error=ParseError" in capsys.readouterr().err

    def test_oracle_compare_order_is_a_usage_error(self, tmp_path, capsys):
        # oracle-compare runs the integrator's scan order 4; it has no --order.
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["oracle-compare", "--config", str(cfg), "--out", str(out),
                     "--order", "2", "--quiet"]) == 1
        assert "error=ParseError" in capsys.readouterr().err
        assert not out.exists()

    def test_inadmissible_initial_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, width=15.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert read_kv(out / "failure.txt")["error"] == "AdmissibilityError"

    def test_unparsable_config_without_out_reports_to_default_out(self, tmp_path,
                                                                   monkeypatch):
        # --out defaults to out, so even a config that does not parse
        # reports there and not in the working directory.
        cfg = tmp_path / "broken.json"
        cfg.write_text("{")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 1
        assert read_kv(tmp_path / "out" / "failure.txt")["error"] == "ParseError"
        assert not (tmp_path / "failure.txt").exists()

    @pytest.mark.parametrize("command", ["check-operators", "check-group"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--samples", "2",
                     "--seed", "-1", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "error=ParseError" in err and "must be a non-negative integer" in err
        assert not out.exists()

    def test_empty_out_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # An empty --out names no directory; taken as one it would clear the
        # command's files from the working directory.
        cfg = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "state_00007.csv").write_text("kept")
        assert main(["run", "--config", str(cfg), "--out", "", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "error=ParseError" in err and "must name a directory" in err
        assert not (tmp_path / "failure.txt").exists()
        assert (tmp_path / "state_00007.csv").read_text() == "kept"

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("args, report", [
        (["check-operators", "--samples"], "operator_report.txt"),
        (["check-group", "--samples"], "group_report.txt"),
        (["converge", "--levels", "64,128", "--workers"], "convergence.txt"),
    ], ids=["check-operators", "check-group", "converge-workers"])
    def test_count_below_one_is_a_usage_error(self, tmp_path, capsys, args, report, value):
        # A suite of no samples measures nothing, so it must not report a pass.
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main([args[0], "--config", str(cfg), "--out", str(out), *args[1:], value,
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "error=ParseError" in err and "must be a positive integer" in err
        assert not (out / report).exists()

    @pytest.mark.parametrize("args, error, fragment", [
        (["converge", "--levels", "256,abc"], "ParseError", "--levels"),
        (["converge", "--levels", "512"], "ValidationError", "at least 2 levels"),
        (["converge", "--levels", "512,256"], "ValidationError", "strictly increasing"),
        (["converge", "--levels", "4,8"], "ValidationError", "grid.n must lie in"),
        (["oracle-compare", "--times", "abc"], "ParseError", "--times"),
        (["oracle-compare", "--times", "0.1,0.2,0.1"], "ValidationError",
         "0.1 may not repeat an earlier entry"),
        (["oracle-compare", "--times", "0.1,0.1000000000001"], "ValidationError",
         "0.1 may not repeat an earlier entry"),
        (["oracle-compare", "--times", ","], "ValidationError", "none was given"),
        (["oracle-compare", "--times", ""], "ValidationError", "none was given"),
        (["oracle-compare", "--levels", "256,256"], "ValidationError",
         "strictly increasing"),
        (["oracle-compare", "--levels", "256,4000000000"], "ValidationError",
         "grid.n must lie in"),
        (["oracle-compare", "--levels", ","], "ValidationError", "none was given"),
        (["oracle-compare", "--levels", ""], "ValidationError", "none was given"),
    ], ids=["converge-token", "converge-one-level", "converge-decreasing",
            "converge-too-small", "oracle-times-token", "oracle-times-repeated",
            "oracle-times-near-repeat", "oracle-times-comma", "oracle-times-blank",
            "oracle-repeated", "oracle-too-large", "oracle-levels-comma",
            "oracle-levels-blank"])
    def test_bad_ladder_fails_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                               args, error, fragment):
        monkeypatch.setattr(studies, "_run_tasks",
                            lambda *a, **k: pytest.fail("a solve started"))
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main([args[0], "--config", str(cfg), "--out", str(out), *args[1:],
                     "--quiet"]) == 1
        report = read_kv(out / "failure.txt")
        assert report["error"] == error
        assert fragment in report["message"]
        assert "Traceback" not in capsys.readouterr().err


    def test_adaptive_unrecorded_time_fails_before_any_solve(self, tmp_path, capsys,
                                                            monkeypatch):
        # An adaptive run is sure to record only 0 and t_end.
        monkeypatch.setattr(studies, "_run_tasks",
                            lambda *a, **k: pytest.fail("a solve started"))
        cfg = write_config(tmp_path, t_end=0.25, dt=4e-3, record_every=20)
        payload = json.loads(cfg.read_text())
        payload["time"]["adaptive"] = True
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["oracle-compare", "--config", str(cfg), "--out", str(out),
                     "--times", "0.08,0.25", "--quiet"]) == 1
        report = read_kv(out / "failure.txt")
        assert report["error"] == "ValidationError"
        assert "records only t = 0 and t_end = 0.25, not 0.08" in report["message"]
        assert "Traceback" not in capsys.readouterr().err

    def test_fixed_unrecorded_time_fails_before_any_solve(self, tmp_path, capsys,
                                                         monkeypatch):
        # A fixed run records the multiples of dt * record_every = 0.05 and t_end.
        monkeypatch.setattr(studies, "_run_tasks",
                            lambda *a, **k: pytest.fail("a solve started"))
        cfg = write_config(tmp_path, n=128, t_end=0.25, dt=5e-3, record_every=10)
        out = tmp_path / "out"
        assert main(["oracle-compare", "--config", str(cfg), "--out", str(out),
                     "--levels", "128,256,512", "--times", "0.07,0.25", "--quiet"]) == 1
        report = read_kv(out / "failure.txt")
        assert report["error"] == "ValidationError"
        assert "multiples of dt * record_every = 0.05" in report["message"]
        assert report["message"].endswith("not 0.07")
        assert "Traceback" not in capsys.readouterr().err


    def test_rerun_clears_stale_reports(self, tmp_path):
        # Each command first deletes the failure.txt, report and artifacts an
        # earlier run left in its --out, so no report contradicts the exit code.
        cfg = write_config(tmp_path, n=128, t_end=0.25, dt=5e-3, record_every=10)
        out = tmp_path / "out"
        args = ["oracle-compare", "--config", str(cfg), "--out", str(out), "--quiet"]
        assert main(args + ["--times", "0.07"]) == 1
        assert (out / "failure.txt").exists()
        assert main(args + ["--times", "0.05"]) == 0
        names = {p.name for p in out.iterdir()}
        assert "failure.txt" not in names and "oracle_compare.txt" in names
        assert "eulerian_00000.csv" in names
        assert main(args + ["--times", "0.07"]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["failure.txt"]

    def test_config_that_fails_to_load_leaves_no_stale_artifacts(self, tmp_path):
        # With --out the command's files go before the config loads, so a
        # config that does not parse leaves only its failure.txt there.
        cfg = write_config(tmp_path, n=128, t_end=0.25, dt=5e-3, record_every=20)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert len(list(out.glob("state_*.csv"))) == 4
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["run", "--config", str(bad), "--out", str(out), "--quiet"]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["failure.txt"]
        assert read_kv(out / "failure.txt")["error"] == "ParseError"

    def test_out_naming_a_file_reports_os_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "error=FileExistsError" in err and "message=" in err
        assert "Traceback" not in err
        assert out.read_text() == "not a directory\n"

    def test_missing_custom_csv_reports_os_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        payload = json.loads(cfg.read_text())
        payload["initial"] = {"kind": "custom_csv", "path": "missing.csv"}
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        report = read_kv(out / "failure.txt")
        assert report["error"] == "FileNotFoundError"
        assert "missing.csv" in report["message"]
        err = capsys.readouterr().err
        assert "error=FileNotFoundError" in err and "Traceback" not in err

    def test_relative_custom_csv_resolves_against_config(self, tmp_path, monkeypatch):
        # initial.path is taken against the configuration's directory, not
        # the working directory: for run, for oracle-compare's pooled solves,
        # and in the message that names a missing file.
        data, elsewhere = tmp_path / "data", tmp_path / "elsewhere"
        data.mkdir()
        elsewhere.mkdir()
        grid = Grid.from_interval(-20.0, 20.0, 128)
        u = 0.5 * np.exp(-grid.x ** 2)
        write_field_csv(ScalarField1(grid, u, -2.0 * grid.x * u), data / "u0.csv")
        write_config(data, n=128, t_end=0.1, dt=1e-2, record_every=5,
                     kind="custom_csv", path="u0.csv")
        write_config(data, name="missing.json", kind="custom_csv", path="missing.csv")
        monkeypatch.chdir(elsewhere)
        monkeypatch.setattr(studies, "_usable_cpus", lambda: 2)  # a pool on one CPU too
        for command in ("run", "oracle-compare"):
            assert main([command, "--config", "../data/config.json", "--out", command,
                         "--quiet"]) == 0
        assert read_kv("oracle-compare/oracle_compare.txt")["level_execution"] == "pool"
        assert main(["run", "--config", "../data/missing.json", "--out", "missing",
                     "--quiet"]) == 1
        assert (read_kv("missing/failure.txt")["message"]
                == f"[Errno 2] No such file or directory: '{data / 'missing.csv'}'")

    def test_non_finite_custom_csv_is_rejected_data(self, tmp_path, capsys):
        grid = Grid.from_interval(-20.0, 20.0, 128)
        u = 0.5 * np.exp(-grid.x ** 2)
        write_field_csv(ScalarField1(grid, u, -2.0 * grid.x * u), tmp_path / "u0.csv")
        lines = (tmp_path / "u0.csv").read_text().splitlines(keepends=True)
        x, _, du = lines[60].split(",")
        lines[60] = f"{x},nan,{du}"
        (tmp_path / "u0.csv").write_text("".join(lines))
        cfg = write_config(tmp_path, n=128, kind="custom_csv", path="u0.csv")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        report = read_kv(out / "failure.txt")
        assert report["error"] == "AdmissibilityError"
        assert "line 61 holds a non-finite entry" in report["message"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("edit, fragment", [
        (shift_x_on_line_61, "line 61 has x = "),
        (list.pop, "127 data rows, but the grid has 128 nodes"),
    ], ids=["x-off-node", "row-dropped"])
    def test_off_grid_custom_csv_is_rejected_data(self, tmp_path, capsys, edit, fragment):
        grid = Grid.from_interval(-20.0, 20.0, 128)
        u = 0.5 * np.exp(-grid.x ** 2)
        write_field_csv(ScalarField1(grid, u, -2.0 * grid.x * u), tmp_path / "u0.csv")
        lines = (tmp_path / "u0.csv").read_text().splitlines(keepends=True)
        edit(lines)
        (tmp_path / "u0.csv").write_text("".join(lines))
        cfg = write_config(tmp_path, n=128, kind="custom_csv", path="u0.csv")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        report = read_kv(out / "failure.txt")
        assert report["error"] == "AdmissibilityError"
        assert fragment in report["message"]
        assert "Traceback" not in capsys.readouterr().err

    def test_undecodable_custom_csv_is_rejected_data(self, tmp_path, capsys):
        grid = Grid.from_interval(-20.0, 20.0, 128)
        write_field_csv(ScalarField1.zeros(grid), tmp_path / "u0.csv")
        lines = (tmp_path / "u0.csv").read_bytes().splitlines(keepends=True)
        lines[60] = lines[60].replace(b",", b",\xff", 1)
        (tmp_path / "u0.csv").write_bytes(b"".join(lines))
        cfg = write_config(tmp_path, n=128, kind="custom_csv", path="u0.csv")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        report = read_kv(out / "failure.txt")
        assert report["error"] == "AdmissibilityError"
        assert "u0.csv: not UTF-8 text" in report["message"]
        assert "Traceback" not in capsys.readouterr().err


class TestConverge:
    def test_study_report(self, tmp_path):
        cfg = write_config(tmp_path, n=128, t_end=0.25, dt=8e-3, record_every=1000)
        out = tmp_path / "out"
        code = main(["converge", "--config", str(cfg), "--out", str(out),
                     "--levels", "128,256,512", "--workers", "1", "--quiet"])
        assert code == 0
        report = read_kv(out / "convergence.txt")
        # The baseline (order-2 scans) study measures its textbook rate.
        assert 1.8 <= float(report["fitted_order"]) <= 2.2
        assert "gap_n128" in report and "gap_n256" in report

    def test_reports_serial_levels_when_pool_fails(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = write_config(tmp_path, n=128, t_end=0.25, dt=8e-3, record_every=1000)
        out = tmp_path / "out"
        code = main(["converge", "--config", str(cfg), "--out", str(out),
                     "--levels", "128,256", "--workers", "2", "--quiet"])
        assert code == 0
        assert read_kv(out / "convergence.txt")["level_execution"] == "serial"

    def test_workers_capped_at_level_count(self, tmp_path, monkeypatch):
        # A pool forks all its workers on the first submit, so --workers above
        # the task count would start processes with nothing to do.  The
        # stand-in pool records max_workers and runs the tasks on one thread
        # of this process, so no process starts.
        seen = []

        class OneThreadPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers=1)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", OneThreadPool)
        cfg = write_config(tmp_path, n=64, t_end=0.1, dt=1e-2, record_every=1000)
        for levels, workers in (("64,128", "5000"), ("64,128,256,512", "2")):
            out = tmp_path / levels
            assert main(["converge", "--config", str(cfg), "--out", str(out),
                         "--levels", levels, "--workers", workers, "--quiet"]) == 0
            assert read_kv(out / "convergence.txt")["level_execution"] == "pool"
        assert seen == [2, 2]

    def test_breaking_levels_exit_two_without_gaps(self, tmp_path):
        cfg = write_config(tmp_path, n=128, t_end=3.0, dt=8e-3, record_every=1000,
                           kind="antisymmetric_gaussian", amplitude=-1.0)
        out = tmp_path / "out"
        code = main(["converge", "--config", str(cfg), "--out", str(out),
                     "--levels", "128,256,512", "--workers", "1", "--quiet"])
        assert code == 2
        report = read_kv(out / "convergence.txt")
        for n in (128, 256, 512):
            assert 0.0 < float(report[f"breakdown_time_n{n}"]) < 2.0
        assert not any(k.startswith(("gap_", "order_")) for k in report)
        assert "fitted_order" not in report

    def test_breaking_levels_report_estimate_order(self, tmp_path):
        # Breaking-time estimates are comparable across levels, where final
        # states are not: they stay below 2/|A| and converge at about order 2.
        cfg = write_config(tmp_path, n=128, t_end=3.0, dt=8e-3, record_every=1000,
                           kind="antisymmetric_gaussian", amplitude=-1.0)
        out = tmp_path / "out"
        code = main(["converge", "--config", str(cfg), "--out", str(out),
                     "--levels", "128,256,512", "--quiet"])
        assert code == 2
        report = read_kv(out / "convergence.txt")
        est = [float(report[f"breaking_time_estimate_n{n}"]) for n in (128, 256, 512)]
        assert all(e < 2.0 for e in est)
        assert abs(est[2] - est[1]) < abs(est[1] - est[0])
        assert 1.5 <= float(report["breaking_time_estimate_fitted_order"]) <= 2.5


def assert_pass_flags_are_bits(report: dict) -> None:
    flags = {k: v for k, v in report.items() if k.endswith("_pass")}
    assert flags and all(v in ("0", "1") for v in flags.values()), flags


class TestCheckSuites:
    def test_operators_report(self, tmp_path):
        cfg = write_config(tmp_path, n=512)
        out = tmp_path / "out"
        code = main(["check-operators", "--config", str(cfg), "--out", str(out),
                     "--samples", "10", "--seed", "3", "--quiet"])
        assert code == 0
        report = read_kv(out / "operator_report.txt")
        assert report["all_pass"] == "1"
        assert_pass_flags_are_bits(report)
        ratios = [float(v) for k, v in report.items() if k.endswith("_ratio")]
        assert ratios and all(r <= 1.0 for r in ratios)

    def test_group_report(self, tmp_path):
        cfg = write_config(tmp_path, n=512)
        out = tmp_path / "out"
        code = main(["check-group", "--config", str(cfg), "--out", str(out),
                     "--samples", "10", "--seed", "3", "--quiet"])
        assert code == 0
        report = read_kv(out / "group_report.txt")
        assert report["all_pass"] == "1"
        assert_pass_flags_are_bits(report)


class TestOracleCompare:
    def test_report_and_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, n=256, t_end=0.25, dt=4e-3, record_every=1000)
        out = tmp_path / "out"
        code = main(["oracle-compare", "--config", str(cfg), "--out", str(out),
                     "--quiet"])
        assert code == 0
        report = read_kv(out / "oracle_compare.txt")
        sup = [float(v) for k, v in report.items() if k.startswith("sup_diff")]
        assert sup and sup[0] <= 1e-2
        eul = sorted(out.glob("eulerian_*.csv"))
        assert eul and eul[0].read_text().splitlines()[0] == "x,u,u_x"

    @pytest.mark.parametrize("levels, solved", [("128,256", [128, 256]),
                                                ("64,256", [64, 128, 256])])
    def test_each_solver_runs_once_per_level(self, tmp_path, monkeypatch, levels, solved):
        # Serially, each solver runs once at every level and at the config's
        # own n (the base comparison), and nothing else integrates or compares.
        def no_pool(*args, **kwargs):
            raise OSError("no process pool")

        runs = {"flow_map": [], "eulerian": [], "compare": []}

        def counting(name, real):
            def wrapper(first, *args, **kwargs):
                runs[name].append(first.grid.n if name != "compare" else first.final.grid.n)
                return real(first, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(studies, "integrate", counting("flow_map", studies.integrate))
        monkeypatch.setattr(studies, "integrate_eulerian",
                            counting("eulerian", studies.integrate_eulerian))
        monkeypatch.setattr(cli, "integrate", counting("flow_map", cli.integrate))
        monkeypatch.setattr(studies, "compare", counting("compare", studies.compare))
        monkeypatch.setattr(cli, "compare", counting("compare", cli.compare))
        cfg = write_config(tmp_path, n=128, t_end=0.25, dt=4e-3, record_every=1000)
        out = tmp_path / "out"
        assert main(["oracle-compare", "--config", str(cfg), "--out", str(out),
                     "--levels", levels, "--quiet"]) == 0
        assert sorted(runs["flow_map"]) == solved
        assert sorted(runs["eulerian"]) == solved
        # One comparison per solved level: the config's own n at t_end
        # serves both the report and its gap.
        assert sorted(runs["compare"]) == solved
        report = read_kv(out / "oracle_compare.txt")
        assert report["level_execution"] == "serial"
        assert all(f"gap_n{n}" in report for n in levels.split(","))
        if "128" in levels.split(","):
            assert report["gap_n128"] == report["sup_diff_t0.25"]

    def test_wide_data_within_tail_tol(self, tmp_path, monkeypatch):
        # A width-5 Gaussian passes a boundary tolerance of 1e-5 on [-20, 20]
        # but not the fixed 1e-8: both solvers must read fields._TAIL_TOL, and
        # its flow map's end displacements must not stall the inversion.  The
        # study runs serially, so that every solve sees the patched tolerance.
        monkeypatch.setattr(fields, "_TAIL_TOL", 1e-5)
        monkeypatch.setattr(studies, "_usable_cpus", lambda: 1)
        cfg = write_config(tmp_path, n=128, t_end=0.25, dt=4e-3, record_every=1000,
                           width=5.0)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run"),
                     "--quiet"]) == 0
        assert main(["oracle-compare", "--config", str(cfg), "--out", str(tmp_path / "cmp"),
                     "--levels", "64,128,256", "--quiet"]) == 0
        report = read_kv(tmp_path / "cmp" / "oracle_compare.txt")
        assert 1.8 <= float(report["fitted_order"]) <= 2.2

    @pytest.mark.parametrize("command", ["run", "oracle-compare"])
    def test_wide_data_fails_at_the_fixed_tail_tol(self, tmp_path, command):
        # At fields._TAIL_TOL = 1e-8 the same data is cut off at the domain's
        # ends, and no configuration key can loosen the check.
        cfg = write_config(tmp_path, n=128, t_end=0.25, dt=4e-3, record_every=1000,
                           width=5.0)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        report = read_kv(out / "failure.txt")
        assert report["error"] == "AdmissibilityError"
        assert report["message"].endswith("boundary_decay")

    @pytest.mark.parametrize("levels, broken", [(None, [256]), ("512", [256, 512]),
                                                ("256,512", [256, 512])])
    def test_breaking_data_exits_two_without_comparison(self, tmp_path, levels, broken):
        # The flow map stops at wave breaking, before t_end: the report gives
        # each broken run's stop time and breaking-time estimate, the config's
        # own n included, and compares at no time a run never reached.
        cfg = write_config(tmp_path, n=256, t_end=3.0, dt=8e-3, record_every=1000,
                           kind="antisymmetric_gaussian", amplitude=-1.0)
        out = tmp_path / "out"
        args = ["oracle-compare", "--config", str(cfg), "--out", str(out), "--quiet"]
        assert main(args + (["--levels", levels] if levels else [])) == 2
        report = read_kv(out / "oracle_compare.txt")
        assert sorted(k for k in report if k.startswith("breakdown_time_n")) == sorted(
            f"breakdown_time_n{n}" for n in broken)
        for n in broken:
            stop = float(report[f"breakdown_time_n{n}"])
            assert 0.0 < stop < float(report[f"breaking_time_estimate_n{n}"]) < 2.0
        assert not any(k.startswith(("sup_diff", "l2_diff", "gap_", "refinement_order"))
                       for k in report)
        assert "fitted_order" not in report and "level_execution" in report
        assert sorted(out.glob("eulerian_*.csv"))

    def test_pool_report_matches_serial(self, tmp_path, monkeypatch):
        # Trajectories and Eulerian states come back from the workers bit for bit.
        cfg = write_config(tmp_path, n=128, t_end=0.25, dt=4e-3, record_every=20)
        args = ["oracle-compare", "--config", str(cfg), "--levels", "64,256",
                "--times", "0.08,0.25", "--quiet"]
        monkeypatch.setattr(studies, "_usable_cpus", lambda: 2)  # a pool on one CPU too
        assert main(args + ["--out", str(tmp_path / "pool")]) == 0

        def no_pool(*args, **kwargs):
            raise OSError("no process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert main(args + ["--out", str(tmp_path / "serial")]) == 0
        pool, serial = (read_kv(tmp_path / d / "oracle_compare.txt")
                        for d in ("pool", "serial"))
        assert serial.pop("level_execution") == "serial"
        assert pool.pop("level_execution") == "pool"
        assert pool == serial
        assert len([k for k in pool if k.startswith("sup_diff_t")]) == 2
        digests = [dir_digest(tmp_path / d) for d in ("pool", "serial")]
        for digest in digests:
            del digest["oracle_compare.txt"]
        assert digests[0] == digests[1] and "eulerian_00001.csv" in digests[0]


BREAKING = dict(n=128, t_end=3.0, dt=8e-3, record_every=1000,
                kind="antisymmetric_gaussian", amplitude=-1.0)
SMOOTH = dict(n=128, t_end=0.1, dt=5e-3, record_every=10)


def suite_lines(report: dict) -> list[str]:
    names = [k[:-len("_ratio")] for k in report if k.endswith("_ratio")]
    return [f"{'pass' if report[f'{n}_pass'] == '1' else 'FAIL'}  {n}: "
            f"ratio {report[f'{n}_ratio']}" for n in names]


def oracle_lines(report: dict) -> list[str]:
    times = [k[len("sup_diff_t"):] for k in report if k.startswith("sup_diff_t")]
    return [f"t = {t}: sup gap {report[f'sup_diff_t{t}']}, "
            f"L2 gap {report[f'l2_diff_t{t}']}" for t in times]


@pytest.mark.parametrize("args, config, code, report, expected", [
    (["run"], SMOOTH, 0, "summary.txt",
     lambda r: [f"run complete at t = {r['final_time']}"]),
    (["run"], BREAKING, 2, "summary.txt",
     lambda r: [f"run stopped by wave breaking at t = {r['breakdown_time']}"]),
    (["converge", "--levels", "128,256", "--workers", "1"], SMOOTH, 0, "convergence.txt",
     lambda r: [f"fitted spatial order {r['fitted_order']}"]),
    (["converge", "--levels", "128,256", "--workers", "1"], BREAKING, 2,
     "convergence.txt",
     lambda r: [f"study stopped by wave breaking at n = 128, t = {r['breakdown_time_n128']}"]),
    (["check-operators", "--samples", "3"], dict(n=256), 0, "operator_report.txt",
     suite_lines),
    (["check-group", "--samples", "3"], dict(n=256), 0, "group_report.txt", suite_lines),
    (["oracle-compare", "--times", "0.05,0.1"], SMOOTH, 0, "oracle_compare.txt",
     oracle_lines),
], ids=["run", "run-breaking", "converge", "converge-breaking", "check-operators",
        "check-group", "oracle-compare"])
def test_stdout_lines(tmp_path, capsys, args, config, code, report, expected):
    # Without --quiet each command prints these lines, its numbers exactly as
    # its report writes them, and nothing else.
    cfg = write_config(tmp_path, **config)
    out = tmp_path / "out"
    assert main([args[0], "--config", str(cfg), "--out", str(out), *args[1:]]) == code
    lines = expected(read_kv(out / report))
    assert lines
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("args, report", [
    (["converge", "--levels", "128,256", "--workers", "1"], "convergence.txt"),
    (["oracle-compare", "--levels", "128"], "oracle_compare.txt"),
], ids=["converge", "oracle-compare"])
def test_single_gap_ladder_reports_nan_fitted_order(tmp_path, args, report):
    # One gap fits no slope: the report writes nan, as for any undefined value.
    cfg = write_config(tmp_path, **SMOOTH)
    out = tmp_path / "out"
    assert main([args[0], "--config", str(cfg), "--out", str(out), *args[1:],
                 "--quiet"]) == 0
    report = read_kv(out / report)
    assert np.isnan(float(report["fitted_order"]))


def run_module(*args, cwd):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "chflow", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path, n=64, t_end=0.02, dt=1e-2, record_every=1)
    res = run_module("run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("run complete at t = ")
    assert (tmp_path / "out" / "summary.txt").exists()


def test_module_entry_point_usage_error(tmp_path):
    res = run_module(cwd=tmp_path)
    assert res.returncode == 1
    assert "error=ParseError" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "failure.txt").exists()


FOOTPRINT = """
import json, sys
from chflow.cli import main
cfg, out = sys.argv[1:]
heavy = ("concurrent.futures.process", "multiprocessing", "numpy.random")
loaded = {}
for name, args in (("run", ["run"]), ("check-group", ["check-group", "--samples", "2"]),
                   ("check-operators", ["check-operators", "--samples", "2", "--seed", "5"]),
                   ("converge", ["converge", "--levels", "128,256", "--workers", "2"])):
    code = main(args + ["--config", cfg, "--out", f"{out}/{name}", "--quiet"])
    loaded[name] = [code, [m for m in heavy if m in sys.modules]]
print(json.dumps(loaded))
"""


def test_commands_load_only_what_they_run(tmp_path):
    # A fresh interpreter: run and the check suites load neither the process
    # pool nor numpy.random, and converge still starts its pool.
    cfg = write_config(tmp_path, n=128, t_end=0.25, dt=8e-3, record_every=1000)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    res = subprocess.run([sys.executable, "-c", FOOTPRINT, str(cfg), str(out)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    loaded = json.loads(res.stdout)
    assert loaded["run"] == [0, []]
    assert loaded["check-group"] == [0, []]
    assert loaded["check-operators"] == [0, []]
    assert loaded["converge"][0] == 0
    assert "concurrent.futures.process" in loaded["converge"][1]
    assert read_kv(out / "converge" / "convergence.txt")["level_execution"] == "pool"
    # The seeded report repeats across processes, and another seed draws anew.
    for seed in ("5", "6"):
        assert main(["check-operators", "--config", str(cfg), "--out", str(tmp_path / seed),
                     "--samples", "2", "--seed", seed, "--quiet"]) == 0
    reports = [d / "operator_report.txt" for d in (out / "check-operators", tmp_path / "5")]
    assert reports[0].read_bytes() == reports[1].read_bytes()
    five, six = ({k: v for k, v in read_kv(tmp_path / seed / "operator_report.txt").items()
                  if k.endswith("_measured")} for seed in ("5", "6"))
    assert five and five != six


def test_exports_resolve():
    # Every name in an __all__ must exist; a star import would fail otherwise.
    modules = [chflow] + [importlib.import_module(f"chflow.{info.name}")
                          for info in pkgutil.iter_modules(chflow.__path__)
                          if info.name != "__main__"]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_readme_synopsis_matches_parser():
    # Each command's line in the README "Command line" block names exactly the
    # options of its parser, apart from the shared --config, --out and --quiet.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    shared = {"-h", "--help", "--config", "--out", "--quiet"}
    documented = {line.split()[1]: set(re.findall(r"--[a-z-]+", line)) - shared
                  for line in block.splitlines() if line.startswith("chflow ")}
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {s for a in p._actions for s in a.option_strings} - shared
              for name, p in sub.choices.items()}
    assert documented == parsed


def test_benchmark_commands_parse():
    # perfbench/workloads.py passes these argument lists to the CLI; a flag
    # they name that the parser drops would fail only benchmark runs.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in ("quickstart", "breaking", "verify"):
        for name, _, argv, _ in workloads.commands(workload, 0):
            args = cli._build_parser().parse_args([*argv, "--config", "c.json", "--out", "o"])
            assert args.command == name, (workload, argv)


def test_no_function_takes_a_tolerance():
    # Every numerical tolerance and threshold is a private module constant,
    # read at call time: no function, method, nested function or lambda of
    # the solver modules takes one as a parameter.
    tolerance = re.compile(r"eps(_\w*)?|(\w*_)?tol")
    found = []
    for name in ("fields", "diffeo", "operators", "lagrangian", "eulerian", "studies",
                 "config", "checks"):
        path = Path(chflow.__file__).with_name(f"{name}.py")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                found += [f"{name}:{node.lineno} {p.arg}" for p in params
                          if p is not None and tolerance.fullmatch(p.arg)]
    assert found == []


def test_tracer_targets_resolve():
    # perfbench/tracer.py resolves every patch target with getattr when it
    # installs, so a deleted binding would crash only traced benchmark runs.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, modules, attr, _, _ in tracer.PATCHES:
        for module in modules:
            assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr}"
    for key, cls, method in tracer.COUNTED_METHODS:
        assert callable(getattr(cls, method, None)), f"{key}: {cls.__name__}.{method}"
