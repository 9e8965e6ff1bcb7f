import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from chflow import cli, studies
from chflow.cli import _write_csv, main


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
    _write_csv(tmp_path / "new.csv", header, columns)
    csv_module_writer(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestFailurePaths:
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

    def test_inadmissible_initial_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, width=15.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert read_kv(out / "failure.txt")["error"] == "AdmissibilityError"


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

        monkeypatch.setattr(studies, "ProcessPoolExecutor", no_pool)
        cfg = write_config(tmp_path, n=128, t_end=0.25, dt=8e-3, record_every=1000)
        out = tmp_path / "out"
        code = main(["converge", "--config", str(cfg), "--out", str(out),
                     "--levels", "128,256", "--workers", "2", "--quiet"])
        assert code == 0
        assert read_kv(out / "convergence.txt")["level_execution"] == "serial"

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

    def test_base_level_reuses_base_runs(self, tmp_path, monkeypatch):
        # A ladder containing the config's own n takes that level from the
        # base runs: two flow-map integrations for two levels, and the same
        # bytes as integrating the level again.
        cfg = write_config(tmp_path, n=128, t_end=0.25, dt=4e-3, record_every=1000)
        calls = []
        real_integrate, real_refinement = cli.integrate, cli.oracle_refinement

        def counting(*args, **kwargs):
            calls.append(1)
            return real_integrate(*args, **kwargs)

        def without_base(*args, base=None, **kwargs):
            return real_refinement(*args, **kwargs)

        monkeypatch.setattr(cli, "integrate", counting)
        monkeypatch.setattr(studies, "integrate", counting)
        args = ["oracle-compare", "--config", str(cfg), "--levels", "128,256", "--quiet"]
        assert main(args + ["--out", str(tmp_path / "reused")]) == 0
        assert len(calls) == 2
        monkeypatch.setattr(cli, "oracle_refinement", without_base)
        assert main(args + ["--out", str(tmp_path / "rerun")]) == 0
        assert len(calls) == 5
        reused = (tmp_path / "reused" / "oracle_compare.txt").read_bytes()
        assert reused == (tmp_path / "rerun" / "oracle_compare.txt").read_bytes()
        assert b"gap_n128=" in reused and b"gap_n256=" in reused
