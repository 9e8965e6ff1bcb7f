import json
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc

from chflow import (ScalarField1, cli, integrate, load_config, make_initial, norm_11,
                    write_field_csv)
from chflow.config import SimConfig, config_from_dict
from chflow.errors import AdmissibilityError, ParseError, ValidationError
from chflow.fields import Grid
from chflow.operators import inv_helmholtz

from conftest import antisymmetric_field, gaussian_field, gaussian_source


MINIMAL = {
    "grid": {"x_min": -20.0, "x_max": 20.0, "n": 256},
    "time": {"t_end": 1.0},
    "initial": {"kind": "gaussian"},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestLoadConfig:
    def test_minimal_gets_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.time.dt == 1e-3
        assert cfg.time.record_every == 100
        assert cfg.time.adaptive is False
        assert cfg.initial.amplitude == 1.0
        # The output directory is no config key: it is --out, default out.
        assert cli._build_parser().parse_args(["run", "--config", "c.json"]).out == "out"

    def test_small_grid_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["grid"]["n"] = 4
        with pytest.raises(ValidationError, match="grid.n"):
            load_config(write_config(tmp_path, payload))

    def test_grid_size_bounded(self):
        # 2**22 nodes is the largest grid; one more is rejected before any
        # array is allocated.
        payload = json.loads(json.dumps(MINIMAL))
        payload["grid"]["n"] = 2 ** 22
        assert config_from_dict(payload).grid.n == 2 ** 22
        payload["grid"]["n"] = 2 ** 22 + 1
        with pytest.raises(ValidationError, match=r"grid.n must lie in \[16, 2\*\*22\]"):
            config_from_dict(payload)

    def test_initial_path_resolved_against_config_directory(self, tmp_path):
        # load_config knows where the file is: a relative initial.path is
        # joined to its directory, an absolute one is kept.  config_from_dict
        # knows no file and keeps the path as given.
        payload = json.loads(json.dumps(MINIMAL))
        payload["initial"] = {"kind": "custom_csv", "path": "data/ic.csv"}
        path = write_config(tmp_path, payload)
        assert load_config(path).initial.path == str(tmp_path / "data" / "ic.csv")
        assert config_from_dict(payload).initial.path == "data/ic.csv"
        elsewhere = str(tmp_path.parent / "ic.csv")
        payload["initial"]["path"] = elsewhere
        assert load_config(write_config(tmp_path, payload)).initial.path == elsewhere

    @pytest.mark.parametrize("marked", ["config", "csv"])
    def test_byte_order_mark_accepted(self, tmp_path, marked):
        # UTF-8 text may start with a byte-order mark, as some editors write
        # it; the configuration and its custom_csv file load the same either way.
        grid = Grid.from_interval(-20.0, 20.0, 256)
        payload = {**MINIMAL, "initial": {"kind": "custom_csv", "path": "ic.csv"}}
        loaded = []
        for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            (tmp_path / name).mkdir()
            write_field_csv(antisymmetric_field(grid, amp=0.3), tmp_path / name / "ic.csv")
            path = write_config(tmp_path / name, payload)
            target = path if marked == "config" else tmp_path / name / "ic.csv"
            target.write_bytes(mark + target.read_bytes())
            cfg = load_config(path)
            u0 = make_initial(cfg)
            cfg.initial.path = None
            loaded.append((cfg, u0.u, u0.du))
        (plain, u, du), (cfg, u_marked, du_marked) = loaded
        assert cfg == plain
        np.testing.assert_array_equal(u_marked, u)
        np.testing.assert_array_equal(du_marked, du)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"grid": {"x_min": -1.0, "x_min": -2.0, "x_max": 1.0, '
                        '"n": 64}, "time": {"t_end": 1.0}, '
                        '"initial": {"kind": "gaussian"}}')
        with pytest.raises(ParseError, match="duplicate"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["grid"]["dx"] = 0.1
        with pytest.raises(ParseError, match="unknown key 'grid.dx'"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_section_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["extra"] = {}
        with pytest.raises(ParseError, match="unknown section"):
            load_config(write_config(tmp_path, payload))

    def test_syntax_error_has_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": {,}}')
        with pytest.raises(ParseError, match="line 1"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_all_violations_reported_together(self):
        with pytest.raises(ValidationError) as exc:
            config_from_dict({
                "grid": {"x_min": 1.0, "x_max": -1.0, "n": 4},
                "time": {"t_end": -2.0, "dt": 0.0},
                "initial": {"kind": "gaussian", "width": -1.0},
            })
        text = str(exc.value)
        for frag in ("x_min", "grid.n", "t_end", "time.dt", "width"):
            assert frag in text

    def test_bad_types_rejected(self):
        with pytest.raises(ValidationError, match="must be a number"):
            config_from_dict({
                "grid": {"x_min": -1.0, "x_max": 1.0, "n": "many"},
                "time": {"t_end": 1.0},
                "initial": {"kind": "gaussian"},
            })

    def test_missing_keys_and_bad_types_reported_together(self):
        with pytest.raises(ValidationError) as exc:
            config_from_dict({
                "grid": {"x_min": -1.0, "n": 64.5},
                "time": {"adaptive": "yes"},
                "initial": {"kind": "gaussian", "path": 3},
            })
        assert exc.value.violations == [
            "missing key 'grid.x_max'", "grid.n must be an integer",
            "missing key 'time.t_end'", "time.adaptive must be a boolean",
            "initial.path must be a string"]

    def test_integer_beyond_float_range_is_infinite(self):
        # As 1e400 parses to inf, so does the integer literal 10**400.
        payload = json.loads(json.dumps(MINIMAL))
        payload["grid"]["x_min"] = -10 ** 400
        payload["time"]["t_end"] = 10 ** 400
        with pytest.raises(ValidationError) as exc:
            config_from_dict(payload)
        assert exc.value.violations == [
            "grid.x_min, grid.x_max and grid.n give no grid: grid endpoints must be finite",
            "time.t_end must be > 0, got inf"]

    @pytest.mark.parametrize("output", [{}, {"directory": "out"}, {"formats": ["csv"]}],
                             ids=["empty", "directory", "formats"])
    def test_output_is_an_unknown_section(self, output):
        # Every command writes its fixed set of files into --out; the config
        # names neither the directory nor a format.
        payload = json.loads(json.dumps(MINIMAL))
        payload["output"] = output
        with pytest.raises(ParseError, match="unknown section 'output'"):
            config_from_dict(payload)

    @pytest.mark.parametrize("key", ["inv_tol", "eps_break", "tail_tol"])
    def test_fixed_tolerance_is_an_unknown_key(self, key):
        # The inversion tolerance, the breaking threshold and the boundary
        # tolerance are not configurable.
        payload = json.loads(json.dumps(MINIMAL))
        payload["tolerances"] = {key: 1e-3}
        with pytest.raises(ParseError, match="unknown section 'tolerances'"):
            config_from_dict(payload)

    def test_tolerances_is_an_unknown_section(self):
        # Every solver tolerance is a module constant, so the section is gone,
        # even empty.
        payload = json.loads(json.dumps(MINIMAL))
        payload["tolerances"] = {}
        with pytest.raises(ParseError, match="unknown section 'tolerances'"):
            config_from_dict(payload)

    def test_custom_csv_needs_path(self):
        payload = json.loads(json.dumps(MINIMAL))
        payload["initial"] = {"kind": "custom_csv"}
        with pytest.raises(ValidationError, match="initial.path"):
            config_from_dict(payload)


class TestMakeInitial:
    def test_zero_amplitude_gives_zero_field(self):
        payload = json.loads(json.dumps(MINIMAL))
        payload["initial"]["amplitude"] = 0.0
        cfg = config_from_dict(payload)
        f = make_initial(cfg)
        assert np.abs(f.u).max() == 0.0

    def test_gaussian_norm_closed_form(self):
        payload = json.loads(json.dumps(MINIMAL))
        payload["grid"]["n"] = 4001
        cfg = config_from_dict(payload)
        analytic = 1.0 + np.sqrt(2.0) * np.exp(-0.5) + np.sqrt(2.0 * np.sqrt(np.pi / 2))
        assert norm_11(make_initial(cfg)) == pytest.approx(analytic, abs=5e-5)

    def test_antisymmetric_profile(self):
        payload = json.loads(json.dumps(MINIMAL))
        payload["initial"] = {"kind": "antisymmetric_gaussian", "amplitude": -1.0}
        payload["grid"]["n"] = 513
        cfg = config_from_dict(payload)
        f = make_initial(cfg)
        grid = Grid.from_interval(-20.0, 20.0, 513)
        expected = antisymmetric_field(grid, amp=-1.0)
        np.testing.assert_array_equal(f.u, expected.u)
        np.testing.assert_array_equal(f.du, expected.du)

    @pytest.mark.parametrize("amp, center, width", [(1.0, 0.0, 1.0), (-1.3, 0.37, 0.55)],
                             ids=["defaults", "shifted"])
    @pytest.mark.parametrize("kind, reference", [
        ("gaussian", gaussian_field),
        ("antisymmetric_gaussian", antisymmetric_field),
        ("momentum_gaussian", lambda *a: inv_helmholtz(gaussian_source(*a))),
    ], ids=["gaussian", "antisymmetric", "momentum"])
    def test_analytic_kind_is_its_closed_form_bit_for_bit(self, kind, reference, amp,
                                                          center, width):
        payload = json.loads(json.dumps(MINIMAL))
        payload["initial"] = {"kind": kind, "amplitude": amp, "center": center,
                              "width": width}
        f = make_initial(config_from_dict(payload))
        expected = reference(Grid.from_interval(-20.0, 20.0, 256), amp, center, width)
        np.testing.assert_array_equal(f.u, expected.u)
        np.testing.assert_array_equal(f.du, expected.du)

    def test_momentum_gaussian_closed_form(self):
        # u0 = (1 - d_xx)^(-1) A exp(-x^2)
        #    = (A sqrt(pi) / 4) e^(1/4) (e^-x erfc(1/2 - x) + e^x erfc(1/2 + x))
        payload = json.loads(json.dumps(MINIMAL))
        payload["initial"] = {"kind": "momentum_gaussian", "amplitude": 2.0}
        payload["grid"]["n"] = 2049
        f = make_initial(config_from_dict(payload))
        x = f.grid.x
        c = 2.0 * np.sqrt(np.pi) / 4.0 * np.exp(0.25)
        left, right = np.exp(-x) * erfc(0.5 - x), np.exp(x) * erfc(0.5 + x)
        assert np.abs(f.u - c * (left + right)).max() <= 1e-8
        assert np.abs(f.du - c * (right - left)).max() <= 1e-7

    def test_wide_profile_fails_admissibility(self):
        payload = json.loads(json.dumps(MINIMAL))
        payload["initial"]["width"] = 15.0
        cfg = config_from_dict(payload)
        with pytest.raises(AdmissibilityError, match="boundary_decay"):
            integrate(make_initial(cfg), **asdict(cfg.time), quad_order=4)

    @pytest.mark.parametrize("n", [256, 40001])
    def test_custom_csv_round_trip(self, tmp_path, n):
        # At n = 40001 (h = 1e-3) x1 - x0 carries the rounding of x_min and
        # misses h by 1.2e-12 relative, so the file is checked node by node.
        grid = Grid.from_interval(-20.0, 20.0, n)
        f = antisymmetric_field(grid, amp=-0.5)
        write_field_csv(f, tmp_path / "ic.csv")
        payload = json.loads(json.dumps(MINIMAL))
        payload["grid"]["n"] = n
        payload["initial"] = {"kind": "custom_csv", "path": str(tmp_path / "ic.csv")}
        cfg = config_from_dict(payload)
        g = make_initial(cfg)
        np.testing.assert_array_equal(g.u, f.u)
        np.testing.assert_array_equal(g.du, f.du)

    def test_custom_csv_missing_column(self, tmp_path):
        (tmp_path / "ic.csv").write_text("x,u\n-20,0\n20,0\n")
        payload = json.loads(json.dumps(MINIMAL))
        payload["initial"] = {"kind": "custom_csv", "path": str(tmp_path / "ic.csv")}
        cfg = config_from_dict(payload)
        with pytest.raises(AdmissibilityError):
            make_initial(cfg)

    def test_custom_csv_grid_mismatch(self, tmp_path):
        grid = Grid.from_interval(-10.0, 10.0, 256)
        write_field_csv(ScalarField1.zeros(grid), tmp_path / "ic.csv")
        payload = json.loads(json.dumps(MINIMAL))
        payload["initial"] = {"kind": "custom_csv", "path": str(tmp_path / "ic.csv")}
        cfg = config_from_dict(payload)
        with pytest.raises(AdmissibilityError, match="grid"):
            make_initial(cfg)


def test_readme_schema_example_holds_the_defaults():
    # The README "Configuration schema" example loads, and each of its values
    # but amplitude is its key's default, as the README says.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### Configuration schema", 1)[1]
    cfg = config_from_dict(json.loads(section.split("```json\n", 1)[1].split("```", 1)[0]))
    for name in (f.name for f in fields(SimConfig)):
        values = getattr(cfg, name)
        for f in fields(values):
            if f.default is not MISSING and f.name != "amplitude":
                assert getattr(values, f.name) == f.default, f"{name}.{f.name}"
