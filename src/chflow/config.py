"""Run configuration: a nested key-value JSON file with strict validation.

The schema (defaults in parentheses; grid, time.t_end, and initial.kind are
required):

    {
      "grid":       {"x_min": -20.0, "x_max": 20.0, "n": 2048},
      "time":       {"t_end": 2.0, "dt": 1e-3 (1e-3),
                     "record_every": 100 (100), "adaptive": false (false)},
      "initial":    {"kind": "gaussian" | "antisymmetric_gaussian" |
                             "momentum_gaussian" | "custom_csv",
                     "amplitude": 1.0 (1.0), "center": 0.0 (0.0),
                     "width": 1.0 (1.0), "path": "ic.csv" (unset)},
      "tolerances": {"tail_tol": 1e-8 (1e-8), "eps_break": 1e-3 (1e-3),
                     "inv_tol": 1e-12 (1e-12)},
      "output":     {"directory": "out" ("out"),
                     "formats": ["csv", "summary"] (both)}
    }

Unknown or duplicate keys are parse errors; invariant violations are
collected and reported together.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, ParseError, ValidationError
from .fields import Grid, ScalarField0, ScalarField1, check_membership, read_field_csv
from .operators import inv_helmholtz

__all__ = [
    "GridConfig",
    "TimeConfig",
    "InitialConfig",
    "ToleranceConfig",
    "OutputConfig",
    "SimConfig",
    "load_config",
    "config_from_dict",
    "make_initial",
]

INITIAL_KINDS = ("gaussian", "antisymmetric_gaussian", "momentum_gaussian", "custom_csv")
OUTPUT_FORMATS = ("csv", "summary")


@dataclass
class GridConfig:
    x_min: float
    x_max: float
    n: int

    def build(self) -> Grid:
        return Grid.from_interval(self.x_min, self.x_max, self.n)


@dataclass
class TimeConfig:
    t_end: float
    dt: float = 1e-3
    record_every: int = 100
    adaptive: bool = False


@dataclass
class InitialConfig:
    kind: str
    amplitude: float = 1.0
    center: float = 0.0
    width: float = 1.0
    path: str | None = None


@dataclass
class ToleranceConfig:
    tail_tol: float = 1e-8
    eps_break: float = 1e-3
    inv_tol: float = 1e-12


@dataclass
class OutputConfig:
    directory: str = "out"
    formats: list[str] = field(default_factory=lambda: list(OUTPUT_FORMATS))


@dataclass
class SimConfig:
    grid: GridConfig
    time: TimeConfig
    initial: InitialConfig
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def integrate_kwargs(self, order: int) -> dict:
        """Keyword arguments of ``lagrangian.integrate`` for this run at scan order ``order``."""
        return dict(t_end=self.time.t_end, dt=self.time.dt,
                    record_every=self.time.record_every,
                    eps_break=self.tolerances.eps_break, quad_order=order,
                    tail_tol=self.tolerances.tail_tol, adaptive=self.time.adaptive)


_SCHEMA = {
    "grid": {"x_min", "x_max", "n"},
    "time": {"t_end", "dt", "record_every", "adaptive"},
    "initial": {"kind", "amplitude", "center", "width", "path"},
    "tolerances": {"tail_tol", "eps_break", "inv_tol"},
    "output": {"directory", "formats"},
}
_REQUIRED = {"grid": {"x_min", "x_max", "n"}, "time": {"t_end"}, "initial": {"kind"}}


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ParseError(f"duplicate key '{key}'")
        seen[key] = value
    return seen


def load_config(path) -> SimConfig:
    """Parse and validate a configuration file."""
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_reject_duplicates)
    except FileNotFoundError:
        raise ParseError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> SimConfig:
    """Build a SimConfig from nested dictionaries, rejecting unknown keys."""
    for section, body in raw.items():
        if section not in _SCHEMA:
            raise ParseError(f"unknown section '{section}'")
        if not isinstance(body, dict):
            raise ParseError(f"section '{section}' must be an object")
        for key in body:
            if key not in _SCHEMA[section]:
                raise ParseError(f"unknown key '{section}.{key}'")
    problems: list[str] = []
    for section, keys in _REQUIRED.items():
        if section not in raw:
            problems.append(f"missing section '{section}'")
            continue
        for key in keys:
            if key not in raw[section]:
                problems.append(f"missing key '{section}.{key}'")
    if problems:
        raise ValidationError(problems)

    def num(section, key, default=None, *, integer=False, boolean=False):
        body = raw.get(section, {})
        if key not in body:
            return default
        val = body[key]
        if boolean:
            if not isinstance(val, bool):
                problems.append(f"{section}.{key} must be a boolean")
                return default
            return val
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            problems.append(f"{section}.{key} must be a number")
            return default
        if integer:
            if int(val) != val:
                problems.append(f"{section}.{key} must be an integer")
                return default
            return int(val)
        return float(val)

    grid = GridConfig(
        x_min=num("grid", "x_min"), x_max=num("grid", "x_max"),
        n=num("grid", "n", integer=True))
    time = TimeConfig(
        t_end=num("time", "t_end"), dt=num("time", "dt", 1e-3),
        record_every=num("time", "record_every", 100, integer=True),
        adaptive=num("time", "adaptive", False, boolean=True))
    kind = raw["initial"].get("kind")
    if not isinstance(kind, str):
        problems.append("initial.kind must be a string")
        kind = ""
    path = raw["initial"].get("path")
    if path is not None and not isinstance(path, str):
        problems.append("initial.path must be a string")
        path = None
    initial = InitialConfig(
        kind=kind, amplitude=num("initial", "amplitude", 1.0),
        center=num("initial", "center", 0.0), width=num("initial", "width", 1.0),
        path=path)
    tol = ToleranceConfig(
        tail_tol=num("tolerances", "tail_tol", 1e-8),
        eps_break=num("tolerances", "eps_break", 1e-3),
        inv_tol=num("tolerances", "inv_tol", 1e-12))
    formats = raw.get("output", {}).get("formats", list(OUTPUT_FORMATS))
    if not (isinstance(formats, list) and all(isinstance(f, str) for f in formats)):
        problems.append("output.formats must be a list of strings")
        formats = list(OUTPUT_FORMATS)
    directory = raw.get("output", {}).get("directory", "out")
    if not isinstance(directory, str):
        problems.append("output.directory must be a string")
        directory = "out"
    output = OutputConfig(directory=directory, formats=formats)
    if problems:
        raise ValidationError(problems)

    cfg = SimConfig(grid=grid, time=time, initial=initial, tolerances=tol, output=output)
    _validate(cfg, problems)
    if problems:
        raise ValidationError(problems)
    return cfg


def _validate(cfg: SimConfig, problems: list[str]):
    g, t, i, tol = cfg.grid, cfg.time, cfg.initial, cfg.tolerances
    if not (math.isfinite(g.x_min) and math.isfinite(g.x_max) and g.x_min < g.x_max):
        problems.append("grid.x_min must be finite and < grid.x_max")
    if g.n < 16:
        problems.append(f"grid.n must be >= 16, got {g.n}")
    if not (math.isfinite(t.t_end) and t.t_end > 0):
        problems.append(f"time.t_end must be > 0, got {t.t_end}")
    if not (math.isfinite(t.dt) and t.dt > 0):
        problems.append(f"time.dt must be > 0, got {t.dt}")
    if t.record_every < 1:
        problems.append(f"time.record_every must be >= 1, got {t.record_every}")
    if i.kind not in INITIAL_KINDS:
        problems.append(f"initial.kind must be one of {INITIAL_KINDS}, got '{i.kind}'")
    if not (math.isfinite(i.amplitude) and math.isfinite(i.center)):
        problems.append("initial.amplitude and initial.center must be finite")
    if not (math.isfinite(i.width) and i.width > 0):
        problems.append(f"initial.width must be > 0, got {i.width}")
    if i.kind == "custom_csv" and not i.path:
        problems.append("initial.path is required for kind 'custom_csv'")
    if not (0 < tol.tail_tol < 1):
        problems.append(f"tolerances.tail_tol must lie in (0, 1), got {tol.tail_tol}")
    if not (0 < tol.eps_break < 1):
        problems.append(f"tolerances.eps_break must lie in (0, 1), got {tol.eps_break}")
    if not (0 < tol.inv_tol < 1e-3):
        problems.append(f"tolerances.inv_tol must lie in (0, 1e-3), got {tol.inv_tol}")
    for fmt in cfg.output.formats:
        if fmt not in OUTPUT_FORMATS:
            problems.append(f"output.formats entries must be in {OUTPUT_FORMATS}, got '{fmt}'")


def make_initial(cfg: SimConfig, *, base_dir: str | None = None) -> ScalarField1:
    """Construct the initial velocity field and verify its admissibility.

    Analytic profiles carry exact derivative channels, momentum_gaussian the
    kernel-identity channel of inv_helmholtz; custom CSV data must provide
    both channels.  The field must pass the membership conditions of
    the solution space or an AdmissibilityError names the failed condition.
    """
    grid = cfg.grid.build()
    ic = cfg.initial
    if ic.kind == "gaussian":
        z = (grid.x - ic.center) / ic.width
        u = ic.amplitude * np.exp(-z * z)
        du = -2.0 * z / ic.width * u
        field1 = ScalarField1(grid, u, du)
    elif ic.kind == "antisymmetric_gaussian":
        z = (grid.x - ic.center) / ic.width
        bump = np.exp(-z * z)
        u = ic.amplitude * (grid.x - ic.center) * bump
        du = ic.amplitude * (1.0 - 2.0 * z * z) * bump
        field1 = ScalarField1(grid, u, du)
    elif ic.kind == "momentum_gaussian":
        # u0 = (1 - d_xx)^(-1) m0 for the momentum density m0 = u0 - u0''
        z = (grid.x - ic.center) / ic.width
        m0 = ScalarField0(grid, ic.amplitude * np.exp(-z * z))
        field1 = inv_helmholtz(m0, order=4)
    elif ic.kind == "custom_csv":
        path = ic.path
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            field1 = read_field_csv(path)
        except ParseError as exc:
            raise AdmissibilityError(f"custom initial data rejected: {exc}") from None
        if field1.grid != grid:
            fg = field1.grid
            close = (fg.n == grid.n
                     and abs(fg.x_min - grid.x_min) <= 1e-9 * max(1.0, abs(grid.x_min))
                     and abs(fg.h - grid.h) <= 1e-12 * grid.h)
            if not close:
                raise AdmissibilityError(
                    "custom initial data grid does not match the configured grid")
            field1 = ScalarField1(grid, field1.u, field1.du)
    else:  # pragma: no cover - kinds are validated upstream
        raise ValidationError([f"unsupported initial kind '{ic.kind}'"])

    report = check_membership(field1, cfg.tolerances.tail_tol)
    if not report.ok:
        raise AdmissibilityError(
            "initial data violates admissibility condition(s): "
            + ", ".join(report.failures()))
    return field1
