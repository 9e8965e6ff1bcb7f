"""Run configuration: a nested key-value JSON file with strict validation.

The section dataclasses below are the schema.  Each section is a field of
SimConfig and each key a field of its section's class: the field's name is
the key, its annotation the JSON type, and a field without a default is
required (grid, time.t_end and initial.kind).  Unknown or duplicate keys are
parse errors.  Missing keys and wrong types are collected and reported
together, and then, for a well-typed file, every invariant violation.
"""

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields

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
# Largest grid.n: at 2**22 nodes every flat (4, n) state is already 128 MiB
MAX_GRID_N = 2 ** 22


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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _to_float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range, like 1e400
        return math.inf if value > 0 else -math.inf


# Field annotation -> (accepts the JSON value, converts it or None, what it
# must be).  An int key's value that is no number is reported as such.
_TYPES = {
    float: (_is_number, _to_float, "a number"),
    int: (_is_integer, int, "an integer"),
    bool: (lambda v: isinstance(v, bool), None, "a boolean"),
    str: (lambda v: isinstance(v, str), None, "a string"),
    str | None: (lambda v: v is None or isinstance(v, str), None, "a string"),
    list[str]: (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
                None, "a list of strings"),
}


def _required(f) -> bool:
    return f.default is MISSING and f.default_factory is MISSING


def config_from_dict(raw: dict) -> SimConfig:
    """Build a SimConfig from nested dictionaries, rejecting unknown keys.

    The section dataclasses are the schema: a field's name is its key, its
    annotation its type, and a field without a default is required.
    """
    sections = {f.name: f for f in fields(SimConfig)}
    for name in raw:
        if name not in sections:
            raise ParseError(f"unknown section '{name}'")
    problems: list[str] = []
    parsed = {}
    for name, section in sections.items():
        if name not in raw:
            if _required(section):
                problems.append(f"missing section '{name}'")
            continue
        body = raw[name]
        if not isinstance(body, dict):
            raise ParseError(f"section '{name}' must be an object")
        keys = {f.name: f for f in fields(section.type)}
        for key in body:
            if key not in keys:
                raise ParseError(f"unknown key '{name}.{key}'")
        values = parsed[name] = {}
        for key, f in keys.items():
            if key not in body:
                if _required(f):
                    problems.append(f"missing key '{name}.{key}'")
                continue
            accepts, convert, what = _TYPES[f.type]
            if accepts(body[key]):
                values[key] = body[key] if convert is None else convert(body[key])
            else:
                if f.type is int and not _is_number(body[key]):
                    what = "a number"
                problems.append(f"{name}.{key} must be {what}")
    if problems:
        raise ValidationError(problems)
    cfg = SimConfig(**{name: sections[name].type(**values)
                       for name, values in parsed.items()})
    _validate(cfg, problems)
    if problems:
        raise ValidationError(problems)
    return cfg


def _validate(cfg: SimConfig, problems: list[str]):
    g, t, i, tol = cfg.grid, cfg.time, cfg.initial, cfg.tolerances
    if not (math.isfinite(g.x_min) and math.isfinite(g.x_max) and g.x_min < g.x_max):
        problems.append("grid.x_min must be finite and < grid.x_max")
    if not 16 <= g.n <= MAX_GRID_N:
        problems.append(f"grid.n must lie in [16, 2**22], got {g.n}")
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
