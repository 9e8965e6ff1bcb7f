"""Run configuration: a nested key-value JSON file with strict validation.

The section dataclasses below are the schema.  Each section is a field of
SimConfig and each key a field of its section's class: the field's name is
the key, its annotation the JSON type, and a field without a default is
required (every section, the grid keys, time.t_end and initial.kind).  A
file that is not UTF-8 JSON, and unknown or duplicate keys, are parse errors.
Missing keys and wrong types are collected and reported together, and then,
for a well-typed file, every invariant violation.  Each rule has one owner,
which _validate asks: Grid for the grid (a finite, positive spacing),
lagrangian._time_problems for the time loop, and make_initial, after
validation, for the initial data.
"""

import json
import math
import os
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import AdmissibilityError, ParseError, ValidationError
from .fields import Grid, ScalarField0, ScalarField1, read_field_csv
from .lagrangian import DEFAULT_RECORD_EVERY, _time_problems
from .operators import inv_helmholtz

__all__ = [
    "GridConfig",
    "TimeConfig",
    "InitialConfig",
    "SimConfig",
    "load_config",
    "config_from_dict",
    "make_initial",
]

INITIAL_KINDS = ("gaussian", "antisymmetric_gaussian", "momentum_gaussian", "custom_csv")
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
    """lagrangian.integrate's keywords other than quad_order, passed as asdict(time)."""
    t_end: float
    dt: float = 1e-3
    record_every: int = DEFAULT_RECORD_EVERY
    adaptive: bool = False


@dataclass
class InitialConfig:
    kind: str
    amplitude: float = 1.0
    center: float = 0.0
    width: float = 1.0
    path: str | None = None


@dataclass
class SimConfig:
    grid: GridConfig
    time: TimeConfig
    initial: InitialConfig


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ParseError(f"duplicate key '{key}'")
        seen[key] = value
    return seen


def load_config(path) -> SimConfig:
    """Parse and validate a UTF-8 configuration file, a leading byte-order mark
    allowed; a relative initial.path is joined to the file's directory."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh, object_pairs_hook=_reject_duplicates)
    except FileNotFoundError:
        raise ParseError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except RecursionError:
        raise ParseError(f"{path}: nested too deeply to parse") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    cfg = config_from_dict(raw)
    if cfg.initial.path is not None:  # join keeps an absolute path as it is
        cfg.initial.path = os.path.join(os.path.dirname(os.path.abspath(path)), cfg.initial.path)
    return cfg


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
}


def _required(f) -> bool:
    return f.default is MISSING


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
    """Append to problems every invariant cfg violates.

    The grid rules are Grid's, asked by building the grid; an n beyond
    MAX_GRID_N gets only the range message, as no grid is built for it.  The
    time rules come from lagrangian._time_problems, prefixed with 'time.'.
    """
    g, t, i = cfg.grid, cfg.time, cfg.initial
    if g.n <= MAX_GRID_N:
        try:
            g.build()
        except ValueError as exc:
            problems.append(f"grid.x_min, grid.x_max and grid.n give no grid: {exc}")
    if not 16 <= g.n <= MAX_GRID_N:
        problems.append(f"grid.n must lie in [16, 2**22], got {g.n}")
    problems += [f"time.{p}" for p in _time_problems(t.t_end, t.dt, t.record_every)]
    if i.kind not in INITIAL_KINDS:
        problems.append(f"initial.kind must be one of {INITIAL_KINDS}, got '{i.kind}'")
    if not (math.isfinite(i.amplitude) and math.isfinite(i.center)):
        problems.append("initial.amplitude and initial.center must be finite")
    if not (math.isfinite(i.width) and i.width > 0):
        problems.append(f"initial.width must be > 0, got {i.width}")
    if i.kind == "custom_csv" and not i.path:
        problems.append("initial.path is required for kind 'custom_csv'")


def make_initial(cfg: SimConfig) -> ScalarField1:
    """Construct the initial velocity field.

    A custom_csv file is read first, from initial.path as given, and must
    provide both channels on the configured grid, which read_field_csv
    checks.  The analytic kinds share one bump exp(-z^2), z = (x - x0)/w,
    with exact derivative channels (momentum_gaussian's from inv_helmholtz's
    kernel identity).  Data of any kind that cannot be built is an
    AdmissibilityError("initial data rejected: ..."): a file that
    read_field_csv refuses (ParseError), or samples that overflow to inf or
    nan, which ScalarField1 refuses (ValueError; numpy's warnings are off
    while the field is built).  The solver the field is given to, integrate
    or integrate_eulerian, checks its admissibility once per run.
    """
    grid = cfg.grid.build()
    ic = cfg.initial
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if ic.kind == "custom_csv":
                return read_field_csv(ic.path, grid)
            z = (grid.x - ic.center) / ic.width
            bump = np.exp(-z * z)
            if ic.kind == "gaussian":
                u = ic.amplitude * bump
                return ScalarField1(grid, u, -2.0 * z / ic.width * u)
            if ic.kind == "antisymmetric_gaussian":
                return ScalarField1(grid, ic.amplitude * (grid.x - ic.center) * bump,
                                    ic.amplitude * (1.0 - 2.0 * z * z) * bump)
            if ic.kind == "momentum_gaussian":
                # u0 = (1 - d_xx)^(-1) m0 for the momentum density m0 = u0 - u0''
                return inv_helmholtz(ScalarField0(grid, ic.amplitude * bump))
    except (ParseError, ValueError) as exc:
        raise AdmissibilityError(f"initial data rejected: {exc}") from None
    # Reached only by a SimConfig built without config_from_dict's validation
    raise ValidationError([f"unsupported initial kind '{ic.kind}'"])
