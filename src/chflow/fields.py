"""Scalar fields with explicit derivative channels on a uniform 1-D grid.

The solver state lives in spaces of C1 functions on the real line that are
square integrable and whose derivative decays at infinity.  On a truncated
domain [x_min, x_max] such a function is carried as paired samples
(u(x_k), u'(x_k)).  The derivative channel is data, not something recomputed
by finite differences: the sup norm of u' is part of the topology the solver
works in, and every operator in the package produces that channel from an
analytic identity.

Two containers are provided:

* ScalarField1 - value + derivative samples (velocity fields, displacements,
  tangent vectors, operator outputs),
* ScalarField0 - value samples only (continuous decaying source terms).

Off-grid evaluation of a ScalarField1 uses cubic Hermite interpolation on the
containing cell, which consumes exactly the (value, derivative) pairs carried
and reproduces cubic polynomials.  Outside the truncated domain every field
is zero by the decay convention; truncation is justified because admissible
data and the exponential kernels used downstream decay at least exponentially
fast relative to the domain margin.

The norm used throughout is

    ||u||_{1,1} = sup|u| + sup|u'| + sqrt( int u^2 + int u'^2 ),

the sum of the C1 and H1 norms, with the integrals evaluated by composite
trapezoid on the grid.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import AdmissibilityError, GridMismatch, ParseError

__all__ = [
    "Grid",
    "ScalarField1",
    "ScalarField0",
    "NormComponents",
    "norm_components",
    "norm_11",
    "require_admissible",
    "write_csv",
    "write_field_csv",
    "read_field_csv",
]

_TAIL_TOL = 1e-8  # bound on both channels at the truncation boundary
_FIELD_HEADER = ["x", "u", "du"]
_CSV_CHUNK = 256


@dataclass(frozen=True)
class Grid:
    """Uniform sampling x_k = x_min + k*h, k = 0 .. n-1."""

    x_min: float
    h: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.h)):
            raise ValueError("grid endpoints must be finite")
        if self.h <= 0:
            raise ValueError(f"grid spacing must be positive, got {self.h}")
        if self.n < 2:
            raise ValueError(f"grid needs at least two samples, got {self.n}")

    @classmethod
    def from_interval(cls, x_min: float, x_max: float, n: int) -> "Grid":
        if not x_min < x_max:
            raise ValueError(f"empty interval [{x_min}, {x_max}]")
        if n < 2:
            raise ValueError(f"grid needs at least two samples, got {n}")
        return cls(x_min, (x_max - x_min) / (n - 1), n)

    @property
    def x_max(self) -> float:
        return self.x_min + self.h * (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        xs = self.x_min + self.h * np.arange(self.n)
        xs.setflags(write=False)
        return xs


def _own_array(values, n: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True).reshape(-1)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have {n} samples, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _trapz(y: np.ndarray, h: float) -> float:
    return h * (y.sum() - 0.5 * (y[0] + y[-1]))


def _locate(grid: Grid, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inside, clipped, cell) of the points x; ValueError for a non-finite one."""
    xa = np.asarray(x, dtype=float)
    if not np.isfinite(xa).all():
        raise ValueError("evaluation points must be finite")
    inside = (xa >= grid.x_min) & (xa <= grid.x_max)
    xc = np.clip(xa, grid.x_min, grid.x_max)
    return inside, xc, np.clip(((xc - grid.x_min) / grid.h).astype(int), 0, grid.n - 2)


def _hermite_eval(grid: Grid, u: np.ndarray, du: np.ndarray, x):
    """Cubic Hermite value/derivative at x; (0, 0) outside the domain."""
    inside, xc, idx = _locate(grid, x)
    h = grid.h
    t = (xc - (grid.x_min + idx * h)) / h
    t2 = t * t
    t3 = t2 * t
    u0, u1 = u[idx], u[idx + 1]
    m0, m1 = du[idx], du[idx + 1]
    val = ((2 * t3 - 3 * t2 + 1) * u0 + (t3 - 2 * t2 + t) * h * m0
           + (-2 * t3 + 3 * t2) * u1 + (t3 - t2) * h * m1)
    der = ((6 * t2 - 6 * t) / h * u0 + (3 * t2 - 4 * t + 1) * m0
           + (6 * t - 6 * t2) / h * u1 + (3 * t2 - 2 * t) * m1)
    return np.where(inside, val, 0.0), np.where(inside, der, 0.0)


@dataclass
class ScalarField1:
    """C1-grade field: value and derivative samples on a shared grid."""

    grid: Grid
    u: np.ndarray
    du: np.ndarray

    def __post_init__(self):
        self.u = _own_array(self.u, self.grid.n, "u")
        self.du = _own_array(self.du, self.grid.n, "du")

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField1":
        z = np.zeros(grid.n)
        return cls(grid, z, z)

    def eval(self, x):
        """Value and derivative, arrays of x's shape (0-d for a scalar x); zero off-domain."""
        return _hermite_eval(self.grid, self.u, self.du, x)

    def _check_same_grid(self, other: "ScalarField1"):
        if self.grid != other.grid:
            raise GridMismatch("fields live on different grids")

    def __add__(self, other: "ScalarField1") -> "ScalarField1":
        self._check_same_grid(other)
        return ScalarField1(self.grid, self.u + other.u, self.du + other.du)

    def __sub__(self, other: "ScalarField1") -> "ScalarField1":
        self._check_same_grid(other)
        return ScalarField1(self.grid, self.u - other.u, self.du - other.du)


@dataclass
class ScalarField0:
    """Continuous decaying source term: value samples only."""

    grid: Grid
    g: np.ndarray

    def __post_init__(self):
        self.g = _own_array(self.g, self.grid.n, "g")


class NormComponents(NamedTuple):
    sup_u: float
    sup_du: float
    l2_u: float
    l2_du: float


def norm_components(f: ScalarField1) -> NormComponents:
    """Sup norms of both channels and trapezoidal L2 norms of both channels."""
    return NormComponents(
        float(np.abs(f.u).max()),
        float(np.abs(f.du).max()),
        float(np.sqrt(_trapz(f.u * f.u, f.grid.h))),
        float(np.sqrt(_trapz(f.du * f.du, f.grid.h))),
    )


def norm_11(f: ScalarField1) -> float:
    """C1 + H1 norm: sup|u| + sup|u'| + sqrt(int u^2 + int u'^2)."""
    c = norm_components(f)
    return c.sup_u + c.sup_du + float(np.hypot(c.l2_u, c.l2_du))


def require_admissible(f: ScalarField1) -> None:
    """Raise AdmissibilityError unless f is admissible C1 + H1 data on this grid.

    It names each failed condition: l2_norms_finite (overflow breaks it) and
    boundary_decay (both channels within _TAIL_TOL at the truncation boundary,
    the grid surrogate for vanishing at infinity).  The C1 bound is always
    finite, since a ScalarField1 holds only finite samples.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = norm_components(f)  # overflow here is the l2_norms_finite failure
    failed = []
    if not np.isfinite([c.l2_u, c.l2_du]).all():
        failed.append("l2_norms_finite")
    if not max(abs(f.u[0]), abs(f.u[-1]), abs(f.du[0]), abs(f.du[-1])) <= _TAIL_TOL:
        failed.append("boundary_decay")
    if failed:
        raise AdmissibilityError(
            "initial data violates admissibility condition(s): " + ", ".join(failed))


def write_csv(path, header, columns) -> None:
    """Write equal-length columns as CSV, every value with 17 significant digits.

    The bytes are those of the csv module (rows ended by \\r\\n) writing each
    value formatted as %.17g, without its per-row overhead: one % formats
    each chunk of _CSV_CHUNK rows, so no string of the whole file is built.
    """
    line = ",".join(["%.17g"] * len(columns)) + "\r\n"
    rows = np.column_stack(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(rows), _CSV_CHUNK):
            chunk = rows[i:i + _CSV_CHUNK]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def write_field_csv(f: ScalarField1, path) -> None:
    """Serialize as x,u,du CSV with 17 significant digits per value;
    read_field_csv(path, f.grid) reads it back bit for bit."""
    write_csv(path, _FIELD_HEADER, [f.grid.x, f.u, f.du])


def read_field_csv(path, grid: Grid) -> ScalarField1:
    """Read a UTF-8 field CSV (a leading byte-order mark allowed) sampled on grid.

    The file must hold grid.n data rows, each x within 1e-9 * max(1, |x_k|)
    of its node x_k; the field comes back on grid itself.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # a field past csv's size limit
        raise ParseError(f"{path}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: empty file")
    if [c.strip() for c in rows[0]] != _FIELD_HEADER:
        raise ParseError(f"{path}: expected columns {','.join(_FIELD_HEADER)}, "
                         f"got {','.join(rows[0])}")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError(f"{path}: line {line} has {len(row)} columns, not 3")
    if len(rows) - 1 != grid.n:
        raise ParseError(f"{path}: {len(rows) - 1} data rows, but the grid has {grid.n} nodes")
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric entry ({exc})") from None
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise ParseError(f"{path}: line {int(bad.argmax()) + 2} holds a non-finite entry")
    off = np.abs(data[:, 0] - grid.x) > 1e-9 * np.maximum(1.0, np.abs(grid.x))
    if off.any():
        k = int(off.argmax())
        raise ParseError(f"{path}: line {k + 2} has x = {data[k, 0]:.17g}, "
                         f"off the grid node {grid.x[k]:.17g}")
    return ScalarField1(grid, data[:, 1], data[:, 2])
