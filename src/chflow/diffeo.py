"""The group of C1 + H1 diffeomorphisms of the truncated line.

An element is written eta = id + v through the global chart v = eta - id,
where the displacement v is a ScalarField1 whose derivative stays strictly
above -1.  The cached slope bounds

    a = 1 + min v',     b = 1 + max v'      (0 < a <= eta' <= b)

certify that eta is an increasing C1 bijection and drive every stability
estimate downstream (operator bounds, inversion, composition).  Outside the
truncated domain v vanishes, so eta continues as the identity.

Operations: construction from a displacement, composition of a field or a
diffeomorphism with a diffeomorphism, inversion by monotone Newton on each
target's cell cubic with a bisection fallback, and the group distance
||eta - xi||_{1,1}.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .errors import ChartViolation, ConvergenceFailure, GridMismatch
from .fields import Grid, ScalarField1, norm_11

__all__ = [
    "Diffeo",
    "comp1",
    "comp2",
    "invert",
    "distance",
]

DEFAULT_EPS_CHART = 1e-10
DEFAULT_INV_TOL = 1e-12


def _chart_margin(dv: np.ndarray, gaps: np.ndarray, h: float) -> float:
    """Chart margin min(1 + min v', min gap / h) of id + v, gaps those of x_k + v_k.

    Both slope estimates must stay positive: the derivative channel is carried
    apart from the values, and the scans and inversion need increasing nodes.
    """
    return float(np.minimum(1.0 + dv.min(), gaps.min() / h))


class Diffeo:
    """Increasing C1 bijection eta = id + v with cached slope bounds (a, b)."""

    __slots__ = ("v", "a", "b")

    def __init__(self, v: ScalarField1):
        m = v.grid.x + v.u
        margin = _chart_margin(v.du, m[1:] - m[:-1], v.grid.h)
        if not margin > DEFAULT_EPS_CHART:
            raise ChartViolation(f"chart margin {margin:.6g} <= {DEFAULT_EPS_CHART:g}: "
                                 "the map is not a diffeomorphism", min_slope=margin)
        self.v = v
        self.a = 1.0 + float(v.du.min())
        self.b = 1.0 + float(v.du.max())

    @classmethod
    def identity(cls, grid: Grid) -> "Diffeo":
        return cls(ScalarField1.zeros(grid))

    @property
    def grid(self) -> Grid:
        return self.v.grid

    def values(self) -> np.ndarray:
        """eta at the grid nodes."""
        return self.grid.x + self.v.u

    def slopes(self) -> np.ndarray:
        """eta' at the grid nodes."""
        return 1.0 + self.v.du

    def eval(self, x):
        """(eta(x), eta'(x)); the identity continuation applies off-domain."""
        val, der = self.v.eval(x)
        return np.asarray(x, dtype=float) + val, 1.0 + der

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Diffeo(n={self.grid.n}, a={self.a:.6g}, b={self.b:.6g})"


def comp1(f: ScalarField1, eta: Diffeo) -> ScalarField1:
    """f composed with eta: values f(eta(x_k)), derivatives f'(eta(x_k)) eta'(x_k)."""
    if f.grid != eta.grid:
        raise GridMismatch("field and diffeomorphism live on different grids")
    val, der = f.eval(eta.values())
    return ScalarField1(f.grid, val, der * eta.slopes())


def comp2(zeta: Diffeo, eta: Diffeo) -> Diffeo:
    """The composition zeta o eta via displacements: (zeta - id) o eta + (eta - id)."""
    if zeta.grid != eta.grid:
        raise GridMismatch("diffeomorphisms live on different grids")
    return Diffeo(comp1(zeta.v, eta) + eta.v)


def invert(eta: Diffeo, tol: float = DEFAULT_INV_TOL, max_iter: int = 80,
           tally: Counter | None = None) -> Diffeo:
    """The inverse diffeomorphism xi with eta(xi(x_k)) = x_k to tolerance tol.

    A single monotone sweep (searchsorted against the node values of eta)
    brackets each target in the range of eta in one grid cell; vectorized Newton
    iterations on the cells' cubic Hermite coefficients (by Horner) run inside
    the brackets, with bisection whenever a step leaves its bracket.  Targets
    off that range are pinned at xi = x.  The derivative channel is set
    analytically to 1 / eta'(xi(x_k)), never by numerical differentiation.
    tally, when given, counts the Newton sweeps ("iterations") and the targets
    whose step was a bisection ("bisections").
    """
    grid = eta.grid
    x, h = grid.x, grid.h
    nodes = eta.values()
    inside = (x > nodes[0]) & (x < nodes[-1])
    y = x[inside]
    c = np.searchsorted(nodes, y) - 1
    xc = x[c]
    lo, hi = xc, x[c + 1]
    # eta(x_c + t h) - y = ((a3 t + a2) t + a1) t + a0 on the cell, t in [0, 1]
    u0, u1, m0, m1 = eta.v.u[c], eta.v.u[c + 1], h * eta.v.du[c], h * eta.v.du[c + 1]
    a0, a1 = u0 + (xc - y), h + m0
    a2, a3 = 3.0 * (u1 - u0) - 2.0 * m0 - m1, 2.0 * (u0 - u1) + m0 + m1
    b1, b2, b3 = a1 / h, 2.0 * a2 / h, 3.0 * a3 / h
    xi = np.clip(y - eta.v.u[inside], lo, hi)  # y - v(y): the targets are nodes
    residual = np.inf
    tally = Counter() if tally is None else tally
    for _ in range(max_iter):
        t = (xi - xc) / h
        r = ((a3 * t + a2) * t + a1) * t + a0
        residual = float(np.abs(r).max(initial=0.0))
        if residual <= tol:
            break
        hi = np.where(r > 0, np.minimum(hi, xi), hi)
        lo = np.where(r < 0, np.maximum(lo, xi), lo)
        der = (b3 * t + b2) * t + b1
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = xi - r / der
        newton = (der > 0) & (cand >= lo) & (cand <= hi)
        xi = np.where(newton, cand, 0.5 * (lo + hi))
        tally["iterations"] += 1
        tally["bisections"] += xi.size - int(np.count_nonzero(newton))
    else:
        raise ConvergenceFailure(
            f"inversion stalled at residual {residual:.3g} (tol {tol:g}); "
            "input looks corrupted")

    full = x.copy()
    full[inside] = xi
    _, der = eta.eval(full)
    der = np.where(inside, der, 1.0)
    if der.min() <= 0:
        raise ConvergenceFailure("interpolated slope lost positivity during inversion")
    return Diffeo(ScalarField1(grid, full - x, 1.0 / der - 1.0))


def distance(eta: Diffeo, zeta: Diffeo) -> float:
    """Group distance D(eta, zeta) = ||eta - zeta||_{1,1} via the displacements."""
    if eta.grid != zeta.grid:
        raise GridMismatch("diffeomorphisms live on different grids")
    return norm_11(eta.v - zeta.v)
