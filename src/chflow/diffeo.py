"""The group of C1 + H1 diffeomorphisms of the truncated line.

An element is written eta = id + v through the global chart v = eta - id,
where the displacement v is a ScalarField1 whose derivative stays strictly
above -1.  The cached slope bounds

    a = 1 + min v',     b = 1 + max v'      (0 < a <= eta' <= b)

certify that eta is an increasing C1 bijection and drive every stability
estimate downstream (operator bounds, inversion, composition).  Outside the
truncated domain v vanishes, so eta continues as the identity.

Operations: construction from a displacement, composition of a field or a
diffeomorphism with a diffeomorphism, inversion by monotone Newton with a
bisection fallback, and the group distance ||eta - xi||_{1,1}.
"""

from __future__ import annotations

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

    def __init__(self, v: ScalarField1, *, eps_chart: float = DEFAULT_EPS_CHART):
        m = v.grid.x + v.u
        margin = _chart_margin(v.du, m[1:] - m[:-1], v.grid.h)
        if not margin > eps_chart:
            raise ChartViolation(f"chart margin {margin:.6g} <= {eps_chart:g}: "
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
    val, der = zeta.v.eval(eta.values())
    disp = ScalarField1(eta.grid, val + eta.v.u, der * eta.slopes() + eta.v.du)
    return Diffeo(disp)


def invert(eta: Diffeo, tol: float = DEFAULT_INV_TOL, max_iter: int = 80) -> Diffeo:
    """The inverse diffeomorphism xi with eta(xi(x_k)) = x_k to tolerance tol.

    A single monotone sweep (searchsorted against the node values of eta)
    brackets every root inside one grid cell; vectorized Newton iterations
    then run inside those brackets with bisection whenever a Newton step
    leaves its bracket.  The derivative channel is set analytically to
    1 / eta'(xi(x_k)), never by numerical differentiation.
    """
    grid = eta.grid
    x = grid.x
    nodes = eta.values()

    j = np.searchsorted(nodes, x)
    lo = x[np.clip(j - 1, 0, grid.n - 1)].copy()
    hi = x[np.clip(j, 0, grid.n - 1)].copy()
    # Targets beyond the range of eta on the grid belong to the identity
    # continuation outside the domain.
    left_out = x <= nodes[0]
    right_out = x >= nodes[-1]
    outside = left_out | right_out
    lo[outside] = x[outside]
    hi[outside] = x[outside]

    xi = np.clip(x - eta.v.eval(x)[0], lo, hi)
    residual = np.inf
    for _ in range(max_iter):
        val, der = eta.eval(xi)
        # pinned targets off the range of eta do not count: eta(x_0) - x_0 = v_0
        r = np.where(outside, 0.0, val - x)
        residual = float(np.abs(r).max())
        if residual <= tol:
            break
        hi = np.where(r > 0, np.minimum(hi, xi), hi)
        lo = np.where(r < 0, np.maximum(lo, xi), lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = r / der
        cand = xi - step
        bad = ~np.isfinite(cand) | (cand < lo) | (cand > hi) | (der <= 0)
        xi = np.where(bad, 0.5 * (lo + hi), cand)
    else:
        raise ConvergenceFailure(
            f"inversion stalled at residual {residual:.3g} (tol {tol:g}); "
            "input looks corrupted")

    _, der = eta.eval(xi)
    xi = np.where(outside, x, xi)
    der = np.where(outside, 1.0, der)
    if der.min() <= 0:
        raise ConvergenceFailure("interpolated slope lost positivity during inversion")
    return Diffeo(ScalarField1(grid, xi - x, 1.0 / der - 1.0))


def distance(eta: Diffeo, zeta: Diffeo) -> float:
    """Group distance D(eta, zeta) = ||eta - zeta||_{1,1} via the displacements."""
    if eta.grid != zeta.grid:
        raise GridMismatch("diffeomorphisms live on different grids")
    return norm_11(eta.v - zeta.v)
