import numpy as np
import pytest

from chflow import Diffeo, Grid, ScalarField0, ScalarField1, comp1, invert, l_op
from chflow.errors import GridMismatch
from chflow.fields import _locate, _trapz
from chflow.operators import _scan_plan, _scan_sd


def gaussian_field(grid: Grid, amp: float = 1.0, center: float = 0.0,
                   width: float = 1.0) -> ScalarField1:
    z = (grid.x - center) / width
    u = amp * np.exp(-z * z)
    return ScalarField1(grid, u, -2.0 * z / width * u)


def antisymmetric_field(grid: Grid, amp: float = 1.0, center: float = 0.0,
                        width: float = 1.0) -> ScalarField1:
    z = (grid.x - center) / width
    bump = np.exp(-z * z)
    return ScalarField1(grid, amp * (grid.x - center) * bump,
                        amp * (1.0 - 2.0 * z * z) * bump)


def gaussian_source(grid: Grid, amp: float = 1.0, center: float = 0.0,
                    width: float = 1.0) -> ScalarField0:
    z = (grid.x - center) / width
    return ScalarField0(grid, amp * np.exp(-z * z))


def conserved_quantities(u: ScalarField1) -> tuple[float, float]:
    """(H1 energy int u^2 + u_x^2 dx, momentum int u dx) by trapezoid."""
    h = u.grid.h
    return float(_trapz(u.u ** 2 + u.du ** 2, h)), float(_trapz(u.u, h))


def derivative_consistency(f: ScalarField1) -> float:
    """Max deviation between the derivative channel and centered differences.

    Diagnostic only: O(h^2) for smooth consistent fields.  Boundary nodes use
    one-sided second-order stencils.
    """
    fd = np.gradient(f.u, f.grid.h, edge_order=2)
    return float(np.abs(fd - f.du).max())


def reflect(f: ScalarField1) -> ScalarField1:
    """The field x -> -f(-x); requires a symmetric grid."""
    grid = f.grid
    if not abs(grid.x_min + grid.x_max) <= 1e-12 * (grid.x_max - grid.x_min):
        raise GridMismatch("reflection needs a grid symmetric about zero")
    return ScalarField1(f.grid, -f.u[::-1], f.du[::-1])


def l_eta_conjugated(phi: ScalarField0, eta: Diffeo) -> ScalarField1:
    """The conjugation identity L(phi o eta^(-1)) o eta computed literally.

    Inverts eta by diffeo.invert, resamples phi along the inverse by cubic
    Lagrange interpolation (zero outside the grid), applies l_op with the
    order-2 cell rule, and composes back.  An independent discretization
    that cross-checks operators.l_eta_direct; the two agree at the
    quadrature/interpolation error level.
    """
    grid, g = phi.grid, phi.g
    inside, xc, cell = _locate(grid, invert(eta).values())
    base = np.clip(cell - 1, 0, grid.n - 4)
    s = (xc - (grid.x_min + base * grid.h)) / grid.h
    val = (-(s - 1) * (s - 2) * (s - 3) / 6.0 * g[base]
           + s * (s - 2) * (s - 3) / 2.0 * g[base + 1]
           - s * (s - 1) * (s - 3) / 2.0 * g[base + 2]
           + s * (s - 1) * (s - 2) / 6.0 * g[base + 3])
    return comp1(l_op(ScalarField0(grid, np.where(inside, val, 0.0))), eta)


def gateaux_df(phi: ScalarField0, eta: Diffeo, rho: ScalarField1) -> ScalarField1:
    """Directional derivative of (phi, eta) -> l_eta_direct(phi, eta) in eta.

    With G the derivative in direction rho,

        G(x) = 1/2 int_{-inf}^x exp(eta(y)-eta(x)) phi(y)
                   (rho(x) eta'(y) - rho(y) eta'(y) - rho'(y)) dy
             + 1/2 int_x^{inf}   exp(eta(x)-eta(y)) phi(y)
                   (rho(x) eta'(y) - rho(y) eta'(y) + rho'(y)) dy,

    assembled as rho S_1 - S_2 + D_3 from three scans with weights phi*eta',
    phi*rho*eta', phi*rho'.
    Sharing the per-cell rule with l_eta_direct makes this the exact
    derivative of the discrete operator, not merely a consistent one, so
    central differences of l_eta_direct converge to it at O(eps^2) with no
    grid floor.  The derivative channel is a centered-difference diagnostic.
    """
    grid = phi.grid
    plan = _scan_plan(eta.values())
    slopes = eta.slopes()
    w1 = phi.g * slopes
    S1, _ = _scan_sd(plan, w1, grid.h)
    S2, _ = _scan_sd(plan, rho.u * w1, grid.h)
    _, D3 = _scan_sd(plan, phi.g * rho.du, grid.h)
    value = rho.u * S1 - S2 + D3
    return ScalarField1(grid, value, np.gradient(value, grid.h, edge_order=2))


@pytest.fixture
def grid20() -> Grid:
    return Grid.from_interval(-20.0, 20.0, 1025)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
