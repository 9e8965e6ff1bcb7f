import numpy as np
import pytest

from chflow import Grid, ScalarField0, ScalarField1
from chflow.errors import GridMismatch
from chflow.fields import _trapz


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


@pytest.fixture
def grid20() -> Grid:
    return Grid.from_interval(-20.0, 20.0, 1025)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
