"""Randomized verification suites for the operator and group estimates.

These drive the `check-operators` and `check-group` subcommands and the
property tests.  Instances are sums of Gaussian bumps with analytic
derivative channels, scaled so displacement slopes stay well inside the
chart; every stated bound is checked with an additive 10 h^2 slack that
budgets quadrature, interpolation, and grid-sampled sup/min bias.

Every random draw is one rng.uniform(low, high) call, so rng may be any
generator with that method: the CLI seeds the standard library's
random.Random, and numpy's Generator serves as well.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from .diffeo import Diffeo, comp1, comp2, distance, invert
from .fields import Grid, ScalarField0, ScalarField1, _trapz, norm_components, norm_11
from .operators import _l_eta_arrays, _scan_plan
# Unused here; bound so that perfbench/tracer.py can patch it in this module.
from .operators import l_eta_direct  # noqa: F401

__all__ = [
    "BoundCheck",
    "random_bump_field1",
    "random_bump_field0",
    "random_bump_diffeo",
    "operator_bound_suite",
    "group_suite",
]


class Uniform(Protocol):
    """A random generator drawing uniform(low, high) floats."""

    def uniform(self, low: float, high: float) -> float: ...


class BoundCheck:
    """One verified inequality: the sample with the largest measured/allowed ratio.

    Both values read 0 until the first update.  A sample with a NaN in
    either value is kept from then on, so the check fails.
    """

    def __init__(self, name: str):
        self.name = name
        self.measured = self.allowed = 0.0

    def update(self, measured: float, allowed: float):
        if math.isnan(self.measured) or math.isnan(self.allowed):
            return
        if (self.allowed == 0.0 or math.isnan(measured) or math.isnan(allowed)
                or measured * self.allowed > self.measured * allowed):
            self.measured, self.allowed = measured, allowed

    @property
    def ratio(self) -> float:
        return self.measured / self.allowed if self.allowed > 0 else float("inf")

    @property
    def passed(self) -> bool:
        return self.measured <= self.allowed


def _gaussian_sum(grid: Grid, rng: Uniform, amps: float = 1.0,
                  centers: tuple[float, float] = (-5.0, 5.0),
                  widths: tuple[float, float] = (0.8, 2.5)) -> tuple[np.ndarray, np.ndarray]:
    x = grid.x
    u = np.zeros(grid.n)
    du = np.zeros(grid.n)
    for _ in range(3):
        a = rng.uniform(-amps, amps)
        c = rng.uniform(*centers)
        w = rng.uniform(*widths)
        z = (x - c) / w
        bump = a * np.exp(-z * z)
        u += bump
        du += -2.0 * z / w * bump
    return u, du


def random_bump_field1(grid: Grid, rng: Uniform, *,
                       max_slope: float | None = None) -> ScalarField1:
    """Sum of three random Gaussian bumps with exact derivative samples."""
    u, du = _gaussian_sum(grid, rng)
    if max_slope is not None:
        peak = np.abs(du).max()
        if peak > 0:
            scale = max_slope * rng.uniform(0.3, 1.0) / peak
            u, du = u * scale, du * scale
    return ScalarField1(grid, u, du)


def random_bump_field0(grid: Grid, rng: Uniform, *, amps: float = 1.0,
                       centers: tuple[float, float] = (-5.0, 5.0),
                       widths: tuple[float, float] = (0.8, 2.5)) -> ScalarField0:
    u, _ = _gaussian_sum(grid, rng, amps, centers, widths)
    return ScalarField0(grid, u)


def random_bump_diffeo(grid: Grid, rng: Uniform, *,
                       max_slope: float = 0.5) -> Diffeo:
    """Smooth random diffeomorphism with ||v'||_inf <= max_slope < 1."""
    return Diffeo(random_bump_field1(grid, rng, max_slope=max_slope))


def operator_bound_suite(grid: Grid, samples: int,
                         rng: Uniform) -> list[BoundCheck]:
    """Check boundedness and linearity of the conjugated smoothing operator.

    Over random (phi, eta):

        ||f||_inf   <= (b/a) ||phi||_inf        + 10 h^2,
        ||f'||_inf  <= (b^2/a + b) ||phi||_inf  + 10 h^2,
        ||f||_H1    <= (sqrt(b/a) + b) ||phi||_L2 + 10 h^2,
        linearity to 1e-12,

    reporting the worst measured/allowed pair over the batch.  f = l_eta_direct(phi,
    eta), formed on the one scan plan along eta that phi2 and the combination share.
    """
    slack = 10.0 * grid.h ** 2
    h = grid.h
    worst = {k: BoundCheck(k) for k in ("sup_bound", "deriv_bound", "h1_bound", "linearity")}
    for _ in range(samples):
        eta = random_bump_diffeo(grid, rng)
        phi = random_bump_field0(grid, rng)
        plan, slopes = _scan_plan(eta.values()), eta.slopes()
        f = ScalarField1(grid, *_l_eta_arrays(plan, slopes, phi.g, h, 2))
        a, b = eta.a, eta.b
        sup_phi = float(np.abs(phi.g).max())
        l2_phi = float(np.sqrt(_trapz(phi.g ** 2, h)))
        c = norm_components(f)
        h1 = float(np.hypot(c.l2_u, c.l2_du))
        worst["sup_bound"].update(c.sup_u, (b / a) * sup_phi + slack)
        worst["deriv_bound"].update(c.sup_du, (b * b / a + b) * sup_phi + slack)
        worst["h1_bound"].update(h1, (np.sqrt(b / a) + b) * l2_phi + slack)
        phi2 = random_bump_field0(grid, rng)
        al, be = rng.uniform(-2, 2), rng.uniform(-2, 2)
        combo = _l_eta_arrays(plan, slopes, al * phi.g + be * phi2.g, h, 2)
        f2 = _l_eta_arrays(plan, slopes, phi2.g, h, 2)
        lin = max(float(np.abs(combo[0] - al * f.u - be * f2[0]).max()),
                  float(np.abs(combo[1] - al * f.du - be * f2[1]).max()))
        worst["linearity"].update(lin, 1e-12)
    return list(worst.values())


def _close_pair(grid: Grid, rng: Uniform) -> tuple[Diffeo, Diffeo]:
    eta1 = random_bump_diffeo(grid, rng, max_slope=0.45)
    pert = random_bump_field1(grid, rng, max_slope=rng.uniform(0.002, 0.05))
    return eta1, Diffeo(eta1.v + pert)


def group_suite(grid: Grid, samples: int, rng: Uniform) -> list[BoundCheck]:
    """Group axioms and continuity estimates on random smooth diffeomorphisms.

    Identity and inverse round trips and associativity in ||.||_{1,1} within
    10 h^2; inversion stability in sup and L2 norms against the slope bounds
    of the base map; the composition sup bound C_1 rho + sigma; slope bounds
    of the inverse inside [1/b, 1/a].
    """
    slack = 10.0 * grid.h ** 2
    ident = Diffeo.identity(grid)
    worst = {k: BoundCheck(k) for k in (
        "identity_roundtrip", "associativity", "inverse_roundtrip",
        "chain_rule_identity", "inversion_stability_sup", "inversion_stability_l2",
        "inverse_slope_bounds", "composition_sup_bound")}

    for _ in range(max(3, samples // 10)):
        eta = random_bump_diffeo(grid, rng)
        beta = random_bump_diffeo(grid, rng)
        gam = random_bump_diffeo(grid, rng)
        worst["identity_roundtrip"].update(
            max(distance(comp2(ident, eta), eta), distance(comp2(eta, ident), eta)),
            slack)
        worst["associativity"].update(
            distance(comp2(comp2(eta, beta), gam), comp2(eta, comp2(beta, gam))),
            slack)
        xi = invert(eta)
        worst["inverse_roundtrip"].update(
            max(distance(comp2(xi, eta), ident), distance(comp2(eta, xi), ident)),
            slack)
        slopes_eta_at_xi = eta.eval(grid.x + xi.v.u)[1]
        worst["chain_rule_identity"].update(
            float(np.abs((1.0 + xi.v.du) * slopes_eta_at_xi - 1.0).max()), 1e-12)

    for _ in range(samples):
        eta1, eta2 = _close_pair(grid, rng)
        rho = distance(eta1, eta2)
        xi1, xi2 = invert(eta1), invert(eta2)
        diff = xi1.v - xi2.v
        a1, b1 = eta1.a, eta1.b
        worst["inversion_stability_sup"].update(
            float(np.abs(diff.u).max()), rho / a1 + slack)
        worst["inversion_stability_l2"].update(
            norm_components(diff).l2_u, np.sqrt(b1 + rho) * rho / a1 + slack)
        lo, hi = 1.0 + xi1.v.du.min(), 1.0 + xi1.v.du.max()
        worst["inverse_slope_bounds"].update(
            max(1.0 / b1 - lo, hi - 1.0 / a1, 0.0), slack)

    for _ in range(samples):
        eta1, eta2 = _close_pair(grid, rng)
        phi1 = random_bump_field1(grid, rng)
        phi2 = phi1 + random_bump_field1(grid, rng, max_slope=0.05)
        rho = distance(eta1, eta2)
        sigma = norm_11(phi1 - phi2)
        c1 = float(np.abs(phi1.du).max())
        gap = float(np.abs(comp1(phi1, eta1).u - comp1(phi2, eta2).u).max())
        worst["composition_sup_bound"].update(gap, c1 * rho + sigma + slack)

    return list(worst.values())
