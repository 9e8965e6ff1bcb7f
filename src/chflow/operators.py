"""Nonlocal smoothing operators built from exponential-kernel prefix scans.

Everything here reduces to two directional accumulators over the grid,

    A_k ~ integral_{x_0}^{x_k}   exp(m(y) - m_k) w(y) dy,
    B_k ~ integral_{x_k}^{x_end} exp(m_k - m(y)) w(y) dy,

where m is either the identity (m = x) or an increasing flow map evaluated at
the nodes.  Both are linear recurrences, A_{k+1} = exp(-(m_{k+1} - m_k)) A_k
+ r_k, and are evaluated without a loop over nodes, in O(n) per direction.

Blocked form.  The nodes are cut into blocks of W = min(n, floor(_SPAN / g) + 1)
consecutive nodes, g the largest gap m_{j+1} - m_j and _SPAN = 8, so a block
spans at most _SPAN; the last block is padded with copies of the last node
of zero weight.  Inside a block anchored at its first node s the left
accumulator is

    A_k = exp(-(m_k - m_s)) * (C_s + sum_{s <= j < k} h w_j exp(m_j - m_s)) + q_k,

one cumsum along the rows of a (2, blocks, W + 1) array with a leading zero
column, and the carry C_s into each block follows from the block totals by a
short recurrence over blocks.  B is the same scan on the reversed, negated
positions, its blocks anchored at their last node.  Each exponential has its
argument in [-_SPAN, _SPAN] except the decay factor of the carry, whose
argument is nonpositive, so no domain, however wide or coarse (W = 1), can
overflow.  Rounding stays eps times the kernel-weighted sum of |w|, as for
the node-by-node recurrence; a wider span would add rounding of order
eps * span through the exponent arguments m_j - m_s.

The cell rule is shared by both quadrature orders: node j enters with weight
h w_j, and q is the endpoint term of the rule at the output node, which also
seeds the carry at the first node so that A_0 = B_end = 0.

From the pair (A, B) a single pass yields, without any numerical
differentiation:

* inverse Helmholtz  f = (1 - d_xx)^(-1) g:     f = (A+B)/2,  f' = (B-A)/2,
* its x-derivative   L g = d_x (1 - d_xx)^(-1): value (B-A)/2, derivative
  (A+B)/2 - g  (the operator gains one derivative),
* the flow-conjugated operator  L_eta(phi) = L(phi o eta^(-1)) o eta,
  evaluated directly from eta-weighted scans with derivative channel
  eta' * ((A+B)/2 - phi),
* the directional derivative of (phi, eta) -> L_eta(phi) in eta, assembled
  from three weighted scans; with the shared per-cell rule the assembly is
  the exact algebraic derivative of the discrete direct operator, so central
  finite differences of l_eta_direct converge to it at O(eps^2) with no grid
  floor.

Quadrature: per-cell trapezoid on the weighted integrand with the exponential
factor pulled out per cell (order=2, the default), q = h w / 2.  order=4 adds
the Euler-Maclaurin endpoint correction (h^2/12)(W'_left - W'_right) per cell
with the integrand derivative estimated by centered differences, raising
smooth accuracy to O(h^4); the corrections of adjacent cells cancel at every
interior node and survive only in q.  Integrals are truncated at the grid
boundary; the error is O(exp(-a * margin)) for data supported margin away
from the ends.
"""

from __future__ import annotations

import numpy as np

from .diffeo import Diffeo, invert
from .errors import GridMismatch
from .fields import ScalarField0, ScalarField1

__all__ = [
    "inv_helmholtz",
    "l_op",
    "l_eta_direct",
    "l_eta_conjugated",
    "gateaux_df",
]


# Longest exponent range m_e - m_s over the sources of one scan block.
_SPAN = 8.0


def _decay_scans(m: np.ndarray, g: np.ndarray, carry0: np.ndarray,
                 gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right exponential-decay prefix sums of the rows of g, shape (k, n).

    Returns (L, R), each of shape (k, n), with

        L[:, k] = carry0[:, 0] exp(-(m_k - m_0))   + sum_{j<k} g_j exp(-(m_k - m_j)),
        R[:, k] = carry0[:, 1] exp(-(m_end - m_k)) + sum_{j>k} g_j exp(-(m_j - m_k)),

    gap being the largest m_{j+1} - m_j.  R is the left scan of the reversed,
    negated positions, so one cumsum along the rows of a padded
    (2, blocks, width + 1) array with a leading zero column gives every
    exclusive in-block sum of both directions.
    """
    rows, n = g.shape
    width = n if gap * n <= _SPAN else int(_SPAN / gap) + 1
    blocks = -(-n // width)
    size = blocks * width
    # pad to blocks * width nodes by repeating the last one, with zero weight
    p = np.concatenate((m, np.full(size - n, m[-1])))
    p = np.array((p, -p[::-1])).reshape(2, blocks, width)
    # offsets from each row's first node, in [0, _SPAN]
    e = np.exp(p - p[..., :1])
    z = np.zeros((rows, 2, size))
    np.multiply(g, e.reshape(2, size)[0, :n], out=z[:, 0, :n])
    np.multiply(g[:, ::-1], e.reshape(2, size)[1, size - n:], out=z[:, 1, size - n:])
    s = np.zeros((rows, 2, blocks, width + 1))
    np.add.accumulate(z.reshape(rows, 2, blocks, width), axis=-1, out=s[..., 1:])
    # carries into the blocks: one short recurrence per row and direction
    anchor = p[..., 0]
    decay = np.exp(anchor[:, :-1] - anchor[:, 1:]).tolist()
    totals = s[..., :-1, -1].reshape(2 * rows, blocks - 1).tolist()
    carry = []
    for i, c in enumerate(carry0.ravel().tolist()):
        carry.append(c)
        for f, total in zip(decay[i % 2], totals[i]):
            c = f * (c + total)
            carry.append(c)
    s[..., :-1] += np.reshape(carry, (rows, 2, blocks, 1))
    # / e undoes the anchor offset
    out = np.divide(s[..., :-1], e).reshape(rows, 2, size)
    return out[:, 0, :n], out[:, 1, ::-1][:, :n]


def _scan_pair(positions: np.ndarray, weights: np.ndarray, h: float,
               slopes: np.ndarray | None = None, order: int = 2,
               gaps: np.ndarray | None = None):
    """Left/right exponential-weighted prefix integrals along the last axis of weights.

    weights may be (n,) or a stack (..., n); each row is scanned against the
    same positions, and (A, B) have the shape of weights.  gaps is np.diff(positions).
    """
    n = positions.shape[0]
    d = np.diff(positions) if gaps is None else gaps
    if not (d.min() > 0.0 and np.isfinite(positions[-1] - positions[0])):
        raise ValueError("scan positions must be finite and strictly increasing")
    w = weights.reshape(-1, n)
    q = np.empty((w.shape[0], 2, n))
    if order == 2:
        q[:, 0] = q[:, 1] = (0.5 * h) * w
    elif order == 4:
        # q = h w / 2 - c slopes w -+ c w', w' by second-order differences
        c, f = h * h / 12.0, h / 24.0
        corr = q[:, 1]
        corr[:, 1:-1] = f * (w[:, 2:] - w[:, :-2])
        corr[:, 0] = f * (-3.0 * w[:, 0] + 4.0 * w[:, 1] - w[:, 2])
        corr[:, -1] = f * (3.0 * w[:, -1] - 4.0 * w[:, -2] + w[:, -3])
        mid = w * (0.5 * h - c * (1.0 if slopes is None else slopes))
        np.subtract(mid, corr, out=q[:, 0])
        corr += mid
    else:
        raise ValueError(f"quadrature order must be 2 or 4, got {order}")
    # -q at each direction's first node seeds its carry, so A_0 = B_end = 0
    left, right = _decay_scans(positions, h * w, -q[:, (0, 1), (0, -1)], d.max())
    q[:, 0] += left
    q[:, 1] += right
    q = q.reshape(weights.shape[:-1] + (2, n))
    return q[..., 0, :], q[..., 1, :]


def inv_helmholtz(g: ScalarField0, *, order: int = 2) -> ScalarField1:
    """Solve f - f'' = g with decay at infinity: f(x) = (1/2) int exp(-|x-y|) g(y) dy.

    The derivative channel is the kernel identity f' = L g, evaluated from the
    same accumulators rather than by differencing f.
    """
    grid = g.grid
    A, B = _scan_pair(grid.x, g.g, grid.h, order=order)
    return ScalarField1(grid, 0.5 * (A + B), 0.5 * (B - A))


def l_op(phi: ScalarField0, *, order: int = 2) -> ScalarField1:
    """The smoothing derivative L = d_x (1 - d_xx)^(-1) with exponential kernel.

    Values follow the split-kernel form

        (L phi)(x) = -1/2 exp(-x) int_{-inf}^x exp(y) phi(y) dy
                     +1/2 exp(x)  int_x^{inf}  exp(-y) phi(y) dy,

    and the derivative channel uses d_x L = (1 - d_xx)^(-1) - id.
    """
    grid = phi.grid
    A, B = _scan_pair(grid.x, phi.g, grid.h, order=order)
    return ScalarField1(grid, 0.5 * (B - A), 0.5 * (A + B) - phi.g)


def _l_eta_arrays(m: np.ndarray, slopes: np.ndarray, phi: np.ndarray, h: float,
                  order: int, gaps: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(value, derivative) of L_eta(phi) from raw node positions m = eta(x_k)."""
    A, B = _scan_pair(m, phi * slopes, h, slopes=slopes, order=order, gaps=gaps)
    return 0.5 * (B - A), slopes * (0.5 * (A + B) - phi)


def l_eta_direct(phi: ScalarField0, eta: Diffeo, *, order: int = 2) -> ScalarField1:
    """L conjugated by the flow map, evaluated directly from eta-weighted scans.

    f(x_k) = -1/2 A_k + 1/2 B_k with positions m = eta(x_k) and weight
    phi * eta'; monotonicity of eta keeps every per-cell exponent
    -(m_{k+1} - m_k) <= -a h < 0.  The derivative channel comes from the
    analytic identity f' = eta' * (S - phi) with S = (A + B)/2, which is the
    inverse Helmholtz of phi o eta^(-1) carried back along eta.
    """
    if phi.grid != eta.grid:
        raise GridMismatch("source and diffeomorphism live on different grids")
    val, der = _l_eta_arrays(eta.values(), eta.slopes(), phi.g, phi.grid.h, order)
    return ScalarField1(phi.grid, val, der)


def l_eta_conjugated(phi: ScalarField0, eta: Diffeo, *, order: int = 2,
                     inv_tol: float = 1e-12) -> ScalarField1:
    """The conjugation identity L(phi o eta^(-1)) o eta computed literally.

    Inverts eta, resamples phi along the inverse, applies l_op, and composes
    back.  Exists as an independent discretization used to cross-check
    l_eta_direct; the two agree at the quadrature/interpolation error level.
    """
    if phi.grid != eta.grid:
        raise GridMismatch("source and diffeomorphism live on different grids")
    grid = phi.grid
    xi = invert(eta, tol=inv_tol)
    psi = ScalarField0(grid, phi.eval(grid.x + xi.v.u))
    lpsi = l_op(psi, order=order)
    val, der = lpsi.eval(eta.values())
    return ScalarField1(grid, val, der * eta.slopes())


def gateaux_df(phi: ScalarField0, eta: Diffeo, rho: ScalarField1, *,
               order: int = 2) -> ScalarField1:
    """Directional derivative of (phi, eta) -> l_eta_direct(phi, eta) in eta.

    With G the derivative in direction rho,

        G(x) = 1/2 int_{-inf}^x exp(eta(y)-eta(x)) phi(y)
                   (rho(x) eta'(y) - rho(y) eta'(y) - rho'(y)) dy
             + 1/2 int_x^{inf}   exp(eta(x)-eta(y)) phi(y)
                   (rho(x) eta'(y) - rho(y) eta'(y) + rho'(y)) dy,

    assembled from three scans with weights phi*eta', phi*rho*eta', phi*rho'.
    Sharing the per-cell rule with l_eta_direct makes this the exact
    derivative of the discrete operator, not merely a consistent one.

    The derivative channel is a centered-difference diagnostic; the time
    stepper never consumes it.
    """
    if phi.grid != eta.grid or rho.grid != eta.grid:
        raise GridMismatch("operands live on different grids")
    grid = phi.grid
    m = eta.values()
    slopes = eta.slopes()
    w1 = phi.g * slopes
    (A1, A2, A3), (B1, B2, B3) = _scan_pair(
        m, np.stack((w1, rho.u * w1, phi.g * rho.du)), grid.h, slopes=slopes, order=order)
    value = 0.5 * (rho.u * (A1 + B1) - (A2 + B2) - (A3 - B3))
    return ScalarField1(grid, value, np.gradient(value, grid.h, edge_order=2))
