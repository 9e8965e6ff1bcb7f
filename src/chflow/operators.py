"""Nonlocal smoothing operators built from exponential-kernel prefix scans.

Everything here reduces to two directional accumulators over the grid,

    A_k ~ integral_{x_0}^{x_k}   exp(m(y) - m_k) w(y) dy,
    B_k ~ integral_{x_k}^{x_end} exp(m_k - m(y)) w(y) dy,

where m is either the identity (m = x) or an increasing flow map evaluated at
the nodes.  Both are linear recurrences, A_{k+1} = exp(-(m_{k+1} - m_k)) A_k
+ r_k, and are evaluated without a loop over nodes, in O(n) per direction.

Blocked form.  A scan takes one row of weights w, one per node.  The nodes
are cut into the fewest blocks of at most floor(_SPAN / g) + 1 consecutive
nodes, g the largest gap m_{j+1} - m_j and _SPAN = 8, all of one width W,
so a block spans at most _SPAN; the last block is padded with copies of the
last node of zero weight, fewer than one per block.  Both directions share
the blocks and, s being a block's first node, the factors
e_k = exp(m_k - m_s) in [1, e^_SPAN] and r_k = 1/e_k, one exponential and
one reciprocal per node; what depends on the positions alone is a plan
(_scan_plan) that serves every weight row along them.  Inside a block

    A_k = r_k (C_s + sum_{s <= j < k} h w_j e_j) + q_k,
    B_k = e_k (D_s + sum_{k < j < s + W} h w_j r_j) + q'_k,

both from one cumsum along a complex row of W + 1 entries: its real parts
hold the carry and then the block's terms of A, its imaginary parts those of
B back to front, carry first again.  The carries C_s and D_s, both taken at
the block's first node, follow from the block totals by short recurrences
over blocks that share one decay factor exp(-(m_s' - m_s)) per block edge;
the right carry starts at the last node as its seed times r_end.  Each
exponential has its argument in [-_SPAN, _SPAN] except the decay factor,
whose argument is nonpositive, so no domain, however wide or coarse (W = 1),
can overflow.  Rounding stays eps times the kernel-weighted sum of |w|, as
for the node-by-node recurrence; a wider span would add rounding of order
eps * span through the exponent arguments m_j - m_s.

The cell rule is shared by both quadrature orders: node j enters with weight
h w_j, and q, q' are the endpoint terms of the rule at the output node, which
also seed the carries at the first and last node so that A_0 = B_end = 0.

Every operator consumes only the half sum S = (A+B)/2 and the half
difference D = (B-A)/2, which one scan entry returns (its scans run at half
weight, so no pass forms A or B).  Without any numerical differentiation:

* inverse Helmholtz  f = (1 - d_xx)^(-1) g:     f = S,  f' = D,
* its x-derivative   L g = d_x (1 - d_xx)^(-1): value D, derivative S - g
  (the operator gains one derivative),
* the flow-conjugated operator  L_eta(phi) = L(phi o eta^(-1)) o eta,
  evaluated directly from eta-weighted scans: value D, derivative channel
  eta' * (S - phi).

Quadrature: per-cell trapezoid on the weighted integrand with the exponential
factor pulled out per cell (order 2), q = h w / 2.  Order 4 adds the
Euler-Maclaurin endpoint correction (h^2/12)(W'_left - W'_right) per cell
with the integrand derivative estimated by centered differences, raising
smooth accuracy to O(h^4); the corrections of adjacent cells cancel at every
interior node and survive only in q.  Every scan takes DEFAULT_QUAD_ORDER = 4
(inv_helmholtz, l_op, l_eta_direct, the check suites and the Eulerian
oracle); order 2 runs only in a flow-map run that asks for it (integrate's
quad_order).  Integrals are truncated at the grid boundary; the error is
O(exp(-a * margin)) for data supported margin away from the ends.
"""

from __future__ import annotations

import numpy as np

from .diffeo import Diffeo
from .errors import GridMismatch
from .fields import ScalarField0, ScalarField1

__all__ = [
    "inv_helmholtz",
    "l_op",
    "l_eta_direct",
]


# Longest exponent range m_e - m_s over the sources of one scan block.
_SPAN = 8.0
DEFAULT_QUAD_ORDER = 4


def _scan_plan(positions: np.ndarray, gaps: np.ndarray | None = None) -> tuple:
    """(n, e, r, decay, r_end) of a scan along positions, for any weight row along them.

    e = exp(p - p_s) and r = 1/e on the (blocks, width) padded positions p, s each
    block's first node; decay = exp(-(p_s' - p_s)) per block edge; r_end is r at
    the last node.  gaps is np.diff(positions), passed only by a caller that has
    checked the positions (the time stepper's chart check).
    """
    if gaps is None:
        gaps = np.diff(positions)
        if not (gaps.min() > 0.0 and np.isfinite(positions[-1] - positions[0])):
            raise ValueError("scan positions must be finite and strictly increasing")
    n, gap = positions.shape[0], gaps.max()
    blocks = 1 if gap * n <= _SPAN else -(-n // (int(_SPAN / gap) + 1))
    width = -(-n // blocks)
    p = positions
    if blocks * width > n:
        # pad to blocks * width nodes by repeating the last one
        p = np.concatenate((p, np.full(blocks * width - n, p[-1])))
    p = p.reshape(blocks, width)
    # offsets from each block's first node lie in [0, _SPAN]
    e = np.exp(p - p[:, :1])
    r = 1.0 / e
    decay = np.exp(p[:-1, 0] - p[1:, 0]).tolist()
    return n, e, r, decay, float(r.flat[n - 1])


def _decay_scans(plan: tuple, g: np.ndarray, cl: float,
                 cr: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right exponential-decay sums of the weights g along the positions m of plan.

    Returns (L, R), each of the shape of g, with

        L_k = cl exp(-(m_k - m_0))   + sum_{j<k} g_j exp(-(m_k - m_j)),
        R_k = cr exp(-(m_end - m_k)) + sum_{j>k} g_j exp(-(m_j - m_k)).

    Both directions share the blocks and the factors e = exp(m - m_s),
    r = 1/e of their first node s: L = r (C + prefix(g e)) and
    R = e (D + suffix(g r)).  Each row of one complex (blocks, width + 1)
    buffer holds a block of the left scan in its real parts, carry ahead of
    the terms, and of the right scan back to front in its imaginary parts,
    so one forward cumsum along it gives every exclusive in-block sum plus
    the carry of both directions.  Each block total is reduced on the view
    of its own direction, in the order of the terms.
    """
    n, e, r, decay, r_end = plan
    blocks, width = e.shape
    if e.size > n:
        g = np.concatenate((g, np.zeros(e.size - n)))  # padded nodes weigh zero
    g = g.reshape(blocks, width)
    s = np.zeros((blocks, width + 1), dtype=complex)
    left, right = s.real, s.imag[:, ::-1]
    np.multiply(g, e, out=left[:, 1:])
    np.multiply(g, r, out=right[:, :-1])
    # carries into the blocks at their first node: one decay per block edge
    # serves both directions; the right seed enters at the last node
    left_totals = np.add.reduce(left, axis=-1).tolist()
    right_totals = np.add.reduce(right, axis=-1).tolist()
    left_carry = [cl]
    for f, total in zip(decay, left_totals):
        left_carry.append(f * (left_carry[-1] + total))
    right_carry = [cr * r_end]
    for f, total in zip(decay[::-1], right_totals[:0:-1]):
        right_carry.append(f * (right_carry[-1] + total))
    left[:, 0] = left_carry
    right[:, -1] = right_carry[::-1]
    np.add.accumulate(s, axis=-1, out=s)
    left = np.multiply(left[:, :-1], r).reshape(e.size)
    right = np.multiply(right[:, 1:], e).reshape(e.size)
    return left[:n], right[:n]


def _scan_sd(plan: tuple, w: np.ndarray, h: float, slopes: np.ndarray | None = None,
             order: int = DEFAULT_QUAD_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Half sum S = (A+B)/2 and half difference D = (B-A)/2 of the left/right
    exponential-weighted prefix integrals of the weights w along plan's positions.

    w, S and D have one entry per position.
    """
    # the scans run at half weight, so they return L/2 and R/2
    g = (0.5 * h) * w
    corr = None
    if order == 2:
        # q = h w / 2 in both directions
        mid = g
        first, last = g[0], g[-1]
    elif order == 4:
        # q = mid -+ corr, mid = h w / 2 - c slopes w, corr = c w' with w'
        # by second-order differences
        c, f = h * h / 12.0, h / 24.0
        mid = w * (0.5 * h - c * (1.0 if slopes is None else slopes))
        corr = np.empty_like(mid)
        np.subtract(w[2:], w[:-2], out=corr[1:-1])
        corr[1:-1] *= f
        (w0, w1, w2), (w3, w4, w5) = w[:3].tolist(), w[-3:].tolist()
        corr[0] = c0 = f * (-3.0 * w0 + 4.0 * w1 - w2)
        corr[-1] = c1 = f * (3.0 * w5 - 4.0 * w4 + w3)
        first, last = mid[0] - c0, mid[-1] + c1
    else:
        raise ValueError(f"quadrature order must be 2 or 4, got {order}")
    # -q/2 at each direction's first node seeds its carry, so A_0 = B_end = 0
    left, right = _decay_scans(plan, g, -0.5 * float(first), -0.5 * float(last))
    S = mid + left
    S += right
    D = right - left
    if corr is not None:
        D += corr
    return S, D


def inv_helmholtz(g: ScalarField0) -> ScalarField1:
    """Solve f - f'' = g with decay at infinity: f(x) = (1/2) int exp(-|x-y|) g(y) dy.

    The derivative channel is the kernel identity f' = L g, evaluated from the
    same accumulators rather than by differencing f.
    """
    grid = g.grid
    S, D = _scan_sd(_scan_plan(grid.x), g.g, grid.h)
    return ScalarField1(grid, S, D)


def l_op(phi: ScalarField0) -> ScalarField1:
    """The smoothing derivative L = d_x (1 - d_xx)^(-1) with exponential kernel.

    Values follow the split-kernel form

        (L phi)(x) = -1/2 exp(-x) int_{-inf}^x exp(y) phi(y) dy
                     +1/2 exp(x)  int_x^{inf}  exp(-y) phi(y) dy,

    and the derivative channel uses d_x L = (1 - d_xx)^(-1) - id.
    """
    grid = phi.grid
    S, D = _scan_sd(_scan_plan(grid.x), phi.g, grid.h)
    return ScalarField1(grid, D, S - phi.g)


def _l_eta_arrays(plan: tuple, slopes: np.ndarray, phi: np.ndarray, h: float,
                  order: int = DEFAULT_QUAD_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """(value, derivative) of L_eta(phi) along the _scan_plan of the node positions eta(x_k)."""
    S, D = _scan_sd(plan, phi * slopes, h, slopes, order)
    S -= phi
    S *= slopes
    return D, S


def l_eta_direct(phi: ScalarField0, eta: Diffeo) -> ScalarField1:
    """L conjugated by the flow map, evaluated directly from eta-weighted scans.

    f(x_k) = D_k = (B_k - A_k)/2 with positions m = eta(x_k) and weight
    phi * eta'; monotonicity of eta keeps every per-cell exponent
    -(m_{k+1} - m_k) <= -a h < 0.  The derivative channel comes from the
    analytic identity f' = eta' * (S - phi) with S = (A + B)/2, which is the
    inverse Helmholtz of phi o eta^(-1) carried back along eta.  The scan
    takes the order-4 cell rule.
    """
    if phi.grid != eta.grid:
        raise GridMismatch("source and diffeomorphism live on different grids")
    val, der = _l_eta_arrays(_scan_plan(eta.values()), eta.slopes(), phi.g, phi.grid.h)
    return ScalarField1(phi.grid, val, der)

