"""Quadrature and finite-difference helpers shared by the metric machinery.

Radial quantities (h, f, s, v, ...) are cumulative tables over a fixed master
grid (`CumulativeIntegral`): the integrand runs once, at the Gauss-Legendre
nodes of each cell (`gauss_nodes`), and a query is one search of the grid and
one Clenshaw sum of its cell's stored antiderivative, written inline with
numpy ``legval``'s constants so it gives legval's bits; a query on grid
nodes reads the table.  Every table on one grid shares those nodes, so a table can
be built from node values computed once for several tables, and
``at_nodes()`` gives a table's own values there without a query; one model
evaluates its engine once per node.  Cells never place nodes on the
boundary, so integrands with removable endpoint behaviour (e.g. xi(t)/t at
t=0) are safe as long as the grid starts at the endpoint.  ``legendre_tail``
and ``cell_tails`` read a per-cell error estimate off the same node values,
with no further integrand call; the grid bisection of both gauges uses them.

One-off integrals to a requested tolerance (a single ball) go through
`adaptive_integral`: Gauss-Legendre bisection from the breakpoints, whose
integrand runs once per round, on the nodes of every interval still being
refined.  ``CubicHermite`` is the one piecewise cubic Hermite of the
package: the seed of the table inverses and the interpolant of sampled
generators.  The module needs numpy only.
"""

from __future__ import annotations

import logging
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legvander

log = logging.getLogger(__name__)

ADAPTIVE_ORDER = 15  # nodes of each Gauss-Legendre rule in adaptive_integral
MAX_SPLITS = 2000  # bisections before adaptive_integral gives up
ABS_FLOOR = 1e-14  # least absolute tolerance of adaptive_integral's total


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float = np.nan):
        super().__init__(message)
        self.achieved = achieved


_gl_rule = lru_cache(maxsize=8)(leggauss)  # order -> (nodes, weights) on [-1, 1]


@lru_cache(maxsize=8)
def _legendre_matrix(order: int) -> np.ndarray:
    """(order, order) map from a cell's Gauss node values to the Legendre
    coefficients of the interpolant through them: row k gives c_k."""
    x, w = _gl_rule(order)
    k = np.arange(order)[:, None]
    return (k + 0.5) * w * legvander(x, order - 1).T


@lru_cache(maxsize=8)
def _antiderivative_matrix(order: int) -> np.ndarray:
    """(order, order + 1) map from a cell's Gauss node values to the Legendre
    coefficients of the interpolant's antiderivative, zero at the left edge."""
    return legint(_legendre_matrix(order), lbnd=-1).T


@lru_cache(maxsize=8)
def _node_vander(order: int) -> np.ndarray:
    """(order + 1, order) Legendre polynomials of degree <= order at the Gauss nodes."""
    return legvander(_gl_rule(order)[0], order).T


@lru_cache(maxsize=8)
def _clenshaw_constants(terms: int) -> tuple:
    """((nd - 1)/nd, (2 nd - 1)/nd) for nd = terms - 1 down to 2: the
    multipliers of numpy's ``legval`` recurrence on ``terms`` coefficients."""
    return tuple(((nd - 1) / nd, (2 * nd - 1) / nd) for nd in range(terms - 1, 1, -1))


def _nodes(lo, hi, order: int):
    xg = _gl_rule(order)[0]
    half = 0.5 * (hi - lo)
    return (lo + half)[..., None] + half[..., None] * xg


def gauss_nodes(grid, order: int = 8) -> np.ndarray:
    """(cells, order) Gauss-Legendre nodes of every cell of ``grid``: where a
    ``CumulativeIntegral`` on that grid runs its integrand."""
    grid = np.asarray(grid, dtype=float)
    return _nodes(grid[:-1], grid[1:], order)


def _gauss_rules(f, lo, hi, order: int = ADAPTIVE_ORDER):
    """(node values, rule sums) of f on every [lo, hi] pair, any shape, in one call."""
    nodes = _nodes(lo, hi, order)
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return vals, _rule_sums(vals, lo, hi)


def _rule_sums(vals, lo, hi):
    """Gauss-Legendre sums of node values ``vals`` (..., order) over [lo, hi]."""
    return 0.5 * (hi - lo) * (vals @ _gl_rule(vals.shape[-1])[1])


def legendre_tail(vals):
    """|c_(order-2)| + |c_(order-1)| of each cell's Gauss node values ``vals``
    (cells, order): the two highest Legendre coefficients of the interpolant
    through the nodes, the chopping tail of Aurentz & Trefethen (ACM TOMS 43,
    2017), which bounds how far the interpolant is from the function."""
    tail = np.abs(vals @ _legendre_matrix(vals.shape[-1])[-2:].T)
    return tail[..., 0] + tail[..., 1]


def cell_ends(vals):
    """(left, right): the value at each end of each cell of the interpolant
    through its Gauss node values ``vals`` (cells, order)."""
    order = vals.shape[-1]
    ends = _legendre_matrix(order).T @ legvander(np.array([-1.0, 1.0]), order - 1).T
    out = vals @ ends
    return out[..., 0], out[..., 1]


def cell_tails(vals, lo, hi):
    """(tail, integral) of each cell [lo, hi] from its Gauss node values ``vals``
    (cells, order): the half-width times ``legendre_tail(vals)``, and the
    cell's Gauss-Legendre sum."""
    return 0.5 * (hi - lo) * legendre_tail(vals), _rule_sums(vals, lo, hi)


def unique_sorted(a) -> np.ndarray:
    """The distinct values of a float array, sorted and flat: ``np.unique`` on
    arrays without NaN, by a sort and a comparison of neighbours.  numpy 2's
    ``np.unique`` (and ``np.isin``) import ``numpy.ma`` on first use, which
    the model path otherwise never loads."""
    a = np.sort(np.asarray(a, dtype=float), axis=None)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def extremes(q):
    """(min, max) of the float array ``q``, NaN if it holds one, or (inf, -inf)
    if it is empty; a 0-d ``q``, a numpy scalar included, is read as a float
    twice, with no reduction."""
    return (q.min(initial=np.inf), q.max(initial=-np.inf)) if q.ndim else (float(q),) * 2


def where_all(mask, new, old):
    """``np.where(mask, new, old)`` for ``new`` of the mask's shape, which is
    ``new`` itself when the mask is all True: a numpy scalar stays one, and
    a batch with nothing to keep makes no pass over ``old``.  ``mask`` is an
    array or a numpy bool, not a Python bool."""
    return new if np.count_nonzero(mask) == mask.size else np.where(mask, new, old)


def scalar_like(t, out):
    """``out`` as Python floats when the query ``t`` is a scalar, else as is.

    The public point functions end with this.  Everything below them takes
    arrays of any shape, 0-d included, and returns the same shape; ``out`` is
    one such array or a tuple of them.  Internals write powers of values that
    can be numpy scalars as ``np.power``/``np.square``: the ``**`` operator on
    a scalar rounds through libm's pow, which differs from the array kernel
    in the last bit.
    """
    if not isinstance(t, float) and np.ndim(t) != 0:
        return out
    if isinstance(out, tuple):
        return tuple(float(u) for u in out)
    return float(out)


class CubicHermite:
    """The piecewise cubic through (x, y), x strictly increasing, with slopes
    ``m0`` and ``m1`` at the left and right end of each interval.

    A call at q returns (interval index, value, slope).  The index clamps
    to the first and last interval, so a query at the last node is u = 1 of
    the last interval; with d = q - x_i and u = d / (x_(i+1) - x_i), the
    value is y_i + d (c1 + u (c2 + u c3)) and the slope c1 + u (2 c2 + 3 u c3).
    A query at a node x_i before the last gives y_i exactly.  A 0-d query
    computes on numpy scalars.
    """

    def __init__(self, x, y, m0, m1):
        self.x, self.y = x, y
        secant = np.diff(y) / np.diff(x)
        self._coef = np.stack((m0, 3.0 * secant - 2.0 * m0 - m1, m0 + m1 - 2.0 * secant))

    def __call__(self, q):
        x = self.x
        i = np.minimum(np.maximum(x.searchsorted(q, side="right") - 1, 0), x.size - 2)
        c1, c2, c3 = self._coef.take(i, axis=1)
        d = q - x[i]
        u = d / (x[i + 1] - x[i])
        return i, self.y[i] + d * (c1 + u * (c2 + u * c3)), c1 + u * (2.0 * c2 + 3.0 * u * c3)


class CumulativeIntegral:
    """F(t) = integral of f from grid[0] to t, t in [grid[0], grid[-1]].

    ``f`` is either a vectorized integrand (1-d array in, same shape out) or
    its values at ``gauss_nodes(grid, order)``, a (cells, order) array; both
    give the same table bit for bit.  The integrand must be smooth within
    each grid cell; kinks belong on grid points.  It is called once, at the
    Gauss nodes, and not kept: inside a cell F integrates the polynomial of
    degree order - 1 through the cell's node values, so it is exact for
    integrands of that degree.  ``at_nodes()`` gives F back at those nodes.

    A query searches the grid once and sums each point's cell series by the
    Clenshaw recurrence (Clenshaw, Math. Comp. 9, 1955), point by point, with
    the constants of numpy's ``legval``: the same bits, alone or in a batch.
    A point on a grid node reads the table, and a query made only of nodes
    (a model's own grid) returns after the search.  A query outside the
    grid, beyond a relative 1e-12, or a NaN raises ValueError.

    A 0-d query computes on numpy scalars along the batch's path, and gets
    the batch's bits.
    """

    def __init__(self, f, grid: np.ndarray, order: int = 8):
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be 1-d with at least two points")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        self.grid = grid
        self.order = order
        lo, hi = grid[:-1], grid[1:]
        if callable(f):
            vals, cell = _gauss_rules(f, lo, hi, order)
        else:
            vals = np.asarray(f, dtype=float)
            if vals.shape != (grid.size - 1, order):
                raise ValueError(f"node values must have shape {(grid.size - 1, order)}, "
                                 f"got {vals.shape}")
            cell = _rule_sums(vals, lo, hi)
        self.values = np.concatenate([[0.0], np.cumsum(cell)])
        # (order + 1, cells): row k holds c_k of every cell, so a query's
        # take(cell, axis=1) gives contiguous rows, numpy scalars for one point
        self._coef = _antiderivative_matrix(order).T @ vals.T
        self._clenshaw = _clenshaw_constants(order + 1)
        lo, hi = grid[0], grid[-1]
        self._lo_limit = lo - 1e-12 * max(1.0, abs(lo))
        self._hi_limit = hi * (1 + 1e-12) + 1e-300

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)[()]  # a numpy scalar for a 0-d query
        grid = self.grid
        lo, hi = grid[0], grid[-1]
        low, top = extremes(t_arr)
        if not (low >= self._lo_limit and top <= self._hi_limit):  # NaN fails both
            raise ValueError(f"cumulative integral queried outside [{lo}, {hi}]")
        t_arr = np.minimum(np.maximum(t_arr, lo), hi)
        idx = grid.searchsorted(t_arr, side="right") - 1
        out = self.values[idx]
        live = t_arr > grid[idx]  # grid nodes, the last included, read the table
        n_live = np.count_nonzero(live)
        if not n_live:
            return scalar_like(t, out)
        cell = np.minimum(idx, grid.size - 2)
        a, b = grid[cell], grid[cell + 1]
        width = b - a
        x = (2.0 * t_arr - a - b) / width
        half = 0.5 * width
        del a, b, width, t_arr, idx  # a big query's peak stays under glibc's trim threshold
        # legval's recurrence, inline: no reduction whose order depends on the batch
        c = self._coef.take(cell, axis=1)  # row k: c_k of each point's cell
        c0, c1 = c[-2], c[-1]
        for k, (p, q) in enumerate(self._clenshaw, start=3):
            c0, c1 = c[-k] - c1 * p, c0 + c1 * x * q
        total = out + half * (c0 + c1 * x)
        return scalar_like(t, total if n_live == live.size else np.where(live, total, out))

    def at_nodes(self) -> np.ndarray:
        """F at ``gauss_nodes(grid, order)``, (cells, order): one product of the
        stored coefficients with the node Legendre table, no search."""
        half = 0.5 * np.diff(self.grid)
        return self.values[:-1, None] + half[:, None] * (self._coef.T @ _node_vander(self.order))

    @property
    def total(self) -> float:
        return float(self.values[-1])


def adaptive_integral(f, a: float, b: float, rel_tol: float = 1e-8, breakpoints=None) -> float:
    """Adaptive integral of f (1-d float array in, same shape out) over [a, b].

    An interval I counts G(L) + G(R) with the estimate |G(I) - G(L) - G(R)|, and is done
    when that is within rel_tol of its value or its width's share of max(ABS_FLOOR,
    rel_tol |total|); the others are bisected.  Raises QuadratureError, with the achieved
    error estimate, after MAX_SPLITS bisections, when a midpoint no longer separates its
    ends, or on a non-finite estimate; on success that estimate is logged at DEBUG.
    """
    inner = np.array([] if breakpoints is None else breakpoints, dtype=float).ravel()
    edges = np.concatenate(([a], unique_sorted(inner[(inner > a) & (inner < b)]), [b]))
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    coarse, left, right = _gauss_rules(f, np.array([lo, lo, mid]), np.array([hi, mid, hi]))[1]
    rounds, splits, total, achieved = 1, 0, 0.0, 0.0
    while True:
        value = left + right
        err = np.abs(coarse - value)
        tol = max(ABS_FLOOR, rel_tol * abs(total + np.sum(value)))
        split = ~(err <= np.maximum(rel_tol * np.abs(value), tol * (hi - lo) / (b - a)))
        total += float(np.sum(value[~split]))
        achieved += float(np.sum(err[~split]))
        if not np.any(split):
            break
        splits += int(np.count_nonzero(split))
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        coarse, mid = np.concatenate((left[split], right[split])), 0.5 * (lo + hi)
        if splits > MAX_SPLITS or np.any((mid == lo) | (mid == hi)) or not np.all(np.isfinite(err)):
            achieved += float(np.sum(err[split]))
            raise QuadratureError(f"quadrature on [{a}, {b}] did not converge in {rounds} rounds "
                                  f"(achieved abs error {achieved:.3e})", achieved=achieved)
        left, right = _gauss_rules(f, np.array([lo, mid]), np.array([mid, hi]))[1]
        rounds += 1
    log.debug("quadrature on [%.6g, %.6g]: %d rounds, %d points, achieved abs error %.3g", a, b,
              rounds, (3 * (edges.size - 1) + 4 * splits) * ADAPTIVE_ORDER, achieved)
    return total


FD_STEP = 5e-4  # relative step of derivative_fd: its stencil spans t (1 +- 2 FD_STEP)


def derivative_fd(f, t, knots=()):
    """Fourth-order centred difference of a callable at t > 0 with the relative
    step FD_STEP, from one call of ``f`` on the four stencil points (and one
    more on the one-sided stencils below, where there are any).  Its rounding
    error is about eps |f| / (FD_STEP t), so a wide step with a high order
    keeps more digits of a slope taken from a nearly constant f (xi of an
    h-kind profile far out) than a narrow second-order stencil.

    No stencil crosses a point of the sorted ``knots`` (f's kinks and the
    ends of its domain): the step shrinks to a sixth of the gap between the
    knots around t, and a t within two steps of a knot takes the one-sided
    fourth-order stencil on its own side.  A t on a knot differences to its
    right, and a t on or past the last knot to its left."""
    t_arr = np.asarray(t, dtype=float)
    h = np.maximum(np.abs(t_arr), 1e-290) * FD_STEP
    side = np.zeros(t_arr.shape)  # 0 centred, -1 backward, +1 forward
    if len(knots):
        knots = np.asarray(knots, dtype=float)
        i = np.minimum(np.searchsorted(knots, t_arr, side="right"), knots.size - 1)
        a = np.where(i > 0, knots[np.maximum(i - 1, 0)], -np.inf)
        b = knots[i]
        h = np.minimum(h, (b - a) / 6.0)
        side = np.where(t_arr + 2.0 * h > b, -1.0, np.where(t_arr - 2.0 * h < a, 1.0, 0.0))
    out = np.empty(t_arr.shape)
    centred = side == 0
    t1, h1 = t_arr[centred], h[centred]
    f2, f1, g1, g2 = np.asarray(f(t1 + np.multiply.outer([-2.0, -1.0, 1.0, 2.0], h1)))
    out[centred] = (8.0 * (g1 - f1) - (g2 - f2)) / (12.0 * h1)
    if not np.all(centred):
        s, t1, h1 = side[~centred], t_arr[~centred], h[~centred]
        steps = np.multiply.outer([0.0, 1.0, 2.0, 3.0, 4.0], s * h1)
        f0, f1, f2, f3, f4 = np.asarray(f(t1 + steps))
        out[~centred] = s * (48.0 * f1 - 25.0 * f0 - 36.0 * f2 + 16.0 * f3 - 3.0 * f4) / (12.0 * h1)
    return out


def extrapolate_limit(values) -> float:
    """Aitken delta-squared estimate of the limit of a short tail sequence.

    Intended for three-or-more samples of a quantity evaluated one decade
    apart; falls back to the last sample when the increments are degenerate.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return float(v[-1])
    v0, v1, v2 = v[-3], v[-2], v[-1]
    denom = (v2 - v1) - (v1 - v0)
    if abs(denom) < 1e-14 * max(1.0, abs(v2)):
        return float(v2)
    est = v2 - (v2 - v1) ** 2 / denom
    # A wild estimate means the error model does not fit; keep the raw tail.
    if not np.isfinite(est) or abs(est - v2) > 10 * abs(v2 - v1) + 1e-300:
        return float(v2)
    return float(est)
