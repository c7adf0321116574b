"""Quadrature and finite-difference helpers shared by the metric machinery.

Radial quantities (h, f, s, v, ...) are cumulative integrals of smooth or
piecewise-smooth integrands over a fixed master grid.  The strategy here is
fixed-order Gauss-Legendre per grid cell with cached cell sums, which makes
the cumulative function cheaply evaluable at arbitrary interior points: look
up the cell, add a partial Gauss segment from the cell edge.  Cells never
place nodes on the boundary, so integrands with removable endpoint behaviour
(e.g. xi(t)/t at t=0) are safe as long as the grid starts at the endpoint.

One-off integrals with a requested tolerance go through adaptive QUADPACK
(`scipy.integrate.quad`) with explicit breakpoints.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import integrate


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float = np.nan):
        super().__init__(message)
        self.achieved = achieved


@lru_cache(maxsize=8)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def scalar_like(t, out):
    """``out`` as Python floats when the query ``t`` is a scalar, else as is.

    The public point functions end with this.  Everything below them takes
    arrays of any shape, 0-d included, and returns the same shape; ``out`` is
    one such array or a tuple of them.  Internals write powers of values that
    can be numpy scalars as ``np.power``/``np.square``: the ``**`` operator on
    a scalar rounds through libm's pow, which differs from the array kernel
    in the last bit.
    """
    if np.ndim(t) != 0:
        return out
    if isinstance(out, tuple):
        return tuple(float(u) for u in out)
    return float(out)


class CumulativeIntegral:
    """F(t) = integral of f from grid[0] to t, t in [grid[0], grid[-1]].

    The integrand must be vectorized (1-d array in, same shape out) and
    smooth within each grid cell; kinks belong on grid points.
    """

    def __init__(self, f, grid: np.ndarray, order: int = 8):
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be 1-d with at least two points")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        self.f = f
        self.grid = grid
        self.order = order
        xg, wg = _gl_rule(order)
        a = grid[:-1]
        half = 0.5 * np.diff(grid)
        nodes = (a + half)[:, None] + half[:, None] * xg[None, :]
        vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        cell = half * (vals @ wg)
        self.values = np.concatenate([[0.0], np.cumsum(cell)])

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.grid[0], self.grid[-1]
        if np.any(t_arr < lo - 1e-12 * max(1.0, abs(lo))) or np.any(t_arr > hi * (1 + 1e-12) + 1e-300):
            raise ValueError(f"cumulative integral queried outside [{lo}, {hi}]")
        t_arr = np.clip(t_arr, lo, hi)
        idx = np.searchsorted(self.grid, t_arr, side="right") - 1
        idx = np.clip(idx, 0, self.grid.size - 2)
        a = self.grid[idx]
        half = 0.5 * (t_arr - a)
        out = self.values[idx].copy()
        live = half > 0.0
        if np.any(live):
            xg, wg = _gl_rule(self.order)
            nodes = (a[live] + half[live])[:, None] + half[live][:, None] * xg[None, :]
            vals = np.asarray(self.f(nodes.ravel()), dtype=float).reshape(nodes.shape)
            out[live] += half[live] * (vals @ wg)
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(out[0])
        return out

    @property
    def total(self) -> float:
        return float(self.values[-1])


def adaptive_integral(
    f,
    a: float,
    b: float,
    rel_tol: float = 1e-8,
    abs_floor: float = 1e-14,
    breakpoints=None,
) -> float:
    """Adaptive integral of f over [a, b] to a relative tolerance.

    Raises QuadratureError when the adaptive subdivision gives up; the
    achieved error estimate rides along on the exception.
    """
    pts = None
    limit = 200
    if breakpoints is not None:
        pts = np.asarray(breakpoints, dtype=float)
        pts = np.unique(pts[(pts > a) & (pts < b)])
        if pts.size == 0:
            pts = None
        else:
            limit = max(limit, 2 * pts.size + 50)
    res = integrate.quad(
        f, a, b, epsabs=abs_floor, epsrel=rel_tol, limit=limit,
        points=pts, full_output=1,
    )
    value, err = res[0], res[1]
    if len(res) > 3:
        raise QuadratureError(
            f"quadrature on [{a}, {b}] did not converge: {res[3]} "
            f"(achieved abs error {err:.3e})",
            achieved=err,
        )
    return value


def derivative_fd(f, t, rel_step: float = 1e-6):
    """Centered difference of a callable at t > 0 with a relative step."""
    t_arr = np.asarray(t, dtype=float)
    h = np.maximum(np.abs(t_arr), 1e-290) * rel_step
    return (np.asarray(f(t_arr + h)) - np.asarray(f(t_arr - h))) / (2.0 * h)


def grid_derivative(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Second-order derivative estimates on a nonuniform grid.

    Three-point centered stencils inside, one-sided at the ends.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1 or y.size < 3:
        raise ValueError("need matching 1-d arrays with at least 3 points")
    d = np.empty_like(y)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    d[1:-1] = (
        -hp / (hm * (hm + hp)) * y[:-2]
        + (hp - hm) / (hm * hp) * y[1:-1]
        + hm / (hp * (hm + hp)) * y[2:]
    )
    h1, h2 = x[1] - x[0], x[2] - x[1]
    d[0] = (
        -(2 * h1 + h2) / (h1 * (h1 + h2)) * y[0]
        + (h1 + h2) / (h1 * h2) * y[1]
        - h1 / (h2 * (h1 + h2)) * y[2]
    )
    g1, g2 = x[-1] - x[-2], x[-2] - x[-3]
    d[-1] = (
        (2 * g1 + g2) / (g1 * (g1 + g2)) * y[-1]
        - (g1 + g2) / (g1 * g2) * y[-2]
        + g1 / (g2 * (g1 + g2)) * y[-3]
    )
    return d


def stencil_derivative(y: np.ndarray, x: np.ndarray, segments=None, width: int = 7) -> np.ndarray:
    """First derivative of a tabulated function by local polynomial stencils.

    Seven-point (sixth-order) stencils in the interior, shrinking to
    one-sided stencils near segment ends.  ``segments`` lists node indices
    where higher derivatives jump (smoothing seams); stencils never cross
    them, so a kink does not pollute its neighbourhood the way a fixed
    centered difference does.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1 or y.size < 2:
        raise ValueError("need matching 1-d arrays with at least 2 points")
    n = x.size
    cuts = [0, n - 1]
    if segments is not None:
        cuts += [int(i) for i in segments if 0 < int(i) < n - 1]
    cuts = sorted(set(cuts))
    out = np.empty(n)
    for a, b in zip(cuts[:-1], cuts[1:]):
        # the shared seam node belongs to both segments; either one-sided
        # stencil is consistent since the first derivative is continuous
        m = b - a + 1
        k = min(width, m)
        idx = np.arange(a, b + 1)
        starts = np.clip(idx - k // 2, a, b - k + 1)
        cols = starts[:, None] + np.arange(k)[None, :]
        dx = x[cols] - x[idx][:, None]
        scale = np.max(np.abs(dx), axis=1, keepdims=True)
        dxs = dx / scale
        powers = dxs[:, None, :] ** np.arange(k)[None, :, None]
        rhs = np.zeros((m, k, 1))
        rhs[:, 1, 0] = 1.0
        w = np.linalg.solve(powers, rhs)[:, :, 0]
        out[idx] = np.sum(w * y[cols], axis=1) / scale[:, 0]
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
