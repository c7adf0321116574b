"""Curvature integrals over geodesic balls and their growth normalizations.

The volume element of a rotation-invariant metric in the radial coordinate is
d(Vol) = c_n d(v^n) with v = r*f, so every ball integral here is a 1-d
integral of  density * n * v^(n-1) * v'  in the native coordinate.  A
density is a function of the curvature components (A, B, C); one engine
pass gives them together with v and v'.  Series over a log-spaced set of
ball radii share one cached cumulative integral per (model, density key)
pair, built from ``Engine.node_curvature`` -- the engine's values at the
master grid's Gauss nodes, kept or read off its tables' node data -- so a
64-point series costs one pass over the master grid and queries no table.
Single balls (``ball_integral``) run ``Engine.curvature_of`` at the
adaptive rule's own points.

Normalizations:

* sigma series:  integral of sigma_k over B(s), divided by s^(2n-2k);
* chern series:  integral of (chern density / pi^k) over B(s), divided by
  s^(2n-2k) -- the k = n member is then exactly the total Chern-power
  integral and needs no growth factor;
* lp series:     s^2 * (average of |A|^p over B(s)).

The degree-n Chern integral closes in quadrature: the radial primitive of
lambda mu^(n-1) d(v^n) is T(t)^n with T = xi + (n-1)(1 - h/f), so the
numeric part is completed by the exact tail (n xi_inf)^n - T(end)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import chern_density_k, ricci_eigenvalues, scalar_curvature, sigma_k
from .metric import MetricClass, MetricModel
from .quadrature import CumulativeIntegral, adaptive_integral, extrapolate_limit, scalar_like

QUAD_REL_TOL = 1e-8  # relative tolerance of a single ball's adaptive quadrature
SERIES_POINTS = 64  # ball radii of a default series


# ---------------------------------------------------------------------------
# coordinates and volume


def distance_s(model: MetricModel, r=None, x=None):
    """Geodesic distance from the origin to the sphere at radius r (or x)."""
    if (r is None) == (x is None):
        raise ValueError("give exactly one of r or x")
    t = model.native_from_r(r) if r is not None else model.native_from_x(x)
    return model.engine.s_of(t)


def volume_ball(model: MetricModel, s):
    """Volume of the geodesic ball of radius s: c_n * v^n."""
    v = model.engine.v_of(model.radius_from_s(s))
    return scalar_like(s, model.c_n * np.power(v, model.n))


# ---------------------------------------------------------------------------
# densities (functions of the curvature components A, B, C)


def scalar_density(model: MetricModel):
    n = model.n
    return lambda A, B, C: scalar_curvature(A, B, C, n)


def sigma_density(model: MetricModel, k: int):
    n = model.n
    sigma_k(0.0, 0.0, n, k)  # validate k early
    return lambda A, B, C: sigma_k(*ricci_eigenvalues(A, B, C, n), n, k)


def chern_power_density(model: MetricModel, k: int):
    n = model.n
    chern_density_k(0.0, 0.0, n, k)
    return lambda A, B, C: chern_density_k(*ricci_eigenvalues(A, B, C, n), n, k)


def amplitude_power_density(model: MetricModel, p: float):
    return lambda A, B, C: np.power(np.abs(A), p)


# a cumulative's cache key names its density: ("sigma", k), ("chern", k), ("lp", p), ("scalar",)
_DENSITIES = {
    "scalar": scalar_density,
    "sigma": sigma_density,
    "chern": chern_power_density,
    "lp": amplitude_power_density,
}


def _ball_values(n: int, density, curvature, *t):
    """density * n v^(n-1) v' from ``curvature(*t)`` = (A, B, C, v, v'): c_n
    times its integral is the ball's.  The volume weight is formed first, so
    v and v' are freed before the density's temporaries exist."""
    A, B, C, v, dv = curvature(*t)
    weight = n * v ** (n - 1) * dv
    del v, dv
    return density(A, B, C) * weight


def _ball_integrand(model: MetricModel, density):
    """The ball integrand at native radii t, for points no table holds."""
    n, curvature_of = model.n, model.engine.curvature_of
    return lambda t: _ball_values(n, density, curvature_of, t)


# ---------------------------------------------------------------------------
# single ball integrals (adaptive, tolerance-controlled)


def ball_integral(model: MetricModel, density, s: float, rel_tol: float = QUAD_REL_TOL) -> float:
    """Integral of a pointwise density over the geodesic ball B(s).

    ``density`` maps arrays A, B, C of the curvature components to values of
    the same shape; the volume element n v^(n-1) v' and the c_n factor are
    supplied here.  Adaptive quadrature, started on the profile's
    breakpoints, evaluates the integrand on one array per refinement round;
    raises QuadratureError on failure.
    """
    t_end = float(model.radius_from_s(float(s)))
    bps = np.asarray(model.engine.breakpoints_native, dtype=float)
    integrand = _ball_integrand(model, density)
    return model.c_n * adaptive_integral(integrand, 0.0, t_end, rel_tol=rel_tol, breakpoints=bps)


def average_scalar_curvature(model: MetricModel, s: float) -> float:
    """Mean of the scalar curvature over the geodesic ball B(s)."""
    return ball_integral(model, scalar_density(model), s) / volume_ball(model, float(s))


# ---------------------------------------------------------------------------
# series over nested balls (fast path: one cached cumulative per density)


@dataclass
class BallIntegralSeries:
    """Ball integrals of one density over a nested family of geodesic balls.

    ``normalized`` carries the growth normalization named by ``label``;
    boundedness of the underlying comparison is read off its tail.
    """

    s: np.ndarray
    volume: np.ndarray
    integral: np.ndarray
    normalized: np.ndarray
    label: str
    n: int
    k: int | None = None
    p: float | None = None

    def rows(self):
        return zip(self.s, self.volume, self.integral, self.normalized)


def _density_cumulative(model: MetricModel, key) -> CumulativeIntegral:
    """The cached cumulative ball integral (over c_n) of the density ``key`` names."""
    cache = model._cache
    if key not in cache:
        density = _DENSITIES[key[0]](model, *key[1:])
        values = _ball_values(model.n, density, model.engine.node_curvature)
        cache[key] = CumulativeIntegral(values, model.native)
    return cache[key]


def default_s_grid(model: MetricModel, points: int = SERIES_POINTS) -> np.ndarray:
    """Log-spaced ball radii from s(r = 1) out to the end of the grid."""
    s_lo = distance_s(model, r=1.0)
    s_hi = float(model.s[-1])
    return np.geomspace(s_lo, s_hi, points)


def _series(model, key, s_grid, label, normalize, scale=1.0, k=None, p=None):
    """The ball integrals (over ``scale``) of the density ``key`` names, at radii
    ``s_grid``; ``normalize(s, volume, integral)`` gives the growth normalization."""
    s_arr = np.asarray(s_grid if s_grid is not None else default_s_grid(model), dtype=float)
    t_arr = model.radius_from_s(s_arr)
    vol = model.c_n * model.engine.v_of(t_arr) ** model.n
    integral = model.c_n * _density_cumulative(model, key)(t_arr) / scale
    return BallIntegralSeries(
        s=s_arr,
        volume=vol,
        integral=integral,
        normalized=normalize(s_arr, vol, integral),
        label=label,
        n=model.n,
        k=k,
        p=p,
    )


def normalized_sigma_series(model: MetricModel, k: int, s_grid=None) -> BallIntegralSeries:
    """integral of sigma_k over B(s), divided by s^(2n-2k)."""
    power = 2 * (model.n - k)
    return _series(model, ("sigma", k), s_grid, f"sigma_{k} ball integral / s^{power}",
                   lambda s, vol, integral: integral / s**power, k=k)


def normalized_chern_series(model: MetricModel, k: int, s_grid=None) -> BallIntegralSeries:
    """integral of (chern_k density / pi^k) over B(s), divided by s^(2n-2k).

    The 1/pi^k matches the normalization that makes the k = n member equal
    the total Chern-power integral.
    """
    power = 2 * (model.n - k)
    return _series(model, ("chern", k), s_grid, f"chern_{k} ball integral / (pi^{k} s^{power})",
                   lambda s, vol, integral: integral / s**power, scale=np.pi**k, k=k)


def lp_curvature_series(model: MetricModel, p: float, s_grid=None) -> BallIntegralSeries:
    """s^2 times the ball average of |A|^p (radial-curvature L^p comparison)."""
    if p <= 1.0:
        raise ValueError("lp comparison needs p > 1")
    return _series(model, ("lp", p), s_grid, f"s^2 * ball average of |A|^{p:g}",
                   lambda s, vol, integral: s**2 * integral / vol, p=p)


def average_scalar_series(model: MetricModel, s_grid=None) -> BallIntegralSeries:
    return _series(model, ("scalar",), s_grid, "ball average of scalar curvature",
                   lambda s, vol, integral: integral / vol)


# ---------------------------------------------------------------------------
# total Chern-power integral


@dataclass(frozen=True)
class ChernTotal:
    value: float  # c_n (numeric + tail) / pi^n
    numeric: float  # grid part of integral lambda mu^(n-1) d(v^n)
    tail: float  # exact completion (n xi_inf)^n - T(end)^n
    tail_share: float
    identity_residual: float  # |numeric - T(end)^n| / (1 + |T(end)^n|)
    upper_bound: float  # c_n (n/pi)^n, attained only at saturation


def chern_number(model: MetricModel) -> ChernTotal:
    """Total integral of the n-th Chern-power density over the whole space.

    The radial primitive T(t) = xi + (n-1)(1 - h/f) turns the numeric tail
    into the closed form (n xi_inf)^n - T(end)^n, so slowly-decaying
    integrands (the generic case) cost nothing in accuracy.
    """
    n = model.n
    cum = _density_cumulative(model, ("chern", n))
    numeric = float(cum.total)
    end = model.native[-1]
    xi_end = float(model.engine.xi_of(end))
    h_end = float(model.engine.h_of(end))
    f_end = float(model.engine.f_of(end))
    t_end = xi_end + (n - 1) * (1.0 - h_end / f_end)
    xi_inf = model.classification.xi_infinity
    tail = (n * xi_inf) ** n - t_end**n
    total = numeric + tail
    return ChernTotal(
        value=model.c_n * total / np.pi**n,
        numeric=numeric,
        tail=tail,
        tail_share=abs(tail) / abs(total) if total != 0.0 else 0.0,
        identity_residual=abs(numeric - t_end**n) / (1.0 + abs(t_end**n)),
        upper_bound=model.c_n * (n / np.pi) ** n,
    )


# ---------------------------------------------------------------------------
# integration-by-parts identity for the mixed comparison integral


@dataclass(frozen=True)
class IbpCheck:
    """Both sides of the identity, with the two terms of the right-hand side.

    by_parts = c_n (boundary + n (n-k) bulk).  ``condition`` is
    (|boundary| + |n (n-k) bulk|) / |boundary + n (n-k) bulk|: the factor by
    which rounding in the terms is amplified in by_parts, so a gap or a
    change in by_parts reads against condition * eps.
    """

    direct: float
    by_parts: float
    boundary: float
    bulk: float
    condition: float

    @property
    def relative_gap(self) -> float:
        scale = max(abs(self.direct), abs(self.by_parts), 1e-300)
        return abs(self.direct - self.by_parts) / scale


def mixed_curvature_ibp(model: MetricModel, k: int, t_end: float | None = None) -> IbpCheck:
    """Check the radial integration by parts behind the k < n comparison.

    c_n n int A v' v^(n-k) = c_n (-n v^(n-k) (1 - xi) at the end
                                  + n (n-k) int v^(n-k-1) (1 - xi) v'),

    one form for both gauges, in the native coordinate t with v' = dv/dt:
    A v' dt = xi'(r) dr = F'F''/(1 + F'^2)^(3/2) dx, and (1 - xi) v' dt =
    h (1 - xi) dr = 2x dx.  Both sides are tables built from the engine's
    node data on the master grid, read at ``t_end`` (default: the end of the
    grid, where they read their stored totals); exact up to grid accuracy.
    """
    n = model.n
    if not 1 <= k < n:
        raise ValueError("the mixed comparison needs 1 <= k < n")
    if float(np.max(model.xi)) >= 1.0 - 1e-12:
        raise ValueError("identity needs xi < 1 on the grid")
    A, v, _, xi, dv = model.engine.node_parts()
    direct = CumulativeIntegral(A * dv * v ** (n - k), model.native)
    bulk = CumulativeIntegral(v ** (n - k - 1) * (1.0 - xi) * dv, model.native)
    if t_end is None:
        ends = direct.total, bulk.total, model.v[-1], model.xi[-1]
    else:
        end = float(t_end)
        ends = direct(end), bulk(end), model.engine.v_of(end), model.engine.xi_of(end)
    direct_end, bulk_end, v_end, xi_end = (float(u) for u in ends)
    # the boundary term at the origin vanishes: v(0) = 0 and k < n
    boundary = -n * v_end ** (n - k) * (1.0 - xi_end)
    by_parts = boundary + n * (n - k) * bulk_end
    terms = abs(boundary) + abs(n * (n - k) * bulk_end)
    return IbpCheck(direct=model.c_n * n * direct_end, by_parts=model.c_n * by_parts,
                    boundary=boundary, bulk=bulk_end,
                    condition=terms / abs(by_parts) if by_parts else math.inf)


# ---------------------------------------------------------------------------
# tail limits


@dataclass(frozen=True)
class RatioLimit:
    measured: float
    predicted: float
    samples: tuple

    @property
    def relative_gap(self) -> float:
        scale = max(abs(self.predicted), 1e-300)
        return abs(self.measured - self.predicted) / scale


def volume_ratio_limit(model: MetricModel, k: int) -> RatioLimit:
    """lim (v/s^2)^(n-k), the factor relating d(v^(n-k)) to s^(2(n-k)) growth.

    Predicted value (1 - xi_inf)^(n-k); measured by extrapolating over the
    last three decades of the grid (the approach is algebraic, ~ r^(-1/4)
    for generic profiles, so raw tail values are visibly off).
    """
    n = model.n
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    probes = model.native[-1] / np.array([100.0, 10.0, 1.0])
    v = model.engine.v_of(probes)
    s = model.engine.s_of(probes)
    vals = (v / s**2) ** (n - k)
    measured = extrapolate_limit(vals)
    predicted = (1.0 - model.classification.xi_infinity) ** (n - k)
    return RatioLimit(measured=measured, predicted=predicted, samples=tuple(float(u) for u in vals))


@dataclass(frozen=True)
class VolumeGrowthReport:
    """Measured volume growth constant against closed-form candidates."""

    growth_power: int  # Vol(B(s)) ~ const * s^growth_power
    measured: float
    candidates: dict
    matched: str | None
    samples: tuple


def volume_growth_report(model: MetricModel, match_tol: float = 0.02) -> VolumeGrowthReport:
    """Measure lim Vol(B(s)) / s^p for the model's growth class.

    Euclidean-type metrics (flat, S1) use p = 2n and extrapolate the
    algebraic approach; saturated metrics (S3) use p = n where the approach
    is O(1/log r) and is removed by a linear fit in 1/log.
    """
    n = model.n
    cls = model.classification

    if cls.metric_class is MetricClass.S3:
        power = n
        r0 = cls.r0
        lo = max(100.0 * r0, model.native[-1] ** 0.5)
        probes = np.geomspace(lo, model.native[-1], 16)
        v = model.engine.v_of(probes)
        s = model.engine.s_of(probes)
        ratio = v / s  # tends to 2 x0 with O(1/log) corrections
        invlog = 1.0 / np.log(probes / r0)
        coeffs = np.polyfit(invlog, ratio, 2)
        measured = model.c_n * float(coeffs[2]) ** n
        candidates = {
            "c_n (2 x0)^n": model.c_n * (2.0 * cls.x0) ** n,
            "2 c_n x0": 2.0 * model.c_n * cls.x0,
        }
        samples = tuple(model.c_n * (v / s) ** n)
    else:
        power = 2 * n
        probes = model.native[-1] / np.array([100.0, 10.0, 1.0])
        v = model.engine.v_of(probes)
        s = model.engine.s_of(probes)
        vals = model.c_n * (v / s**2) ** n
        measured = extrapolate_limit(vals)
        one_minus = 1.0 - cls.xi_infinity
        candidates = {
            "c_n (1 - xi_inf)^n": model.c_n * one_minus**n,
            "c_n (1 - xi_inf)^(4n)": model.c_n * one_minus ** (4 * n),
        }
        samples = tuple(float(u) for u in vals)

    matched = None
    for name, value in candidates.items():
        scale = max(abs(value), 1e-300)
        if abs(measured - value) / scale <= match_tol:
            matched = name
            break
    return VolumeGrowthReport(
        growth_power=power,
        measured=float(measured),
        candidates=candidates,
        matched=matched,
        samples=samples,
    )
