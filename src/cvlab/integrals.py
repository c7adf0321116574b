"""Curvature integrals over geodesic balls and their growth normalizations.

The volume element of a rotation-invariant metric in the radial coordinate is
d(Vol) = c_n d(v^n) with v = r*f, so every ball integral here is a 1-d
integral of  density * n * v^(n-1) * v'  in the native coordinate.  Series
over a log-spaced set of ball radii share one cached cumulative integral per
(model, density) pair, so a 64-point series costs one pass over the master
grid.

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

from dataclasses import dataclass

import numpy as np

from .curvature import chern_density_k, ricci_eigenvalues, scalar_curvature, sigma_k
from .metric import MetricClass, MetricModel, Representation
from .quadrature import CumulativeIntegral, adaptive_integral, extrapolate_limit, scalar_like


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
# densities (callables of the native radius)


def scalar_density(model: MetricModel):
    n = model.n

    def density(t):
        A, B, C = model.engine.abc_of(t)
        return scalar_curvature(A, B, C, n)

    return density


def sigma_density(model: MetricModel, k: int):
    n = model.n
    sigma_k(0.0, 0.0, n, k)  # validate k early

    def density(t):
        A, B, C = model.engine.abc_of(t)
        lam, mu = ricci_eigenvalues(A, B, C, n)
        return sigma_k(lam, mu, n, k)

    return density


def chern_power_density(model: MetricModel, k: int):
    n = model.n
    chern_density_k(0.0, 0.0, n, k)

    def density(t):
        A, B, C = model.engine.abc_of(t)
        lam, mu = ricci_eigenvalues(A, B, C, n)
        return chern_density_k(lam, mu, n, k)

    return density


def amplitude_power_density(model: MetricModel, p: float):
    def density(t):
        A, _, _ = model.engine.abc_of(t)
        return np.power(np.abs(A), p)

    return density


# ---------------------------------------------------------------------------
# single ball integrals (adaptive, tolerance-controlled)


def ball_integral(model: MetricModel, density, s: float, rel_tol: float | None = None) -> float:
    """Integral of a pointwise density over the geodesic ball B(s).

    ``density`` maps native radii to values of the same shape (QUADPACK
    queries one point at a time, as a scalar); the volume element
    n v^(n-1) v' and the c_n factor are supplied here.  Adaptive quadrature
    with the profile's breakpoints; raises QuadratureError on failure.
    """
    n = model.n
    t_end = float(model.radius_from_s(float(s)))

    def integrand(t):
        v = model.engine.v_of(t)  # a Python float at scalar t: powers via np.power
        val = density(t) * n * np.power(v, n - 1) * model.engine.vprime_of(t)
        return scalar_like(t, val)

    tol = rel_tol if rel_tol is not None else model.options.quad_rel_tol
    bps = np.asarray(model.engine.breakpoints_native, dtype=float)
    return model.c_n * adaptive_integral(integrand, 0.0, t_end, rel_tol=tol, breakpoints=bps)


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


def _density_cumulative(model: MetricModel, key, density) -> CumulativeIntegral:
    cache = model._series_cache
    if key not in cache:
        n = model.n

        def integrand(t):
            v = model.engine.v_of(t)
            return density(t) * n * v ** (n - 1) * model.engine.vprime_of(t)

        cache[key] = CumulativeIntegral(integrand, model.native)
    return cache[key]


def default_s_grid(model: MetricModel, points: int | None = None) -> np.ndarray:
    """Log-spaced ball radii from s(r = 1) out to the end of the grid."""
    pts = points if points is not None else model.options.series_points
    s_lo = distance_s(model, r=1.0)
    s_hi = float(model.s[-1])
    return np.geomspace(s_lo, s_hi, pts)


def _series_skeleton(model, s_grid):
    s_arr = np.asarray(s_grid if s_grid is not None else default_s_grid(model), dtype=float)
    t_arr = model.radius_from_s(s_arr)
    return s_arr, t_arr, model.c_n * model.engine.v_of(t_arr) ** model.n


def normalized_sigma_series(model: MetricModel, k: int, s_grid=None) -> BallIntegralSeries:
    """integral of sigma_k over B(s), divided by s^(2n-2k)."""
    s_arr, t_arr, vol = _series_skeleton(model, s_grid)
    cum = _density_cumulative(model, ("sigma", k), sigma_density(model, k))
    integral = model.c_n * cum(t_arr)
    power = 2 * (model.n - k)
    return BallIntegralSeries(
        s=s_arr,
        volume=vol,
        integral=integral,
        normalized=integral / s_arr**power,
        label=f"sigma_{k} ball integral / s^{power}",
        n=model.n,
        k=k,
    )


def normalized_chern_series(model: MetricModel, k: int, s_grid=None) -> BallIntegralSeries:
    """integral of (chern_k density / pi^k) over B(s), divided by s^(2n-2k).

    The 1/pi^k matches the normalization that makes the k = n member equal
    the total Chern-power integral.
    """
    s_arr, t_arr, vol = _series_skeleton(model, s_grid)
    cum = _density_cumulative(model, ("chern", k), chern_power_density(model, k))
    integral = model.c_n * cum(t_arr) / np.pi**k
    power = 2 * (model.n - k)
    return BallIntegralSeries(
        s=s_arr,
        volume=vol,
        integral=integral,
        normalized=integral / s_arr**power,
        label=f"chern_{k} ball integral / (pi^{k} s^{power})",
        n=model.n,
        k=k,
    )


def lp_curvature_series(model: MetricModel, p: float, s_grid=None) -> BallIntegralSeries:
    """s^2 times the ball average of |A|^p (radial-curvature L^p comparison)."""
    if p <= 1.0:
        raise ValueError("lp comparison needs p > 1")
    s_arr, t_arr, vol = _series_skeleton(model, s_grid)
    cum = _density_cumulative(model, ("lp", p), amplitude_power_density(model, p))
    integral = model.c_n * cum(t_arr)
    return BallIntegralSeries(
        s=s_arr,
        volume=vol,
        integral=integral,
        normalized=s_arr**2 * integral / vol,
        label=f"s^2 * ball average of |A|^{p:g}",
        n=model.n,
        p=p,
    )


def average_scalar_series(model: MetricModel, s_grid=None) -> BallIntegralSeries:
    s_arr, t_arr, vol = _series_skeleton(model, s_grid)
    cum = _density_cumulative(model, ("scalar",), scalar_density(model))
    integral = model.c_n * cum(t_arr)
    return BallIntegralSeries(
        s=s_arr,
        volume=vol,
        integral=integral,
        normalized=integral / vol,
        label="ball average of scalar curvature",
        n=model.n,
    )


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
    cum = _density_cumulative(model, ("chern", n), chern_power_density(model, n))
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
    direct: float
    by_parts: float

    @property
    def relative_gap(self) -> float:
        scale = max(abs(self.direct), abs(self.by_parts), 1e-300)
        return abs(self.direct - self.by_parts) / scale


def mixed_curvature_ibp(model: MetricModel, k: int, t_end: float | None = None) -> IbpCheck:
    """Check the radial integration by parts behind the k < n comparison.

    c_n n int A-slope * v^(n-k) = boundary + c_n n (n-k) int v^(n-k-1) dv_flat,
    written in whichever coordinate the model is generated in.  Both sides are
    evaluated by independent quadratures; exact up to grid accuracy.
    """
    n = model.n
    if not 1 <= k < n:
        raise ValueError("the mixed comparison needs 1 <= k < n")
    if model.from_tables:
        raise ValueError(
            "the identity integrates the generator's derivatives, which a model loaded "
            "from saved tables does not have; rebuild the model from its profile"
        )
    end = float(t_end) if t_end is not None else float(model.native[-1])
    eng = model.engine
    v_end = float(eng.v_of(end))

    if model.representation is Representation.FROM_XI:
        if float(np.max(model.xi)) >= 1.0 - 1e-12:
            raise ValueError("identity needs xi < 1 on the grid")

        def direct_integrand(t):
            return eng.v_of(t) ** (n - k) * eng.xi_prime_of(t)

        def bulk_integrand(t):
            return eng.v_of(t) ** (n - k - 1) * eng.h_of(t) * (1.0 - eng.xi_of(t))

        boundary = -n * v_end ** (n - k) * (1.0 - float(eng.xi_of(end)))
    else:

        def direct_integrand(t):
            fp = eng.fprime_of(t)
            return fp * eng.fpp_of(t) / np.hypot(1.0, fp) ** 3 * eng.v_of(t) ** (n - k)

        def bulk_integrand(t):
            return eng.v_of(t) ** (n - k - 1) * 2.0 * t

        boundary = -n * v_end ** (n - k) / np.hypot(1.0, float(eng.fprime_of(end)))

    grid = model.native[model.native <= end * (1 + 1e-12)]
    if grid[-1] < end:
        grid = np.concatenate((grid, [end]))
    direct = model.c_n * n * CumulativeIntegral(direct_integrand, grid).total
    bulk = CumulativeIntegral(bulk_integrand, grid).total
    # the boundary term at the origin vanishes: v(0) = 0 and k < n
    by_parts = model.c_n * (boundary + n * (n - k) * bulk)
    return IbpCheck(direct=direct, by_parts=by_parts)


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
