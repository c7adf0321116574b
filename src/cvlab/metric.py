"""Metric models on C^n built from a single radial generator.

With r = |z|^2, a rotation-invariant Kahler form is determined by one radial
coefficient: we carry h(r) (the angular coefficient), its average
f(r) = (1/r) * integral of h, and the profile xi(r) = -r h'(r)/h(r).  The
model tabulates everything on one master grid in the native coordinate of the
generator (r for xi- and h-kind profiles, the transverse coordinate x with
x^2 = r*h for F''-kind profiles) and exposes vectorized callables for the
geodesic distance s, the normalized volume v = r*f, and the three curvature
components.

Key cancellation-free identities used throughout (w := r*(f - h) = v - r*h):

    B = (xi*v - w) / v^2       C = 2*w / v^2

both manifestly nonnegative for nondecreasing xi, and numerically stable all
the way to the origin where naive differences of near-equal terms lose every
significant digit.
"""

from __future__ import annotations

import enum
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator

from .families import RawStepSource, SaturationRampSource, SmoothStepSource
from .profiles import (
    ClosedFormSource,
    FamilySpec,
    GeneratorKind,
    GeneratorProfile,
    ProfileDomainError,
    ProfileError,
    SampledSource,
    eval_profile,
)
from .quadrature import (
    CumulativeIntegral,
    derivative_fd,
    extrapolate_limit,
    scalar_like,
    stencil_derivative,
)

log = logging.getLogger(__name__)

FLAT_TOL = 1e-10  # sup xi below this counts as flat
ATTAIN_TOL = 1e-9  # xi within this of 1 at finite radius counts as attained
LIMIT_TOL = 1e-6  # xi limits below 1 - LIMIT_TOL are safely sub-saturated


def ball_coefficient(n: int) -> float:
    """Euclidean volume coefficient: Vol B(s) = c_n s^(2n) on flat C^n."""
    return math.pi**n / math.factorial(n)


class Representation(enum.Enum):
    FROM_XI = "from_xi"
    FROM_F = "from_f"


class MetricClass(enum.Enum):
    FLAT = "flat"
    S1 = "S1"  # xi_inf < 1: Euclidean volume growth with reduced constant
    S2 = "S2"  # xi_inf = 1 unattained: degenerate-Euclidean growth
    S3 = "S3"  # xi = 1 at finite r0: cylinder-like end, linear volume growth


class VolumeGrowth(enum.Enum):
    EUCLIDEAN = "euclidean"
    SUB_EUCLIDEAN = "sub_euclidean"
    HALF_DIMENSIONAL = "half_dimensional"


@dataclass(frozen=True)
class Classification:
    metric_class: MetricClass
    xi_infinity: float
    volume_growth: VolumeGrowth
    r0: float = math.inf
    x0: float = math.inf
    ambiguous_tail: bool = False

    def as_dict(self) -> dict:
        return {
            "metric_class": self.metric_class.value,
            "xi_infinity": self.xi_infinity,
            "volume_growth": self.volume_growth.value,
            "r0": self.r0,
            "x0": self.x0,
            "ambiguous_tail": self.ambiguous_tail,
        }


@dataclass(frozen=True)
class BuildOptions:
    grid_size: int = 4096
    r_max: float = 1e8  # span of the r-grid for xi- and h-kind profiles
    x_max: float | None = None  # span of the x-grid for fpp-kind; default from profile
    h0: float = 1.0
    nodes_per_feature: int = 256  # refinement nodes per profile transition
    quad_rel_tol: float = 1e-8
    series_points: int = 64

    @staticmethod
    def from_env(**overrides) -> "BuildOptions":
        opts = BuildOptions(**overrides)
        if "CVLAB_GRID" in os.environ and "grid_size" not in overrides:
            opts = replace(opts, grid_size=int(os.environ["CVLAB_GRID"]))
        if "CVLAB_TOL" in os.environ and "quad_rel_tol" not in overrides:
            opts = replace(opts, quad_rel_tol=float(os.environ["CVLAB_TOL"]))
        return opts


def _master_grid(source, end: float, opts: BuildOptions) -> np.ndarray:
    lo = min(1e-8, end * 1e-10)
    bps = np.asarray(source.breakpoints(), dtype=float)
    ref = np.asarray(source.refinement_nodes(opts.nodes_per_feature), dtype=float)
    grid = np.unique(np.concatenate(([0.0], np.geomspace(lo, end, opts.grid_size), bps, ref)))
    grid = grid[(grid >= 0.0) & (grid <= end)]
    # prune near-duplicates so no quadrature cell degenerates; a breakpoint is
    # a kink and never goes, its near neighbour does
    close = np.diff(grid) <= 1e-14 * grid[1:]
    fixed = np.isin(grid, bps)
    drop = np.zeros(grid.size, dtype=bool)
    drop[1:] = close & ~fixed[1:]
    drop[:-1] |= close & fixed[1:] & ~fixed[:-1]
    return grid[~drop]


class _XiEngine:
    """Tables and callables for a metric generated by xi(r) (or injected h)."""

    representation = Representation.FROM_XI

    def __init__(self, profile: GeneratorProfile, opts: BuildOptions):
        self.profile = profile
        self.h0 = opts.h0
        end = min(profile.domain_end, opts.r_max)
        self.grid = _master_grid(profile.source, end, opts)

        if profile.kind is GeneratorKind.XI:
            xi0 = float(eval_profile(profile, 0.0))
            if abs(xi0) > 1e-9:
                raise ProfileError(
                    f"xi(0) = {xi0:.3g}; the h-integral needs xi(0) = 0 to converge"
                )
            self._xi_fn = lambda t: np.asarray(eval_profile(profile, t), dtype=float)
            # xi(0) = 0 makes xi(t)/t integrable; quadrature nodes never sit at 0
            self._log_h = CumulativeIntegral(lambda t: self._xi_fn(t) / t, self.grid)
            self._h_fn = lambda t: self.h0 * np.exp(-self._log_h(t))
        else:  # injected h; xi derived.  Origin-singular h is truncated at the grid floor.
            try:
                eval_profile(profile, 0.0)
            except (ArithmeticError, ProfileDomainError):
                self.grid = self.grid[self.grid > 0]
            self._h_fn = lambda t: np.asarray(eval_profile(profile, t), dtype=float)
            self._xi_fn = self._xi_from_h
            self._log_h = None

        self._v = CumulativeIntegral(self._h_fn, self.grid)
        self._w = CumulativeIntegral(lambda t: self._xi_fn(t) * self._h_fn(t), self.grid)
        ugrid = np.sqrt(self.grid)
        if ugrid[0] > 0:
            ugrid = np.concatenate(([0.0], ugrid))
        self._s_u = CumulativeIntegral(lambda u: np.sqrt(self._h_fn(u * u)), ugrid)

    def _xi_from_h(self, t):
        t = np.asarray(t, dtype=float)
        hp = self.profile.source.derivative(t)
        if hp is None:
            # keep the difference stencil strictly inside (0, grid_end)
            floor = self.grid[0] if self.grid[0] > 0 else self.grid[1]
            centers = np.clip(t, floor, self.grid[-1] * (1.0 - 2e-6))
            hp = derivative_fd(self._h_fn, centers)
        return np.where(t == 0.0, 0.0, -t * np.asarray(hp, dtype=float) / self._h_fn(t))

    # -- callables in the native coordinate (r) --

    def xi_of(self, t):
        return self._xi_fn(np.asarray(t, dtype=float))

    def h_of(self, t):
        return self._h_fn(np.asarray(t, dtype=float))

    def v_of(self, t):
        return self._v(t)

    def f_of(self, t):
        t = np.asarray(t, dtype=float)
        return np.divide(self._v(t), t, out=np.full_like(t, self.h0), where=t > 0)

    def s_of(self, t):
        return self._s_u(np.sqrt(np.asarray(t, dtype=float)))

    def r_of(self, t):
        return np.asarray(t, dtype=float)

    def x_of(self, t):
        t_arr = np.asarray(t, dtype=float)
        return np.sqrt(t_arr * self._h_fn(t_arr))

    def vprime_of(self, t):
        # dv/dr = h
        return self.h_of(t)

    def xi_prime_of(self, t):
        t = np.asarray(t, dtype=float)
        exact = self.profile.source.derivative(t)
        if exact is not None and self.profile.kind is GeneratorKind.XI:
            return np.asarray(exact, dtype=float)
        out = np.empty_like(t)
        pos = t > 0
        out[pos] = derivative_fd(self._xi_fn, t[pos])
        if np.any(~pos):
            eps = 1e-7
            # second-order one-sided difference; xi(0) = 0
            out[~pos] = (4.0 * self._xi_fn(eps) - self._xi_fn(2 * eps)) / (2 * eps) - (
                3.0 * self._xi_fn(0.0) / (2 * eps)
            )
        return out

    def abc_of(self, t):
        t = np.asarray(t, dtype=float)
        A = self.xi_prime_of(t) / self.h_of(t)
        v, w, xi = self._v(t), self._w(t), self._xi_fn(t)
        v2 = np.square(v)  # a ufunc, not **: see scalar_like
        with np.errstate(divide="ignore", invalid="ignore"):  # v = 0 at the origin
            B = np.where(t > 0, (xi * v - w) / v2, 0.5 * A)
            C = np.where(t > 0, 2.0 * w / v2, A)
        return A, B, C

    @property
    def breakpoints_native(self):
        return self.profile.source.breakpoints()


class _FEngine:
    """Tables and callables for a metric generated by F''(x)."""

    representation = Representation.FROM_F

    def __init__(self, profile: GeneratorProfile, opts: BuildOptions):
        self.profile = profile
        self.h0 = opts.h0
        end = opts.x_max
        if end is None:
            end = profile.domain_end
            if not np.isfinite(end):
                bps = profile.source.breakpoints()
                end = 8.0 * float(np.max(bps)) if len(bps) else 1e4
        self.grid = _master_grid(profile.source, float(end), opts)

        self._fpp_fn = lambda t: np.asarray(eval_profile(profile, t), dtype=float)
        src = profile.source
        if src.cumulative(np.array([0.0])) is not None:
            self._fp_fn = src.cumulative
        else:
            self._fp_fn = CumulativeIntegral(self._fpp_fn, self.grid)

        # w = v - x^2 = integral of 2*tau*(sq - 1); sq - 1 written stably
        self._w = CumulativeIntegral(lambda t: 2.0 * t * self._sq_minus_1(t), self.grid)
        self._s = CumulativeIntegral(self._sq_fn, self.grid)
        # log(r/x^2): d/dx = 2*(sq - 1)/x, integrable since F'(x) ~ F''(0) x at 0
        self._logr = CumulativeIntegral(lambda t: 2.0 * self._sq_minus_1(t) / t, self.grid)

    def _sq_fn(self, t):
        return np.hypot(1.0, self._fp_fn(t))

    def _sq_minus_1(self, t):
        fp = self._fp_fn(t)
        return fp * fp / (1.0 + np.hypot(1.0, fp))

    # -- callables in the native coordinate (x) --

    def fprime_of(self, t):
        return self._fp_fn(np.asarray(t, dtype=float))

    def fpp_of(self, t):
        return self._fpp_fn(np.asarray(t, dtype=float))

    def xi_of(self, t):
        fp = self._fp_fn(np.asarray(t, dtype=float))
        sq = np.hypot(1.0, fp)
        return fp * fp / (sq * (1.0 + sq))

    def v_of(self, t):
        t_arr = np.asarray(t, dtype=float)
        return t_arr * t_arr + self._w(t_arr)

    def s_of(self, t):
        return self._s(t)

    def r_of(self, t):
        t_arr = np.asarray(t, dtype=float)
        return t_arr * t_arr * np.exp(self._logr(t_arr)) / self.h0

    def x_of(self, t):
        return np.asarray(t, dtype=float)

    def h_of(self, t):
        return self.h0 * np.exp(-self._logr(t))

    def f_of(self, t):
        t = np.asarray(t, dtype=float)
        return np.divide(
            self.v_of(t) * self.h_of(t), t**2, out=np.full_like(t, self.h0), where=t > 0
        )

    def vprime_of(self, t):
        # dv/dx = 2*x*sqrt(1 + F'^2)
        t_arr = np.asarray(t, dtype=float)
        return 2.0 * t_arr * self._sq_fn(t_arr)

    def abc_of(self, t):
        t = np.asarray(t, dtype=float)
        fp = self._fp_fn(t)
        fpp = self._fpp_fn(t)
        sq = np.hypot(1.0, fp)
        w = self._w(t)
        v = t * t + w
        with np.errstate(divide="ignore", invalid="ignore"):  # origin limits below
            A = fp * fpp / (2.0 * t * np.power(sq, 4))  # not **: see scalar_like
            B = (t * t * (sq - 1.0) - w) / (v * v * sq)
            C = 2.0 * w / (v * v)
        origin = t == 0
        if np.any(origin):
            fpp0 = float(self._fpp_fn(0.0))
            A = np.where(origin, 0.5 * fpp0**2, A)
            B = np.where(origin, 0.25 * fpp0**2, B)
            C = np.where(origin, 0.5 * fpp0**2, C)
        return A, B, C

    @property
    def breakpoints_native(self):
        return self.profile.source.breakpoints()


class _LogLogInverse:
    """Native coordinate at given values of an increasing table.

    Monotone PCHIP of log(native) against log(value) over the positive part
    of the table; queries are clipped to the tabulated range.
    """

    def __init__(self, values: np.ndarray, native: np.ndarray):
        pos = (values > 0) & (native > 0)
        lq, lt = np.log(values[pos]), np.log(native[pos])
        # strictly above every earlier point: a saturated x table only jitters
        keep = np.concatenate(([True], lq[1:] > np.maximum.accumulate(lq)[:-1]))
        self._pchip = PchipInterpolator(lq[keep], lt[keep], extrapolate=False)

    def __call__(self, q):
        """(log q clipped to the table, native coordinate there)."""
        with np.errstate(divide="ignore"):
            lq = np.clip(np.log(q), self._pchip.x[0], self._pchip.x[-1])
        return lq, np.exp(self._pchip(lq))


@dataclass(eq=False)
class MetricModel:
    n: int
    representation: Representation
    profile: GeneratorProfile
    options: BuildOptions
    classification: Classification
    engine: object = field(repr=False)
    r: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    xi: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    # cumulative ball integrals of curvature densities, keyed by density
    _series_cache: dict = field(default_factory=dict, repr=False)

    @property
    def c_n(self) -> float:
        return ball_coefficient(self.n)

    @property
    def native(self) -> np.ndarray:
        """The grid in the generator's own coordinate (r or x)."""
        return self.engine.grid

    @property
    def native_end(self) -> float:
        return float(self.engine.grid[-1])

    @cached_property
    def _s_inverse(self) -> _LogLogInverse:
        return _LogLogInverse(self.s, self.native)

    @cached_property
    def _r_inverse(self) -> _LogLogInverse:
        return _LogLogInverse(self.r, self.native)

    @cached_property
    def _x_inverse(self) -> _LogLogInverse:
        return _LogLogInverse(self.x, self.native)

    def radius_from_s(self, s):
        """Native radius at geodesic distance s (monotone log-log interpolation)."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr <= 0) or np.any(s_arr > self.s[-1] * (1 + 1e-9)):
            raise ValueError(
                f"distance outside the tabulated range (0, {self.s[-1]:.6g}]"
            )
        return scalar_like(s, self._s_inverse(s_arr)[1])

    def native_from_r(self, r):
        """Native radius at r = |z|^2: log-log seed, polished by Newton steps."""
        if self.representation is Representation.FROM_XI:
            return np.asarray(r, dtype=float)
        lr, t = self._r_inverse(r)

        # r(t) = t^2/h, d ln r / d ln t = 2/(1 - xi), so two or three Newton
        # corrections take ~1e-5 seed error to rounding
        def log_step(t, h, xi):
            return -0.5 * (2.0 * np.log(t) - np.log(h) - lr) * (1.0 - xi)

        return self._newton(t, log_step)

    def native_from_x(self, x):
        """Native radius at transverse radius x (x^2 = r*h), polished like r."""
        if self.representation is Representation.FROM_F:
            return np.asarray(x, dtype=float)
        if np.any(np.asarray(x, dtype=float) > self.x[-1] * (1 + 1e-9)):
            # past saturation no radius has this x
            raise ValueError(f"transverse radius beyond the tabulated x <= {self.x[-1]:.6g}")
        lx, t = self._x_inverse(x)

        # x(t) = sqrt(t h), d ln x / d ln t = (1 - xi)/2; skip the correction
        # where xi has saturated (x is constant there, the seed is all there is)
        def log_step(t, h, xi):
            slope = 0.5 * (1.0 - xi)
            resid = 0.5 * (np.log(t) + np.log(h)) - lx
            return -np.where(slope > 1e-9, resid / np.maximum(slope, 1e-9), 0.0)

        return self._newton(t, log_step)

    def _newton(self, t, log_step):
        """Three corrections t *= exp(log_step(t, h, xi)), kept inside the grid."""
        lo = float(np.min(self.native[self.native > 0]))
        hi = float(self.native[-1])
        for _ in range(3):
            t = np.clip(t, lo, hi)
            step = log_step(t, self.engine.h_of(t), self.engine.xi_of(t))
            t = t * np.exp(np.clip(step, -0.5, 0.5))
        return np.clip(t, lo, hi)

    def _seam_indices(self):
        """Nodes bounding the smooth segments of the native table."""
        bp = np.asarray(self.engine.breakpoints_native, dtype=float)
        if bp.size == 0:
            return None
        idx = np.clip(np.searchsorted(self.native, bp), 0, self.native.size - 1)
        return np.unique(idx)

    @cached_property
    def dxi_dr(self) -> PchipInterpolator:
        """d xi/dr over the native grid, from the xi(r) table by seam-aware stencils."""
        table = stencil_derivative(self.xi, self.r, segments=self._seam_indices())
        return PchipInterpolator(self.native, table, extrapolate=False)

    @cached_property
    def fprime_over_x(self) -> tuple[PchipInterpolator, PchipInterpolator]:
        """F' and F'' over the x table, from xi by seam-aware stencils; needs xi < 1."""
        fp_table = fprime_from_xi(np.clip(self.xi, 0.0, 1.0 - 1e-15))
        fpp_table = stencil_derivative(fp_table, self.x, segments=self._seam_indices())
        return tuple(
            PchipInterpolator(self.x, y, extrapolate=False) for y in (fp_table, fpp_table)
        )

    def describe(self) -> dict:
        cls = self.classification
        return {
            "profile": self.profile.name,
            "n": self.n,
            "representation": self.representation.value,
            "classification": cls.as_dict(),
            "grid_nodes": len(self.native),
            "native_end": self.native_end,
            "s_end": float(self.s[-1]),
            "options": asdict(self.options),
        }


def _classify(engine, profile: GeneratorProfile, grid, xi) -> Classification:
    sup_xi = float(np.max(xi))
    if sup_xi <= FLAT_TOL:
        return Classification(MetricClass.FLAT, 0.0, VolumeGrowth.EUCLIDEAN)

    attained = xi >= 1.0 - ATTAIN_TOL
    if np.any(attained):
        first = int(np.argmax(attained))
        if float(np.min(xi[first:])) >= 1.0 - 2.0 * ATTAIN_TOL:
            r0 = getattr(profile.source, "r0", None)
            if r0 is None:
                # first grid crossing of the attainment level
                lo = max(first - 1, 0)
                seg_t, seg_xi = grid[lo : first + 1], xi[lo : first + 1]
                r0 = float(np.interp(1.0 - ATTAIN_TOL, seg_xi, seg_t))
            r0 = float(r0)
            x0 = math.sqrt(r0 * float(engine.h_of(r0)))
            return Classification(
                MetricClass.S3, 1.0, VolumeGrowth.HALF_DIMENSIONAL, r0=r0, x0=x0
            )

    mass = profile.source.total_mass
    if profile.kind is GeneratorKind.FPP and mass is not None:
        xi_inf = mass * mass / (math.hypot(1.0, mass) * (1.0 + math.hypot(1.0, mass)))
    else:
        probes = grid[-1] / np.array([100.0, 10.0, 1.0])
        xi_inf = extrapolate_limit(engine.xi_of(probes))
    xi_inf = float(np.clip(xi_inf, 0.0, 1.0))

    if xi_inf < 1.0 - LIMIT_TOL:
        return Classification(MetricClass.S1, xi_inf, VolumeGrowth.EUCLIDEAN)
    log.warning(
        "xi limit estimate %.12g is within %g of 1 but never attained on the grid; "
        "classifying S2 (degenerate growth) with ambiguous_tail set",
        xi_inf,
        LIMIT_TOL,
    )
    return Classification(
        MetricClass.S2, xi_inf, VolumeGrowth.SUB_EUCLIDEAN, ambiguous_tail=True
    )


def build_metric(profile, n: int, options: BuildOptions | None = None) -> MetricModel:
    """Build a full metric model from a generator profile (or FamilySpec)."""
    if isinstance(profile, FamilySpec):
        from .families import family_from_spec

        return family_from_spec(profile, options)
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ProfileError(
            f"complex dimension must be an integer >= 2, got {n!r}; "
            "n = 1 has no transverse curvature components"
        )
    opts = options or BuildOptions()

    if profile.kind is GeneratorKind.FPP:
        engine: object = _FEngine(profile, opts)
    else:
        engine = _XiEngine(profile, opts)

    grid = engine.grid
    xi = engine.xi_of(grid)
    classification = _classify(engine, profile, grid, xi)
    return MetricModel(
        n=int(n),
        representation=engine.representation,
        profile=profile,
        options=opts,
        classification=classification,
        engine=engine,
        r=engine.r_of(grid),
        x=engine.x_of(grid),
        h=engine.h_of(grid),
        f=engine.f_of(grid),
        xi=xi,
        v=engine.v_of(grid),
        s=engine.s_of(grid),
    )


def classify(model: MetricModel) -> Classification:
    return model.classification


def completeness_check(model: MetricModel) -> bool:
    """Divergence of the distance integral: tail exponent of sqrt(h/r) >= -1.

    The integrand of s is sqrt(h(u^2)) in u = sqrt(r); its log-log tail slope
    is -(1 + xi_inf)/2 per unit log r, so completeness is exactly xi_inf <= 1.
    Measured from the h table directly so injected-h models are covered too.
    """
    if np.any(model.h <= 0.0) or np.any(model.f <= 0.0):
        return False
    grid = model.native
    mask = grid >= grid[-1] / 10.0
    slope_h = np.polyfit(np.log(model.r[mask]), np.log(model.h[mask]), 1)[0]
    exponent = 0.5 * (slope_h - 1.0)
    return bool(exponent >= -1.0 - 1e-6)


# ---------------------------------------------------------------------------
# gauge conversions


def fprime_from_xi(xi):
    """F' = sqrt(xi(2 - xi))/(1 - xi); requires 0 <= xi < 1."""
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr < 0.0) or np.any(xi_arr >= 1.0):
        raise ValueError("fprime_from_xi needs 0 <= xi < 1 (xi = 1 is the cylinder limit)")
    return scalar_like(xi, np.sqrt(xi_arr * (2.0 - xi_arr)) / (1.0 - xi_arr))


def xi_from_fprime(fprime):
    """Inverse of :func:`fprime_from_xi`, written to avoid cancellation."""
    fp = np.asarray(fprime, dtype=float)
    if np.any(fp < 0.0):
        raise ValueError("xi_from_fprime needs F' >= 0")
    sq = np.hypot(1.0, fp)
    return scalar_like(fprime, fp * fp / (sq * (1.0 + sq)))


# ---------------------------------------------------------------------------
# serialization (schema 2): the recipe, not the tables

_SAVEABLE_SOURCES = {
    cls.__name__: cls
    for cls in (
        ClosedFormSource,
        SampledSource,
        RawStepSource,
        SmoothStepSource,
        SaturationRampSource,
    )
}


def save_metric(model: MetricModel, path) -> None:
    """Write what builds the model: generator profile, n and build options."""
    profile = model.profile
    doc = {
        "schema": 2,
        "n": model.n,
        "options": asdict(model.options),
        "profile": {
            "kind": profile.kind.value,
            "name": profile.name,
            "source": type(profile.source).__name__,
            "spec": profile.source.spec(),
        },
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    os.replace(tmp, path)


def load_metric(path) -> MetricModel:
    """Rebuild a saved model; bit-identical to it on the same numpy/scipy build."""
    with open(path) as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema == 1:
        raise ValueError(
            f"{path} is a schema-1 model file: it held interpolated tables, "
            "not the generator; build the model and save it again"
        )
    if schema != 2:
        raise ValueError(f"unsupported model file schema {schema!r}")
    spec = doc["profile"]
    source_type = _SAVEABLE_SOURCES.get(spec["source"])
    if source_type is None:
        raise ValueError(f"unknown profile source type {spec['source']!r} in {path}")
    profile = GeneratorProfile(
        GeneratorKind(spec["kind"]), source_type.from_spec(spec["spec"]), name=spec["name"]
    )
    return build_metric(profile, doc["n"], BuildOptions(**doc["options"]))
