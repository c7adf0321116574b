"""Metric models on C^n built from a single radial generator.

With r = |z|^2, a rotation-invariant Kahler form is determined by h(r), the
angular coefficient.  We carry it, its average f = (1/r) * integral of h, the
normalized volume v = r*f, w := v - r*h, xi(r) = -r h'/h and the geodesic
distance s.  One ``Engine`` tabulates them on a master grid in the generator's
native coordinate.  Its two constructors differ only in the tables they hold
and in how they form the radial curvature component A:

    _xi_engine   r, for xi- and h-kind profiles:   A = xi'(r) / h
    _f_engine    x with x^2 = r*h, for F''-kind:   A = F' F'' / (2x (1 + F'^2)^2)

The other two are written once, manifestly nonnegative for nondecreasing xi
and free of the cancellation that costs naive differences every digit near
the origin (where B = A/2 and C = A):

    B = (xi*v - w) / v^2       C = 2*w / v^2

Both grids start from one base: 16 geometric nodes per decade of their span
plus the profile's breakpoints and fixed refinement.  The r grid is then
bisected until, in every cell, the Legendre tail of xi's own values at the
cell's Gauss nodes, and the gap at each end to the neighbouring cell's
interpolant, are within GRID_TOL of the total variation of xi.  The x grid is
bisected on the Legendre tail of xi'(x) = F'F''/(1 + F'^2)^(3/2); a step
train's transitions get the nodes they need and no fixed count.  One loop
serves both gauges, and each engine keeps a ``GridRecord`` of how its grid
was made.
"""

from __future__ import annotations

import enum
import json
import logging
import math
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

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
    cell_ends,
    cell_tails,
    derivative_fd,
    extrapolate_limit,
    gauss_nodes,
    legendre_tail,
    scalar_like,
    unique_sorted,
)

log = logging.getLogger(__name__)

FLAT_TOL = 1e-10  # sup xi below this counts as flat
ATTAIN_TOL = 1e-9  # xi within this of 1 at finite radius counts as attained
LIMIT_TOL = 1e-6  # xi limits below 1 - LIMIT_TOL are safely sub-saturated
NEWTON_STEPS = 4  # most polishing steps an inverse takes
RESIDUAL_WARN = 1e-12  # an inverse's final log-residual above this is reported
FLAT_SLOPE = 1e-9  # d ln q/d ln t below this: the saturated x plateau
MIN_CELL = 1e-14  # relative width under which a grid cell is neither kept nor bisected
GRID_TOL = 1e-12  # a cell's Legendre tail (of xi on r, of xi'(x) on x) over xi's total variation
GRID_ROUNDS = 40  # most bisection rounds of a grid
NODES_PER_DECADE = 16  # geometric base nodes per decade of a grid's span when grid_size is None


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
    """What builds a model besides its profile and n, and all a saved model keeps."""

    grid_size: int | None = None  # base geometric nodes; None: 16 per decade of the span
    r_max: float = 1e8  # span of the r-grid for xi- and h-kind profiles
    x_max: float | None = None  # span of the x-grid for fpp-kind; default from profile
    h0: float = 1.0


@dataclass(frozen=True)
class GridRecord:
    """How a model's grid was made: ``base_nodes`` (geometric nodes, breakpoints
    and a source's fixed refinement), then ``bisected_cells`` split over
    ``rounds`` rounds, leaving ``worst_estimate`` as the largest cell's
    Legendre tail over the total variation of xi (the bisection stops when it
    is at most ``tolerance``).  The tail is of xi's values on the r gauge (or
    the larger gap at the cell's ends to its neighbours' interpolants) and of
    xi'(x) times the cell's half-width on the x gauge."""

    nodes: int
    base_nodes: int
    bisected_cells: int
    rounds: int
    worst_estimate: float
    tolerance: float

    def as_dict(self) -> dict:
        return asdict(self)


def _master_grid(source, end: float, size: int | None) -> np.ndarray:
    """The origin, ``size`` geometric nodes up to ``end`` (None: NODES_PER_DECADE
    per decade of their span), and the source's breakpoints and refinement."""
    lo = min(1e-8, end * 1e-10)  # the first positive geometric node
    if size is None:
        size = round(NODES_PER_DECADE * math.log10(end / lo))
    bps = np.asarray(source.breakpoints(), dtype=float)
    ref = np.asarray(source.refinement_nodes(), dtype=float)
    grid = unique_sorted(np.concatenate(([0.0], np.geomspace(lo, end, size), bps, ref)))
    grid = grid[(grid >= 0.0) & (grid <= end)]
    # prune near-duplicates so no quadrature cell degenerates; a breakpoint is
    # a kink and never goes, its near neighbour does
    close = np.diff(grid) <= MIN_CELL * grid[1:]
    fixed = np.zeros(grid.size, dtype=bool)
    fixed[grid.searchsorted(bps[(bps >= 0.0) & (bps <= end)])] = True  # each is a node
    drop = np.zeros(grid.size, dtype=bool)
    drop[1:] = close & ~fixed[1:]
    drop[:-1] |= close & fixed[1:] & ~fixed[:-1]
    return grid[~drop]


_as_float = partial(np.asarray, dtype=float)
_EPS = float(np.finfo(float).eps)


def _bisected_grid(gauge: str, grid, evaluate, estimate):
    """``grid`` bisected until every cell's error estimate is within GRID_TOL.

    ``evaluate(nodes)`` gives the gauge's node values at Gauss nodes, a tuple
    of arrays shaped like ``nodes``; ``estimate(grid, values)`` gives each
    cell's Legendre tail and the scale it is held against (the total
    variation of xi).  Each round bisects the cells whose tail exceeds
    GRID_TOL times the scale, down to the MIN_CELL width floor and for at most
    GRID_ROUNDS rounds; ``evaluate`` runs on the new cells only.  Returns the
    grid, the node values on it and its ``GridRecord``.
    """
    base = grid.size
    values = evaluate(gauss_nodes(grid))
    bisected = 0
    for rounds in range(GRID_ROUNDS + 1):
        lo, hi = grid[:-1], grid[1:]
        tail, scale = estimate(grid, values)
        split = (tail > GRID_TOL * scale) & (hi - lo > 2.0 * MIN_CELL * hi)
        if rounds == GRID_ROUNDS or not np.any(split):
            break
        # each split cell becomes its two halves, every other cell keeps its row
        counts = 1 + split
        first = (np.cumsum(counts) - counts)[split]
        mid = 0.5 * (lo + hi)[split]
        lo, hi = np.repeat(lo, counts), np.repeat(hi, counts)
        hi[first], lo[first + 1] = mid, mid
        fresh = np.zeros(lo.size, dtype=bool)
        fresh[first], fresh[first + 1] = True, True
        grid = np.append(lo, hi[-1])
        new = evaluate(gauss_nodes(grid)[fresh])
        values = tuple(_merge_rows(old[~split], rows, fresh) for old, rows in zip(values, new))
        bisected += int(np.count_nonzero(split))
    worst = float(np.max(tail)) / scale if scale > 0 else 0.0
    if np.any(split):
        log.warning("%s grid: %d cell(s) above tolerance after %d bisection rounds",
                    gauge, int(np.count_nonzero(split)), rounds)
    log.info("%s grid: %d base nodes, %d cells bisected in %d rounds, %d nodes, worst cell "
             "estimate %.3g (tolerance %.0e)", gauge, base, bisected, rounds, grid.size, worst,
             GRID_TOL)
    return grid, values, GridRecord(grid.size, base, bisected, rounds, worst, GRID_TOL)


def _merge_rows(kept_rows, fresh_rows, fresh):
    out = np.empty((fresh.size, kept_rows.shape[1]))
    out[~fresh], out[fresh] = kept_rows, fresh_rows
    return out


def _xi_tail(grid, values):
    """r gauge: each cell's estimate for xi, and xi's variation over the nodes in
    order, counted from xi = 0 (so a constant xi, as of an origin-singular
    h = t^-p, is held against its own size).  The estimate is the larger of
    the Legendre tail of xi at the cell's nodes and the gaps at its two ends
    to its neighbours' interpolants: a kink between a cell's last node and its
    edge leaves the tail blind, not the gap."""
    (xi,) = values
    left, right = cell_ends(xi)
    gap = np.abs(right[:-1] - left[1:])
    tail = legendre_tail(xi)
    tail[:-1] = np.maximum(tail[:-1], gap)
    tail[1:] = np.maximum(tail[1:], gap)
    return tail, float(np.sum(np.abs(np.diff(xi.ravel(), prepend=0.0))))


def _xi_prime_tail(grid, values):
    """x gauge: the half-width times the Legendre tail of xi'(x) = F'F''/(1 + F'^2)^(3/2)
    at each cell's nodes, and xi's variation (the sum of |xi'| over the cells).
    Without a closed-form F' (``values`` holds F'' alone), F' is the running
    integral of the F'' node values."""
    pp = values[0]
    q = values[1] if len(values) > 1 else CumulativeIntegral(pp, grid).at_nodes()
    tail, mass = cell_tails(q * pp / np.power(np.hypot(1.0, q), 3), grid[:-1], grid[1:])
    return tail, float(np.sum(np.abs(mass)))


def _profile_fn(profile: GeneratorProfile):
    """The generator as a float-array callable of native radii."""
    return lambda t: _as_float(eval_profile(profile, _as_float(t)))


def _xi_of_fprime(fp):
    sq = np.hypot(1.0, fp)
    return fp * fp / (sq * (1.0 + sq))


def _xi_parts(xi_prime, h, v, w, xi):
    """(A, v, w, xi, dv/dr) on the r gauge: A = xi'(r)/h and dv/dr = h."""
    return xi_prime / h, v, w, xi, h


def _f_parts(t, p, pp, w):
    """(A, v, w, xi, dv/dx) on the x gauge from F' = p, F'' = pp and w at x = t."""
    sq = np.hypot(1.0, p)
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0: the limit F''(0)^2/2
        A = np.where(t > 0, p * pp / (2.0 * t * np.power(sq, 4)), 0.5 * np.square(pp))
    return A, t * t + w, w, _xi_of_fprime(p), 2.0 * t * sq  # dv/dx = 2x sq


def _curvature(interior, A, v, w, xi, dv):
    """(A, B, C, v, dv) from parts; ``interior`` is False at the origin."""
    v2 = np.square(v)  # a ufunc, not **: see scalar_like
    with np.errstate(divide="ignore", invalid="ignore"):  # v = 0 at the origin
        B = np.where(interior, (xi * v - w) / v2, 0.5 * A)
        C = np.where(interior, 2.0 * w / v2, A)
    return A, B, C, v, dv


@dataclass(frozen=True, eq=False)
class Engine:
    """A gauge's tables and profile callables, in its native coordinate.

    ``parts_of(t)`` gives (A, v, w, xi, v'), each table read once (xi last:
    read first, it doubled a batched call's page faults), with v' = dv/dt
    formed from what A already read.  ``node_parts()`` gives the same at
    ``gauss_nodes(grid)``, reading no table and evaluating no profile: the F
    gauge keeps F' and F'' at the nodes from its build, the xi gauge xi, xi'
    and h, and the tables give their own node values.  One per-gauge formula
    serves both.  ``curvature_of(t)`` and ``node_curvature()`` turn them into
    (A, B, C, v, v'), the one pass a ball integrand needs; the (A, B, C)
    algebra, f = v/r and the breakpoints are written once on top of them.
    """

    representation: Representation
    profile: GeneratorProfile
    grid: np.ndarray
    grid_record: GridRecord
    h_origin: float  # h(0), which is also f(0)
    parts_of: Callable
    node_parts: Callable
    xi_of: Callable
    h_of: Callable
    v_of: Callable
    s_of: Callable
    r_of: Callable
    x_of: Callable
    sprime_of: Callable
    xi_prime_of: Callable | None = None  # the xi gauge only
    fprime_of: Callable | None = None  # the F gauge only
    fpp_of: Callable | None = None  # the F gauge only

    def curvature_of(self, t):
        """(A, B, C, v, dv/dt) at native radii t."""
        t = _as_float(t)
        return _curvature(t > 0, *self.parts_of(t))

    def node_curvature(self):
        """(A, B, C, v, dv/dt) at ``gauss_nodes(grid)``, which never sit at the origin."""
        return _curvature(True, *self.node_parts())

    def abc_of(self, t):
        return self.curvature_of(t)[:3]

    def f_of(self, t):
        t = _as_float(t)
        return np.divide(self.v_of(t), self.r_of(t), out=np.full_like(t, self.h_origin), where=t > 0)

    @property
    def breakpoints_native(self):
        return self.profile.source.breakpoints()


def _xi_engine(profile: GeneratorProfile, opts: BuildOptions) -> Engine:
    """The r gauge: xi(r) given (or derived from an injected h); A = xi'(r)/h."""
    end = min(profile.domain_end, opts.r_max)
    grid = _master_grid(profile.source, end, opts.grid_size)
    # no difference stencil crosses a kink of the profile or its domain end
    knots = unique_sorted(np.concatenate((profile.source.breakpoints(), [profile.domain_end])))
    knots = knots[np.isfinite(knots)]

    def xi_prime_fd(t):
        t = _as_float(t)
        out = np.empty_like(t)
        pos = t > 0
        out[pos] = derivative_fd(xi_fn, t[pos], knots=knots)
        if np.any(~pos):
            eps = 1e-7
            # second-order one-sided difference at the origin
            out[~pos] = (4.0 * xi_fn(eps) - xi_fn(2 * eps) - 3.0 * xi_fn(0.0)) / (2 * eps)
        return out

    if profile.kind is GeneratorKind.XI:
        xi0 = float(eval_profile(profile, 0.0))
        if abs(xi0) > 1e-9:
            raise ProfileError(
                f"xi(0) = {xi0:.3g}; the h-integral needs xi(0) = 0 to converge"
            )
        xi_fn = _profile_fn(profile)
        grid, (xi_nodes,), record = _bisected_grid("r", grid, lambda t: (xi_fn(t),), _xi_tail)
        nodes = gauss_nodes(grid)
        # xi(0) = 0 makes xi(t)/t integrable; quadrature nodes never sit at 0
        log_h = CumulativeIntegral(xi_nodes / nodes, grid)
        h_nodes = opts.h0 * np.exp(-log_h.at_nodes())

        def h_fn(t):
            return opts.h0 * np.exp(-log_h(t))

        def xi_prime_of(t):
            exact = profile.source.derivative(_as_float(t))
            return xi_prime_fd(t) if exact is None else _as_float(exact)

        h_origin = opts.h0
    else:  # injected h; xi derived.  Origin-singular h is truncated at the grid floor.
        try:
            eval_profile(profile, 0.0)
        except (ArithmeticError, ProfileDomainError):
            grid = grid[grid > 0]
        h_fn = _profile_fn(profile)
        h_origin = float(h_fn(0.0)) if grid[0] == 0.0 else math.nan  # f_of(0) is out of range
        xi_prime_of = xi_prime_fd

        def xi_fn(t):
            t = _as_float(t)
            hp = profile.source.derivative(t)
            if hp is None:
                # keep the difference stencil off the origin
                floor = grid[0] if grid[0] > 0 else grid[1]
                hp = derivative_fd(h_fn, np.maximum(t, floor), knots=knots)
            return np.where(t == 0.0, 0.0, -t * _as_float(hp) / h_fn(t))

        grid, (xi_nodes,), record = _bisected_grid("r", grid, lambda t: (xi_fn(t),), _xi_tail)
        nodes = gauss_nodes(grid)
        h_nodes = h_fn(nodes)

    xi_prime_nodes = xi_prime_of(nodes)
    v = CumulativeIntegral(h_nodes, grid)
    w = CumulativeIntegral(xi_nodes * h_nodes, grid)
    ugrid = np.sqrt(grid)
    if ugrid[0] > 0:
        ugrid = np.concatenate(([0.0], ugrid))
    s_u = CumulativeIntegral(lambda u: np.sqrt(h_fn(u * u)), ugrid)

    def parts_of(t):
        return _xi_parts(xi_prime_of(t), h_fn(t), v(t), w(t), xi_fn(t))

    def node_parts():
        return _xi_parts(xi_prime_nodes, h_nodes, v.at_nodes(), w.at_nodes(), xi_nodes)

    return Engine(
        Representation.FROM_XI, profile, grid, record, h_origin,
        parts_of=parts_of,
        node_parts=node_parts,
        xi_of=xi_fn,
        h_of=h_fn,
        v_of=v,
        s_of=lambda t: s_u(np.sqrt(_as_float(t))),
        r_of=_as_float,
        x_of=lambda t: np.sqrt(_as_float(t) * h_fn(t)),
        sprime_of=lambda t: 0.5 * np.sqrt(h_fn(t) / _as_float(t)),  # ds/dr
        xi_prime_of=xi_prime_of,
    )


def _f_engine(profile: GeneratorProfile, opts: BuildOptions) -> Engine:
    """The x gauge: F''(x) given, F' its running integral; A = F'F''/(2x(1 + F'^2)^2)."""
    end = opts.x_max
    if end is None:
        end = profile.domain_end
        if not np.isfinite(end):
            bps = profile.source.breakpoints()
            end = 8.0 * float(np.max(bps)) if len(bps) else 1e4
    fpp = _profile_fn(profile)
    fp = profile.source.cumulative
    grid = _master_grid(profile.source, float(end), opts.grid_size)

    def evaluate(t):  # F'' and, where it has a closed form (not None), F'
        return tuple(u for u in (fpp(t), fp(t)) if u is not None)

    grid, values, record = _bisected_grid("x", grid, evaluate, _xi_prime_tail)
    nodes = gauss_nodes(grid)
    if len(values) == 2:
        pp_nodes, p_nodes = values
    else:  # no closed-form F': tabulate it
        (pp_nodes,) = values
        fp = CumulativeIntegral(pp_nodes, grid)
        p_nodes = fp.at_nodes()

    sq = np.hypot(1.0, p_nodes)
    sq_minus_1 = p_nodes * p_nodes / (1.0 + sq)  # sqrt(1 + F'^2) - 1, written stably
    # w = v - x^2 = integral of 2*tau*(sq - 1)
    w = CumulativeIntegral(2.0 * nodes * sq_minus_1, grid)
    s = CumulativeIntegral(sq, grid)
    # log(r/x^2): d/dx = 2*(sq - 1)/x, integrable since F'(x) ~ F''(0) x at 0
    logr = CumulativeIntegral(2.0 * sq_minus_1 / nodes, grid)

    def parts_of(t):
        return _f_parts(t, fp(t), fpp(t), w(t))

    def node_parts():
        return _f_parts(nodes, p_nodes, pp_nodes, w.at_nodes())

    return Engine(
        Representation.FROM_F, profile, grid, record, opts.h0,
        parts_of=parts_of,
        node_parts=node_parts,
        xi_of=lambda t: _xi_of_fprime(fp(t)),
        h_of=lambda t: opts.h0 * np.exp(-logr(t)),
        v_of=lambda t: np.square(t) + w(t),
        s_of=s,
        r_of=lambda t: np.square(t) * np.exp(logr(t)) / opts.h0,
        x_of=_as_float,
        sprime_of=lambda t: np.hypot(1.0, fp(t)),  # ds/dx
        fprime_of=fp,
        fpp_of=fpp,
    )


def _check_range(name: str, q, first: float, last: float) -> float:
    """max(q), once each query q of the table ``name`` is 0 or in [first, last]
    (a relative 1e-9 past ``last`` passes); else, NaN included, ValueError.
    An in-range query costs two reductions (none for a 0-d q, which compares
    as a float) and two scalar comparisons."""
    low, top = (q.min(initial=np.inf), q.max(initial=-np.inf)) if q.ndim else (float(q),) * 2
    if not low >= first:  # NaN fails here
        low = np.min(q[q != 0], initial=np.inf)  # the origin is always in range
        if not low >= first:
            why = ("not a number" if np.isnan(low) else "below 0" if first == 0
                   else f"below the first positive table node {name}1 = {first:.6g}")
            raise ValueError(f"{name} = {low:.6g} is {why}")
    if not top <= last * (1 + 1e-9):
        raise ValueError(f"{name} = {top:.6g} is beyond the tabulated {name} <= {last:.6g}")
    return top


class _TableInverse:
    """The native coordinate t at values q of an increasing table q(t).

    Seed: the cubic Hermite of ln t against ln q through the positive table
    nodes, with the exact node slopes d ln t/d ln q.  An interval where a
    slope is unbounded (the saturated x plateau), or where the cubic would not
    be monotone (Fritsch & Carlson's test), is linear as in ``np.interp``.
    Polish: Newton steps on ln q(t) = ln q, with the seed's own slope and
    kept inside the bracketing interval, until the log-residual is rounding.
    The origin answers q = 0.  Between the origin and the first positive
    node q1 the table has no data, and past the last node it has none
    either, so a query there raises ValueError, as a NaN query does; the
    last node answers its own value, and queries within a relative 1e-9
    beyond it, with itself exactly.  A point
    that is done keeps its t while others step, and a 0-d query runs on
    numpy scalars, so a point gets the same bits alone or in a batch.
    """

    def __init__(self, name: str, q_of, values, native, log_slope):
        pos = (values > 0) & (native > 0)
        q, t, dq = values[pos], native[pos], log_slope[pos]
        # strictly above every earlier point: a saturated x table only jitters
        keep = np.concatenate(([True], q[1:] > np.maximum.accumulate(q)[:-1]))
        self.name, self._q_of = name, q_of
        self._q, self._t, dq = q[keep], t[keep], dq[keep]
        self._lq, self._lt = np.log(self._q), np.log(self._t)
        secant = np.diff(self._lt) / np.diff(self._lq)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = 1.0 / dq  # d ln t/d ln q, infinite where q is flat in t
            a, b = m[:-1] / secant, m[1:] / secant
            cubic = (a >= 0) & (b >= 0) & (a * a + b * b <= 9.0)  # False on inf, nan
        m0, m1 = np.where(cubic, m[:-1], secant), np.where(cubic, m[1:], secant)
        self._coef = np.stack((m0, 3.0 * secant - 2.0 * m0 - m1, m0 + m1 - 2.0 * secant))
        self._flat = (dq[:-1] <= FLAT_SLOPE) | (dq[1:] <= FLAT_SLOPE)

    def __call__(self, q):
        """(native coordinate, final log-residual ln(q(t)/q)) at q."""
        lq_nodes, q = self._lq, _as_float(q)  # a 0-d query computes on numpy scalars
        top = _check_range(self.name, q, self._q[0], self._q[-1])
        origin = q == 0
        q = np.minimum(np.maximum(q, self._q[0]), self._q[-1])
        lq = np.log(q)
        i = np.minimum(np.maximum(lq_nodes.searchsorted(lq, side="right") - 1, 0), lq_nodes.size - 2)
        c1, c2, c3 = self._coef.take(i, axis=1)
        d = lq - lq_nodes[i]
        u = d / (lq_nodes[i + 1] - lq_nodes[i])
        slope = c1 + u * (2.0 * c2 + 3.0 * u * c3)
        lo, hi = self._t[i], self._t[i + 1]
        t = np.minimum(np.maximum(np.exp(self._lt[i] + d * (c1 + u * (c2 + u * c3))), lo), hi)
        if top >= self._q[-1]:  # the seed can land an ulp short of the last node
            t = np.where(q == self._q[-1], self._t[-1], t)
        res = np.log(self._q_of(t) / q)
        live, steps = np.ones(q.shape, dtype=bool), 0
        while True:
            # done at rounding: of q(t), or of t where q is steeper than t; a
            # point that is done keeps its t, so no query moves it with others
            live &= ~((np.abs(res) <= 2.0 * _EPS) | (np.abs(slope * res) <= _EPS))
            if steps == NEWTON_STEPS or not np.count_nonzero(live):
                break
            t = np.where(live, np.minimum(np.maximum(t * np.exp(-slope * res), lo), hi), t)
            res = np.where(live, np.log(self._q_of(t) / q), res)
            steps += 1
        if np.count_nonzero(origin):
            t, res = np.where(origin, 0.0, t), np.where(origin, 0.0, res)
        t, res = np.asarray(t), np.asarray(res)  # 0-d arrays for a 0-d query
        self._report(res, i, steps)
        return t, res

    def _report(self, res, i, steps):
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%s inverse: %d point(s), %d Newton step(s), worst log-residual %.3g",
                      self.name, np.size(res), steps, float(np.max(np.abs(res), initial=0.0)))
        stuck = (np.abs(res) > RESIDUAL_WARN) & ~self._flat[i]
        if np.count_nonzero(stuck):
            log.warning("%s inverse: log-residual %.3g after %d Newton steps at %d point(s)",
                        self.name, float(np.max(np.abs(res[stuck]))), steps,
                        int(np.count_nonzero(stuck)))


@dataclass(eq=False)
class MetricModel:
    n: int
    representation: Representation
    profile: GeneratorProfile
    options: BuildOptions
    classification: Classification
    engine: Engine = field(repr=False)
    r: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    xi: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    # derived tables, built on first use: the s/r/x inverses, ball-integral
    # cumulatives keyed by density
    _cache: dict = field(default_factory=dict, repr=False)

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

    def _inverse(self, table: str) -> _TableInverse:
        """The native coordinate as a function of the ``s``, ``r`` or ``x`` table."""
        key = ("inverse", table)
        if key not in self._cache:
            t = self.native
            # d ln q/d ln t at the nodes: r = t^2/h on the F gauge, x = sqrt(t h) on the xi gauge
            with np.errstate(divide="ignore", invalid="ignore"):  # the origin node
                if table == "s":
                    log_slope = t * self.engine.sprime_of(t) / self.s
                elif table == "r":
                    log_slope = 2.0 / (1.0 - self.xi)
                else:
                    log_slope = 0.5 * (1.0 - self.xi)
            self._cache[key] = _TableInverse(
                table, getattr(self.engine, f"{table}_of"), getattr(self, table), t, log_slope
            )
        return self._cache[key]

    def radius_from_s(self, s):
        """Native radius at geodesic distance s."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr <= 0):
            raise ValueError(f"distance outside the tabulated range (0, {self.s[-1]:.6g}]")
        return scalar_like(s, self._inverse("s")(s_arr)[0])

    def _native_from(self, table: str, q):
        """Native radius at the ``r`` or ``x`` coordinate q: in the model's own
        coordinate q itself, checked and clamped onto the last node as by an inverse."""
        q_arr = _as_float(q)
        if table != ("r" if self.representation is Representation.FROM_XI else "x"):
            return scalar_like(q, self._inverse(table)(q_arr)[0])
        end = self.native_end
        if _check_range(table, q_arr, 0.0, end) > end:
            q_arr = np.minimum(q_arr, end)
        return scalar_like(q, q_arr)

    def native_from_r(self, r):
        """Native radius at r = |z|^2."""
        return self._native_from("r", r)

    def native_from_x(self, x):
        """Native radius at transverse radius x (x^2 = r*h); none past saturation."""
        return self._native_from("x", x)

    def describe(self) -> dict:
        cls = self.classification
        return {
            "profile": self.profile.name,
            "n": self.n,
            "representation": self.representation.value,
            "classification": cls.as_dict(),
            "grid_nodes": len(self.native),
            "grid": self.engine.grid_record.as_dict(),
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

    build = _f_engine if profile.kind is GeneratorKind.FPP else _xi_engine
    engine = build(profile, opts)

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
    return scalar_like(fprime, _xi_of_fprime(fp))


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
    """Rebuild a saved model; bit-identical to it on the same numpy build and
    the same cvlab grid rule.

    A sampled generator is interpolated by scipy's PCHIP, so a sampled model
    is bit-identical on the same scipy build too.  Retired build options
    (``nodes_per_feature``, whose bisected x grid moves the tables within its
    tolerance; the quadrature tolerance and series length, now constants of
    ``cvlab.integrals``) are dropped with one warning naming them, and any
    other unknown option fails to load.  A file saved with ``grid_size`` null
    rebuilds on the base of 16 nodes per decade; one saved when the x gauge's
    default base was 4 096 nodes gets x-gauge tables that move within GRID_TOL.
    """
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
    options = doc["options"]
    retired = {key: options.pop(key) for key in ("nodes_per_feature", "quad_rel_tol",
                                                  "series_points") if key in options}
    if retired:
        log.warning("%s: dropped the retired build option(s) %s", path, ", ".join(retired))
    return build_metric(profile, doc["n"], BuildOptions(**options))
