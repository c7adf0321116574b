"""Generator profiles for rotation-invariant metrics.

A metric is specified by one radial generator function, in one of three
equivalent gauges:

* ``xi``  -- the logarithmic-derivative profile xi(r) = -r h'(r)/h(r),
* ``fpp`` -- the second derivative F''(x) of the convex transverse profile,
* ``h``   -- the angular coefficient h(r) itself.

Profiles come from closed-form expressions (:mod:`cvlab.expr`), from sampled
tables (monotone piecewise-cubic interpolation), or from the built-in families
in :mod:`cvlab.families`.  Validation checks the structural constraints that
make the resulting metric complete with nonnegative bisectional curvature.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .expr import Expr, evaluate, evaluate_derivative, parse_expression, to_source
from .quadrature import CubicHermite, unique_sorted

XI_ZERO_TOL = 1e-12  # |xi(0)| must not exceed this
SLOPE_TOL = -1e-9  # finite-difference slopes may dip this far below zero
CAP_TOL = 1e-12  # xi may exceed 1 by at most this
VALIDATION_POINTS = 512


class GeneratorKind(enum.Enum):
    XI = "xi"
    FPP = "fpp"
    H = "h"


class ProfileError(ValueError):
    pass


class ProfileDomainError(ProfileError):
    """Evaluation requested outside a profile's domain."""


@dataclass(frozen=True)
class Violation:
    check: str
    t: float
    value: float

    def __str__(self) -> str:
        return f"{self.check}: value {self.value:.6g} at t = {self.t:.6g}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    grid_used: np.ndarray
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        if self.ok:
            return "ok"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  {v}" for v in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


class ProfileSource:
    """Base class for evaluable radial profiles.

    Subclasses must implement ``__call__`` (vectorized over ndarray input).
    The optional hooks let sources expose exact structure -- analytic
    derivatives, kink locations for quadrature, exact running integrals --
    that the metric builder exploits when present.
    """

    domain_end: float = np.inf

    def __call__(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, t: np.ndarray) -> np.ndarray | None:
        return None

    def cumulative(self, t: np.ndarray) -> np.ndarray | None:
        """Exact running integral from 0, when the source knows it."""
        return None

    @property
    def total_mass(self) -> float | None:
        """Exact integral over the full domain, when known."""
        return None

    def breakpoints(self) -> np.ndarray:
        """Locations where the profile is not smooth."""
        return np.empty(0)

    def refinement_nodes(self) -> np.ndarray:
        """Fixed extra grid nodes resolving localized features."""
        return np.empty(0)

    def spec(self) -> dict:
        """JSON-ready constructor arguments, for saving a model's recipe."""
        raise ValueError(
            f"{type(self).__name__} cannot be saved: it has no spec() to rebuild it from"
        )

    @classmethod
    def from_spec(cls, spec: dict) -> "ProfileSource":
        """The source that :meth:`spec` describes."""
        return cls(**spec)


class ClosedFormSource(ProfileSource):
    def __init__(self, ast: Expr | str, domain_end: float = np.inf):
        self.ast = parse_expression(ast) if isinstance(ast, str) else ast
        self.domain_end = float(domain_end)

    def __call__(self, t):
        return evaluate(self.ast, t)

    def derivative(self, t):
        return evaluate_derivative(self.ast, t)

    def spec(self):
        # parse(to_source(ast)) gives back the same tree
        return {"ast": to_source(self.ast), "domain_end": self.domain_end}

    def __repr__(self):
        return f"ClosedFormSource({to_source(self.ast)!r})"


def _pchip_slopes(x, y):
    """Node slopes of the monotone piecewise cubic through (x, y), by the PCHIP
    rules (Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5, 1984, with the
    ends of Moler, Numerical Computing with MATLAB, 3.6).  At an interior
    node k the slope is the weighted harmonic mean of the secants m_(k-1)
    and m_k, with weights 2 h_k + h_(k-1) and h_k + 2 h_(k-1), or 0 where
    they change sign or one is 0.  An end slope is the three-point formula,
    0 where its sign differs from the end secant and capped at three times
    that secant where the first two secants differ in sign.  Two samples give
    the line through them."""
    h = np.diff(x)
    m = np.diff(y) / h
    if m.size == 1:
        return np.array([m[0], m[0]])
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))

    def end(h0, h1, m0, m1):
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        return 3.0 * m0 if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0) else d

    return np.concatenate(([end(h[0], h[1], m[0], m[1])], inner,
                           [end(h[-1], h[-2], m[-1], m[-2])]))


class SampledSource(ProfileSource):
    """Monotone cubic interpolant through sampled (t, value) pairs: the
    ``CubicHermite`` through the samples with PCHIP node slopes
    (``_pchip_slopes``), in numpy alone, so a saved sampled model reloads
    bit for bit.  Each sample, the last included, reads its own value.

    Extrapolation beyond the last sample is an error, not a guess.
    """

    def __init__(self, ts: np.ndarray, values: np.ndarray):
        ts = np.asarray(ts, dtype=float)
        values = np.asarray(values, dtype=float)
        if ts.ndim != 1 or ts.shape != values.shape or len(ts) < 2:
            raise ProfileError("samples must be two equal-length 1-d arrays with >= 2 rows")
        if ts[0] < 0 or np.any(np.diff(ts) <= 0):
            raise ProfileError("sample abscissae must be nonnegative and strictly increasing")
        self.ts = ts
        self.values = values
        slopes = _pchip_slopes(ts, values)
        self._cubic = CubicHermite(ts, values, slopes[:-1], slopes[1:])
        self.domain_end = float(ts[-1])

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < self.ts[0]) or np.any(t_arr > self.ts[-1] * (1 + 1e-12)):
            bad = t_arr[(t_arr < self.ts[0]) | (t_arr > self.ts[-1] * (1 + 1e-12))]
            raise ProfileDomainError(
                f"sampled profile queried at t = {float(np.ravel(bad)[0]):.6g}, "
                f"outside [{self.ts[0]:.6g}, {self.ts[-1]:.6g}]"
            )
        t_arr = np.minimum(t_arr, self.ts[-1])
        # the last sample is u = 1 of the last interval, which rounds
        return np.where(t_arr == self.ts[-1], self.values[-1], self._cubic(t_arr)[1])

    def derivative(self, t):
        return self._cubic(np.clip(np.asarray(t, dtype=float), self.ts[0], self.ts[-1]))[2]

    def breakpoints(self):
        return self.ts

    def spec(self):
        # JSON floats round-trip exactly
        return {"ts": self.ts.tolist(), "values": self.values.tolist()}

    def __repr__(self):
        return f"SampledSource({len(self.ts)} samples on [0, {self.ts[-1]:g}])"


@dataclass(frozen=True)
class GeneratorProfile:
    kind: GeneratorKind
    source: ProfileSource
    name: str = "profile"

    @property
    def domain_end(self) -> float:
        return self.source.domain_end


def eval_profile(profile: GeneratorProfile, t) -> np.ndarray:
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ProfileDomainError("profiles are defined for t >= 0")
    if np.any(t_arr > profile.domain_end * (1 + 1e-12)):
        raise ProfileDomainError(
            f"profile {profile.name!r} queried beyond its domain end {profile.domain_end:g}"
        )
    return profile.source(t)


def _validation_grid(profile: GeneratorProfile, span: float) -> np.ndarray:
    end = min(profile.domain_end, span)
    lo = min(1e-8, end / 1e6)
    grid = np.concatenate(([0.0], np.geomspace(lo, end, VALIDATION_POINTS)))
    extra = profile.source.breakpoints()
    if len(extra):
        grid = np.concatenate((grid, extra[(extra >= 0) & (extra <= end)]))
    return unique_sorted(grid)


def validate_xi(profile: GeneratorProfile, grid: np.ndarray | None = None) -> ValidationReport:
    """Check xi(0) = 0, xi nondecreasing, xi <= 1 on a log-spaced grid.

    These three conditions are exactly nonnegative bisectional curvature of
    the metric generated by xi; the slope check uses finite differences with
    tolerance ``SLOPE_TOL`` so that smoothed piecewise profiles pass.
    """
    if profile.kind is not GeneratorKind.XI:
        raise ProfileError(f"validate_xi needs a xi-kind profile, got {profile.kind.value}")
    if grid is None:
        grid = _validation_grid(profile, 1e8)
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(eval_profile(profile, grid), dtype=float)

    violations: list[Violation] = []
    at_zero = vals[grid == 0.0]
    if len(at_zero) and abs(at_zero[0]) > XI_ZERO_TOL:
        violations.append(Violation("xi(0) != 0", 0.0, float(at_zero[0])))
    slopes = np.diff(vals) / np.diff(grid)
    for i in np.flatnonzero(slopes < SLOPE_TOL):
        violations.append(Violation("xi decreasing", float(grid[i + 1]), float(slopes[i])))
    for i in np.flatnonzero(vals > 1.0 + CAP_TOL):
        violations.append(Violation("xi > 1", float(grid[i]), float(vals[i])))

    details = {"sup_xi": float(np.max(vals)), "xi_end": float(vals[-1])}
    return ValidationReport(not violations, tuple(violations), grid, details)


def validate_F(profile: GeneratorProfile, grid: np.ndarray | None = None) -> ValidationReport:
    """Check F'' >= 0 on a grid and estimate the limit of F'.

    Convexity of F is the curvature-sign condition in this gauge; the limit
    F'(inf) (reported in ``details``) decides the volume growth class.
    """
    if profile.kind is not GeneratorKind.FPP:
        raise ProfileError(f"validate_F needs an fpp-kind profile, got {profile.kind.value}")
    if grid is None:
        grid = _validation_grid(profile, 1e8)
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(eval_profile(profile, grid), dtype=float)

    violations = [
        Violation("F'' negative", float(grid[i]), float(vals[i]))
        for i in np.flatnonzero(vals < SLOPE_TOL)
    ]

    details: dict = {}
    mass = profile.source.total_mass
    if mass is not None:
        details["fprime_limit"] = float(mass)
        details["fprime_limit_converged"] = True
    else:
        # Integrate F'' over trailing decades; converged when increments decay.
        from .quadrature import CumulativeIntegral

        cum = CumulativeIntegral(lambda t: np.asarray(profile.source(t), dtype=float), grid)
        decades = grid[-1] / np.array([1e3, 1e2, 1e1, 1e0])
        decades = decades[decades >= grid[1]]
        partials = np.array([cum(d) for d in decades])
        details["fprime_limit"] = float(partials[-1])
        increments = np.abs(np.diff(partials))
        details["fprime_limit_converged"] = bool(
            len(increments) >= 2 and increments[-1] <= 0.05 * max(partials[-1], 1e-300)
        )
    return ValidationReport(not violations, tuple(violations), grid, details)


def validate_h(profile: GeneratorProfile, grid: np.ndarray | None = None) -> ValidationReport:
    """Positivity and monotonicity (nonincreasing) checks for injected h."""
    if profile.kind is not GeneratorKind.H:
        raise ProfileError(f"validate_h needs an h-kind profile, got {profile.kind.value}")
    if grid is None:
        grid = _validation_grid(profile, 1e8)
        grid = grid[grid > 0]  # injected h may be singular at the origin
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(eval_profile(profile, grid), dtype=float)
    violations = [
        Violation("h not positive", float(grid[i]), float(vals[i]))
        for i in np.flatnonzero(vals <= 0.0)
    ]
    # increasing h means xi < 0 somewhere; allow slope up to |SLOPE_TOL| * scale
    slopes = np.diff(vals) / np.diff(grid)
    ceiling = np.abs(SLOPE_TOL) * np.maximum(np.abs(vals[:-1]), 1.0)
    for i in np.flatnonzero(slopes > ceiling):
        violations.append(Violation("h increasing", float(grid[i + 1]), float(slopes[i])))
    return ValidationReport(not violations, tuple(violations), grid, {})


def validate(profile: GeneratorProfile, grid: np.ndarray | None = None) -> ValidationReport:
    if profile.kind is GeneratorKind.XI:
        return validate_xi(profile, grid)
    if profile.kind is GeneratorKind.FPP:
        return validate_F(profile, grid)
    return validate_h(profile, grid)


# ---------------------------------------------------------------------------
# profile files


@dataclass(frozen=True)
class FamilySpec:
    """Parsed ``kind = family`` stanza; resolved by :mod:`cvlab.families`."""

    family: str
    params: dict


class ProfileFileError(ValueError):
    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


def load_samples_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column (t, value) CSV with a header row."""
    path = Path(path)
    rows = []
    with path.open() as fh:
        header = fh.readline()
        if header.strip().lower().replace(" ", "") not in ("t,value", "t,val"):
            raise ProfileFileError(path, 1, f"expected header 't,value', got {header.strip()!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ProfileFileError(path, lineno, f"expected two columns, got {len(parts)}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ProfileFileError(path, lineno, f"non-numeric row {line!r}") from None
    if len(rows) < 2:
        raise ProfileFileError(path, 1, "need at least two sample rows")
    arr = np.asarray(rows, dtype=float)
    return arr[:, 0], arr[:, 1]


def parse_scalar(text: str):
    """``text`` as an int, else as a float (``1e2``, ``inf``, ``nan``), else as is."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def load_profile(path) -> GeneratorProfile | FamilySpec:
    """Parse a ``key = value`` profile file.

    Keys: ``kind`` (xi | fpp | h | family), then either ``expr`` or
    ``samples`` (CSV path, relative to the profile file), optionally
    ``domain_end`` and ``name``.  ``kind = family`` takes ``family`` plus
    family parameters, returned unresolved as a :class:`FamilySpec`.
    """
    path = Path(path)
    entries: dict[str, str] = {}
    lines: dict[str, int] = {}
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ProfileFileError(path, lineno, f"expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
                value = value[1:-1]
            if key in entries:
                raise ProfileFileError(path, lineno, f"duplicate key {key!r}")
            entries[key] = value
            lines[key] = lineno

    if "kind" not in entries:
        raise ProfileFileError(path, 1, "missing 'kind'")
    kind_text = entries.pop("kind").lower()
    name = entries.pop("name", path.stem)

    if kind_text == "family":
        if "family" not in entries:
            raise ProfileFileError(path, lines["kind"], "kind = family requires 'family ='")
        family = entries.pop("family").lower()
        return FamilySpec(family, {k: parse_scalar(v) for k, v in entries.items()})

    try:
        kind = GeneratorKind(kind_text)
    except ValueError:
        raise ProfileFileError(
            path, lines["kind"], f"kind must be xi, fpp, h or family, got {kind_text!r}"
        ) from None

    domain_end = float(entries.pop("domain_end", "inf"))
    if "expr" in entries and "samples" in entries:
        raise ProfileFileError(path, lines["expr"], "give either 'expr' or 'samples', not both")
    if "expr" in entries:
        source: ProfileSource = ClosedFormSource(entries.pop("expr"), domain_end=domain_end)
    elif "samples" in entries:
        ts, values = load_samples_csv(path.parent / entries.pop("samples"))
        source = SampledSource(ts, values)
    else:
        raise ProfileFileError(path, 1, "need 'expr =' or 'samples ='")
    if entries:
        stray = next(iter(entries))
        raise ProfileFileError(path, lines[stray], f"unknown key {stray!r}")
    return GeneratorProfile(kind, source, name=name)
