"""Built-in profile families.

Two kinds of construction live here:

* step families for F'': trains of bumps at integer stations l = l_min..l_max
  with heights l^height_exponent and widths l^-width_exponent, either raw
  indicators or C^2-smoothed bumps with exact closed-form running integrals;
* a quintic saturation ramp for xi that reaches 1 at a finite radius r0 and
  stays there, producing cylinder-like ends.

The ``*_counterexample`` constructors assemble full metric models from these
profiles with the parameter gates that make the relevant curvature integrals
diverge while total mass stays finite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .profiles import (
    ClosedFormSource,
    GeneratorKind,
    GeneratorProfile,
    ProfileError,
    ProfileSource,
)


class ParameterGateError(ValueError):
    """Family parameters outside the regime the construction needs."""


def _smoothstep(u: np.ndarray) -> np.ndarray:
    # quintic smoothstep: S(0)=0, S(1)=1, S' = S'' = 0 at both ends
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


# powers as ufuncs, so scalar queries round like array ones (see scalar_like)
def _smoothstep_integral(u: np.ndarray) -> np.ndarray:
    # Q(u) = integral of S from 0; Q(1) = 1/2
    return np.power(u, 4) * (2.5 + u * (-3.0 + u))


def _smoothstep_deriv(u: np.ndarray) -> np.ndarray:
    return 30.0 * u * u * np.square(1.0 - u)


@dataclass(frozen=True)
class StepFamily:
    """Stations l = l_min..l_max, heights l^height_exponent, widths l^-width_exponent."""

    height_exponent: float
    width_exponent: float
    l_min: int = 2
    l_max: int = 64

    def __post_init__(self):
        if self.l_min < 2 or self.l_max < self.l_min:
            raise ProfileError("need 2 <= l_min <= l_max")
        if self.width_exponent <= 0:
            raise ProfileError("width exponent must be positive so steps stay disjoint")

    def stations(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_max + 1, dtype=float)

    def heights(self) -> np.ndarray:
        return self.stations() ** self.height_exponent

    def widths(self) -> np.ndarray:
        return self.stations() ** -self.width_exponent


class _StepSourceBase(ProfileSource):
    def __init__(self, family: StepFamily):
        self.family = family
        self.a = family.stations()
        self.w = family.widths()
        self.b = self.a + self.w
        self.H = family.heights()
        if np.any(self.b[:-1] > self.a[1:]):
            raise ProfileError("steps overlap; widths too large for unit spacing")

    def breakpoints(self):
        return np.sort(np.concatenate((self.a, self.b)))

    def _index(self, t: np.ndarray) -> np.ndarray:
        # at most one step can contribute at any t (steps are disjoint)
        return np.clip(np.searchsorted(self.a, t, side="right") - 1, 0, len(self.a) - 1)

    def spec(self):
        return {"family": asdict(self.family)}

    @classmethod
    def from_spec(cls, spec):
        spec = dict(spec)
        return cls(StepFamily(**spec.pop("family")), **spec)


class RawStepSource(_StepSourceBase):
    """Indicator steps; discontinuous, integrals still exact."""

    def __init__(self, family: StepFamily):
        super().__init__(family)
        self.masses = self.H * self.w
        self.cmass = np.concatenate(([0.0], np.cumsum(self.masses)))

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        i = self._index(t_arr)
        return np.where((t_arr >= self.a[i]) & (t_arr < self.b[i]), self.H[i], 0.0)

    def cumulative(self, t):
        t_arr = np.asarray(t, dtype=float)
        i = self._index(t_arr)
        # before the first station i = 0 and the clip gives exactly 0
        return self.cmass[i] + self.H[i] * np.clip(t_arr - self.a[i], 0.0, self.w[i])

    @property
    def total_mass(self):
        return float(self.cmass[-1])

    def __repr__(self):
        fam = self.family
        return f"RawStepSource(l={fam.l_min}..{fam.l_max}, h~l^{fam.height_exponent:g}, w~l^-{fam.width_exponent:g})"


class SmoothStepSource(_StepSourceBase):
    """C^2 bumps: rise/plateau/fall built from quintic smoothsteps.

    Each step keeps its station, height and width; a fraction ``factor`` of
    the width is spent on each transition, so the exact mass per step is
    (1 - factor) * H * w.  Running integrals are closed-form, which keeps the
    metric builder's quadrature honest across features five orders of
    magnitude below the grid scale; the builder bisects its x grid across
    each transition as far as the curvature there needs.
    """

    def __init__(self, family: StepFamily, factor: float = 0.25):
        super().__init__(family)
        if not 0.0 < factor < 0.5:
            raise ProfileError("transition factor must lie in (0, 0.5)")
        self.factor = factor
        self.tw = factor * self.w
        self.masses = (1.0 - factor) * self.H * self.w
        self.cmass = np.concatenate(([0.0], np.cumsum(self.masses)))

    def breakpoints(self):
        # interior seams too: curvature of the bump jumps where the
        # transitions hand over to the plateau
        return np.sort(
            np.concatenate((self.a, self.a + self.tw, self.b - self.tw, self.b))
        )

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        i = self._index(t_arr)
        u_rise = np.clip((t_arr - self.a[i]) / self.tw[i], 0.0, 1.0)
        u_fall = np.clip((self.b[i] - t_arr) / self.tw[i], 0.0, 1.0)
        return self.H[i] * _smoothstep(u_rise) * _smoothstep(u_fall)

    def derivative(self, t):
        t_arr = np.asarray(t, dtype=float)
        i = self._index(t_arr)
        u_rise = np.clip((t_arr - self.a[i]) / self.tw[i], 0.0, 1.0)
        u_fall = np.clip((self.b[i] - t_arr) / self.tw[i], 0.0, 1.0)
        return (self.H[i] / self.tw[i]) * (
            _smoothstep_deriv(u_rise) * _smoothstep(u_fall)
            - _smoothstep(u_rise) * _smoothstep_deriv(u_fall)
        )

    def cumulative(self, t):
        t_arr = np.asarray(t, dtype=float)
        i = self._index(t_arr)
        a, b, tw = self.a[i], self.b[i], self.tw[i]
        rise = tw * _smoothstep_integral(np.clip((t_arr - a) / tw, 0.0, 1.0))
        plateau = np.clip(t_arr - (a + tw), 0.0, b - a - 2.0 * tw)
        fall = tw * (0.5 - _smoothstep_integral(np.clip((b - t_arr) / tw, 0.0, 1.0)))
        # before the first station i = 0 and rise, plateau and fall are exactly 0
        return self.cmass[i] + self.H[i] * (rise + plateau + fall)

    @property
    def total_mass(self):
        return float(self.cmass[-1])

    def spec(self):
        return {**super().spec(), "factor": self.factor}

    def __repr__(self):
        fam = self.family
        return (
            f"SmoothStepSource(l={fam.l_min}..{fam.l_max}, h~l^{fam.height_exponent:g}, "
            f"w~l^-{fam.width_exponent:g}, factor={self.factor:g})"
        )


class SaturationRampSource(ProfileSource):
    """xi profile that ramps 0 -> 1 on [r0/2, r0] and stays at 1 after.

    The ramp is a quintic smoothstep, so xi is C^2 everywhere; past r0 the
    angular size r*h(r) freezes and the metric opens a cylinder-like end.
    """

    def __init__(self, r0: float):
        if r0 <= 0:
            raise ProfileError("r0 must be positive")
        self.r0 = float(r0)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        u = np.clip((t_arr - 0.5 * self.r0) / (0.5 * self.r0), 0.0, 1.0)
        return _smoothstep(u)

    def derivative(self, t):
        t_arr = np.asarray(t, dtype=float)
        u = np.clip((t_arr - 0.5 * self.r0) / (0.5 * self.r0), 0.0, 1.0)
        return _smoothstep_deriv(u) * (2.0 / self.r0)

    def breakpoints(self):
        return np.array([0.5 * self.r0, self.r0])

    def refinement_nodes(self):
        # a fixed 1 025 nodes: the saturated plateau's x inverse needs the ramp dense
        return np.linspace(0.5 * self.r0, self.r0, 1025)

    def spec(self):
        return {"r0": self.r0}

    def __repr__(self):
        return f"SaturationRampSource(r0={self.r0:g})"


# ---------------------------------------------------------------------------
# profile constructors


def step_profile(
    height_exponent: float,
    width_exponent: float,
    l_min: int = 2,
    l_max: int = 64,
) -> GeneratorProfile:
    family = StepFamily(height_exponent, width_exponent, l_min, l_max)
    name = f"steps(h~l^{height_exponent:g}, w~l^-{width_exponent:g}, l<={l_max})"
    return GeneratorProfile(GeneratorKind.FPP, RawStepSource(family), name=name)


def smooth_step_profile(profile: GeneratorProfile, factor: float = 0.25) -> GeneratorProfile:
    """C^2 smoothing of a raw step profile: same stations, heights and widths.

    A fraction ``factor`` of each width goes to the rise and fall transitions,
    so each rectangle keeps (1 - factor) of its mass exactly.
    """
    source = profile.source
    if not isinstance(source, RawStepSource):
        raise ProfileError("smoothing is defined for raw step profiles")
    name = "smooth-" + profile.name
    return GeneratorProfile(
        GeneratorKind.FPP, SmoothStepSource(source.family, factor), name=name
    )


def polynomial_xi(a: float, shape: str = "rational") -> GeneratorProfile:
    """Smooth xi profile with limit a: rational a*t/(1+t), or exponential a*(1-exp(-t)),
    written -a*expm1(-t) so that it keeps its digits near t = 0."""
    if not 0.0 <= a <= 1.0:
        raise ProfileError("limit a must lie in [0, 1] for a valid xi profile")
    if shape == "rational":
        src = f"{a!r} * t / (1 + t)"
    elif shape == "exponential":
        src = f"-{a!r} * expm1(-t)"
    else:
        raise ProfileError(f"shape must be 'rational' or 'exponential', got {shape!r}")
    return GeneratorProfile(
        GeneratorKind.XI, ClosedFormSource(src), name=f"poly-xi(a={a:g}, {shape})"
    )


def saturation_ramp(r0: float) -> GeneratorProfile:
    return GeneratorProfile(
        GeneratorKind.XI, SaturationRampSource(r0), name=f"saturation-ramp(r0={r0:g})"
    )


def flat_profile() -> GeneratorProfile:
    return GeneratorProfile(GeneratorKind.XI, ClosedFormSource("0 * t"), name="flat")


# ---------------------------------------------------------------------------
# metric constructors


def yau_counterexample(
    n: int = 3, k: int = 2, l_max: int = 64, factor: float = 0.25, options=None
):
    """Metric with finite total F'-mass whose sigma_k ball averages grow without bound.

    Steps of height l and width l^(-5/2): the F' limit converges like
    sum l^(-3/2) while sum of height^2 * width = sum l^(-1/2) diverges, which
    is what pumps the k-th curvature sums for 2 <= k <= n-1.  The construction
    itself does not depend on k; the gate mirrors the range where the
    divergence statement applies.
    """
    from .metric import build_metric

    if n < 3:
        raise ParameterGateError("need n >= 3 so that some k with 2 <= k < n exists")
    if not 2 <= k < n:
        raise ParameterGateError(f"need 2 <= k < n, got k={k}, n={n}")
    profile = smooth_step_profile(step_profile(1.0, 2.5, l_max=l_max), factor=factor)
    return build_metric(profile, n, options)


def lp_counterexample(
    n: int = 2,
    p: float = 2.0,
    alpha: float = 2.0,
    beta: float = 3.5,
    l_max: int = 64,
    factor: float = 0.25,
    options=None,
):
    """Metric with scalar curvature in no L^p ball average, p > 1.

    Gate (margin 1e-9): 1 + alpha < beta < p*(alpha - 1) + 2.  The left
    inequality keeps F'(inf) finite (completeness with Euclidean volume
    growth); the right one makes the |A|^p sums diverge.
    """
    from .metric import build_metric

    margin = 1e-9
    if p <= 1.0:
        raise ParameterGateError("need p > 1")
    if not (1.0 + alpha + margin < beta < p * (alpha - 1.0) + 2.0 - margin):
        raise ParameterGateError(
            f"need 1 + alpha < beta < p*(alpha-1) + 2 with margin {margin:g}: "
            f"alpha={alpha:g}, beta={beta:g}, p={p:g}"
        )
    profile = smooth_step_profile(step_profile(alpha, beta, l_max=l_max), factor=factor)
    return build_metric(profile, n, options)


def s3_metric(n: int = 2, r0: float = 1.0, options=None):
    """Metric whose xi saturates at 1 by radius r0: linear-volume cylinder end."""
    from .metric import build_metric

    return build_metric(saturation_ramp(r0), n, options)


def flat_metric(n: int = 2, options=None):
    from .metric import build_metric

    return build_metric(flat_profile(), n, options)


def family_from_spec(spec, options=None):
    """Resolve a FamilySpec (from a profile file or CLI) into a model or profile."""
    fam = spec.family
    params = dict(spec.params)

    def take(key, default):
        return params.pop(key, default)

    if fam in ("yau", "sigma"):
        n = int(take("n", 3))
        model = yau_counterexample(
            n,
            k=int(take("k", 2)),
            l_max=int(take("l_max", 64)),
            factor=float(take("factor", 0.25)),
            options=options,
        )
    elif fam == "lp":
        model = lp_counterexample(
            int(take("n", 2)),
            p=float(take("p", 2.0)),
            alpha=float(take("alpha", 2.0)),
            beta=float(take("beta", 3.5)),
            l_max=int(take("l_max", 64)),
            factor=float(take("factor", 0.25)),
            options=options,
        )
    elif fam == "s3":
        model = s3_metric(int(take("n", 2)), r0=float(take("r0", 1.0)), options=options)
    elif fam == "poly":
        from .metric import build_metric

        profile = polynomial_xi(float(take("a", 0.5)), shape=str(take("shape", "rational")))
        model = build_metric(profile, int(take("n", 2)), options)
    elif fam == "flat":
        model = flat_metric(int(take("n", 2)), options=options)
    else:
        raise ProfileError(f"unknown family {fam!r} (yau, lp, s3, poly, flat)")
    if params:
        raise ProfileError(f"unknown parameter(s) for family {fam!r}: {sorted(params)}")
    return model
