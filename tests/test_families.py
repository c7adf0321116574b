import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cvlab.curvature import abc_native
from cvlab.families import (
    ParameterGateError,
    RawStepSource,
    SaturationRampSource,
    SmoothStepSource,
    StepFamily,
    flat_profile,
    lp_counterexample,
    polynomial_xi,
    s3_metric,
    smooth_step_profile,
    step_profile,
    yau_counterexample,
)
from cvlab.metric import BuildOptions, build_metric
from cvlab.profiles import ProfileError, validate, validate_xi

from _oracles import YAU_TOTAL_MASS, step_train_sample


# ---------------------------------------------------------------------------
# step geometry


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=50.0),
    st.integers(min_value=2, max_value=10_000),
)
def test_steps_are_pairwise_disjoint(width_exponent, l_max):
    fam = StepFamily(1.0, width_exponent, l_max=l_max)
    a = fam.stations()
    b = a + fam.widths()
    assert np.all(b[:-1] <= a[1:])
    assert np.all(b - a < 1.0)


def test_step_family_gates():
    with pytest.raises(ProfileError):
        StepFamily(1.0, 2.5, l_min=1)
    with pytest.raises(ProfileError):
        StepFamily(1.0, 2.5, l_min=5, l_max=4)
    with pytest.raises(ProfileError):
        StepFamily(1.0, -0.5)


def test_single_rectangle_mass():
    # one step of height 2 on [2, 2 + 2^(-5/2)]
    src = RawStepSource(StepFamily(1.0, 2.5, l_max=2))
    assert src.total_mass == pytest.approx(2.0 ** -1.5, rel=1e-15)
    assert src(2.0) == 2.0
    assert src(2.0 + 2.0**-2.5 + 1e-12) == 0.0
    assert src(1.99) == 0.0


def test_raw_step_cumulative_is_exact():
    src = RawStepSource(StepFamily(1.0, 2.5, l_max=8))
    for t in (0.0, 1.5, 2.0, 2.1, 3.0, 5.5, 8.4, 50.0):
        brute, _ = quad(src, 0.0, t, limit=400,
                        points=[p for p in src.breakpoints() if p <= t])
        assert src.cumulative(t) == pytest.approx(brute, abs=1e-12)


def test_yau_total_mass_matches_direct_sum():
    src = RawStepSource(StepFamily(1.0, 2.5, l_max=64))
    assert src.total_mass == pytest.approx(YAU_TOTAL_MASS, rel=1e-14)


# ---------------------------------------------------------------------------
# smoothing


def test_smoothing_keeps_station_mass_fraction():
    raw = step_profile(1.0, 2.5, l_max=16)
    for factor in (0.1, 0.25, 0.4):
        smooth = smooth_step_profile(raw, factor=factor)
        src = smooth.source
        raw_masses = raw.source.masses
        assert np.allclose(src.masses, (1.0 - factor) * raw_masses, rtol=1e-15)
        assert np.all(src.masses >= (1.0 - 2.0 * factor) * raw_masses)


def test_smooth_cumulative_matches_quadrature():
    src = SmoothStepSource(StepFamily(1.0, 2.5, l_max=6), factor=0.25)
    for t in (2.05, 2.5, 3.3, 4.7, 6.9, 10.0):
        brute, err = quad(src, 0.0, t, limit=800,
                          points=[p for p in src.breakpoints() if p <= t])
        assert src.cumulative(t) == pytest.approx(brute, abs=max(1e-11, 10 * err))


def test_smooth_profile_is_c1_at_seams():
    src = SmoothStepSource(StepFamily(1.0, 2.5, l_max=4), factor=0.25)
    eps = 1e-9
    for seam in src.breakpoints():
        left, right = src(seam - eps), src(seam + eps)
        assert abs(left - right) < 1e-5
        dleft, dright = src.derivative(seam - eps), src.derivative(seam + eps)
        assert abs(dleft - dright) < 1e-2


def test_smooth_derivative_matches_finite_differences():
    src = SmoothStepSource(StepFamily(1.0, 2.5, l_max=4), factor=0.25)
    ts = np.linspace(1.9, 4.3, 700)
    h = 1e-7
    fd = (src(ts + h) - src(ts - h)) / (2 * h)
    assert np.allclose(src.derivative(ts), fd, atol=1e-4, rtol=1e-5)


def test_smoothing_factor_gate():
    raw = step_profile(1.0, 2.5, l_max=4)
    for factor in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ProfileError):
            smooth_step_profile(raw, factor=factor)


def test_smoothing_requires_raw_steps():
    with pytest.raises(ProfileError):
        smooth_step_profile(polynomial_xi(0.5), factor=0.25)


def test_smoothed_profile_validates():
    assert validate(smooth_step_profile(step_profile(1.0, 2.5))).ok
    assert validate(smooth_step_profile(step_profile(2.0, 3.5))).ok


# ---------------------------------------------------------------------------
# saturation ramp


def test_saturation_ramp_shape():
    src = SaturationRampSource(2.0)
    assert src(0.0) == 0.0
    assert src(1.0) == 0.0  # ramp starts at r0/2
    assert src(1.5) == pytest.approx(0.5)
    assert src(2.0) == 1.0
    assert src(50.0) == 1.0
    assert src.derivative(3.0) == 0.0


def test_saturation_ramp_validates_as_xi():
    from cvlab.families import saturation_ramp

    assert validate_xi(saturation_ramp(1.0)).ok
    with pytest.raises(ProfileError):
        SaturationRampSource(0.0)


# ---------------------------------------------------------------------------
# metric constructors and gates


def test_polynomial_xi_shapes_and_gate():
    for shape in ("rational", "exponential"):
        report = validate_xi(polynomial_xi(0.5, shape=shape))
        assert report.ok
        assert report.details["sup_xi"] == pytest.approx(0.5, abs=1e-7)
    with pytest.raises(ProfileError):
        polynomial_xi(1.5)
    with pytest.raises(ProfileError):
        polynomial_xi(0.5, shape="cubic")


def test_exponential_xi_keeps_its_digits_near_the_origin():
    # a (1 - exp(-t)) cancels to about log10(1/t) digits; -a expm1(-t) does not
    p = polynomial_xi(0.5, shape="exponential")
    t = np.geomspace(1e-15, 1e-3, 25)
    with mpmath.workdps(40):
        want = np.array([float(0.5 * -mpmath.expm1(-mpmath.mpf(u))) for u in t])
    np.testing.assert_allclose(p.source(t), want, rtol=2e-16, atol=0.0)
    m = build_metric(p, 3)
    np.testing.assert_allclose(m.engine.xi_of(t), want, rtol=2e-16, atol=0.0)


def test_flat_profile_validates():
    report = validate_xi(flat_profile())
    assert report.ok
    assert report.details["sup_xi"] == 0.0


def test_yau_counterexample_gates():
    with pytest.raises(ParameterGateError):
        yau_counterexample(2, 2)
    with pytest.raises(ParameterGateError):
        yau_counterexample(3, 3)
    with pytest.raises(ParameterGateError):
        yau_counterexample(3, 1)


def test_lp_counterexample_gates():
    with pytest.raises(ParameterGateError):
        lp_counterexample(2, p=1.0)
    with pytest.raises(ParameterGateError):
        lp_counterexample(2, p=2.0, alpha=2.0, beta=3.0)  # beta <= 1 + alpha
    with pytest.raises(ParameterGateError):
        lp_counterexample(2, p=2.0, alpha=2.0, beta=4.0)  # beta >= p(alpha-1) + 2
    with pytest.raises(ParameterGateError):
        lp_counterexample(2, p=3.0, alpha=1.0, beta=2.5)  # right bound 2 < left bound


def test_yau_metric_has_bounded_curvature_stable_under_refinement():
    sups = []
    for scale in (1, 2):
        opts = BuildOptions(grid_size=4096 * scale, x_max=512.0)
        m = yau_counterexample(3, 2, l_max=16, options=opts)
        # the same points at both scales: the grid itself is bisected per build
        x = np.unique(np.concatenate((np.geomspace(1e-3, 512.0, 4096),
                                      step_train_sample(m.profile.source))))
        A, B, C = abc_native(m, x)
        assert np.all(np.isfinite(A)) and np.all(np.isfinite(B)) and np.all(np.isfinite(C))
        sups.append(max(np.max(np.abs(A)), np.max(np.abs(B)), np.max(np.abs(C))))
    assert abs(sups[1] - sups[0]) <= 0.05 * sups[0]


def test_s3_metric_classification_r0():
    m = s3_metric(2, r0=4.0)
    assert m.classification.metric_class.name == "S3"
    assert m.classification.r0 == pytest.approx(4.0, rel=1e-9)
