import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvlab.families import step_profile
from cvlab.profiles import (
    ClosedFormSource,
    FamilySpec,
    GeneratorKind,
    GeneratorProfile,
    ProfileDomainError,
    ProfileError,
    ProfileFileError,
    SampledSource,
    eval_profile,
    load_profile,
    load_samples_csv,
    validate,
    validate_F,
    validate_h,
    validate_xi,
)


def xi_profile(expr, **kw):
    return GeneratorProfile(GeneratorKind.XI, ClosedFormSource(expr), **kw)


# ---------------------------------------------------------------------------
# evaluation and domains


def test_eval_profile_rejects_negative_t():
    with pytest.raises(ProfileDomainError):
        eval_profile(xi_profile("t"), -0.5)


def test_eval_profile_rejects_nan():
    for t in (np.nan, np.array([1.0, np.nan])):
        with pytest.raises(ProfileDomainError, match="t = nan is not a number"):
            eval_profile(xi_profile("t"), t)


def test_eval_profile_respects_domain_end():
    p = GeneratorProfile(GeneratorKind.XI, ClosedFormSource("t", domain_end=10.0))
    assert eval_profile(p, 10.0) == 10.0
    with pytest.raises(ProfileDomainError):
        eval_profile(p, 11.0)


def test_sampled_source_interpolates_and_refuses_extrapolation():
    ts = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    src = SampledSource(ts, ts / (1.0 + ts))
    assert src(1.0) == pytest.approx(0.5)
    mid = src(3.0)
    assert 2.0 / 3.0 < mid < 4.0 / 5.0
    with pytest.raises(ProfileDomainError):
        src(9.0)


def test_sampled_source_derivative_available():
    ts = np.linspace(0.0, 5.0, 30)
    src = SampledSource(ts, np.tanh(ts))
    d = src.derivative(np.array([0.5, 1.0, 2.0]))
    want = 1.0 / np.cosh([0.5, 1.0, 2.0]) ** 2
    assert np.allclose(d, want, atol=5e-3)


def test_sampled_source_derivative_is_range_checked_like_its_values():
    # outside the samples, NaN included, the slope raises as the value does
    src = SampledSource(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 0.25]))
    for t in (5.0, -3.0, np.nan, np.array([1.0, 5.0])):
        for method in (src, src.derivative):
            with pytest.raises(ProfileDomainError, match="outside"):
                method(t)
    # a relative 1e-12 past the last sample reads the last sample
    assert src.derivative(2.0 * (1 + 1e-13)) == src.derivative(2.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=20
    )
)
def test_sampled_monotone_data_interpolates_monotonically(increments):
    # shape-preserving interpolation: monotone samples give a monotone curve
    ts = np.arange(len(increments) + 1, dtype=float)
    values = np.concatenate(([0.0], np.cumsum(increments)))
    src = SampledSource(ts, values)
    fine = np.linspace(0.0, float(ts[-1]), 400)
    out = src(fine)
    assert np.all(np.diff(out) >= -1e-12)


@st.composite
def _pchip_cases(draw):
    """2-30 samples at non-uniform steps, values on a 1e-5 lattice in [-10, 10]
    (flat runs where a value repeats, sign changes of the secants), and queries
    at the samples, at the midpoints and at random points."""
    n = draw(st.integers(min_value=2, max_value=30))
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=n - 1,
                          max_size=n - 1))
    ts = np.concatenate(([0.0], np.cumsum(steps)))
    lattice = st.integers(min_value=-10**6, max_value=10**6).map(lambda k: k * 1e-5)
    values = [draw(lattice)]
    for _ in range(n - 1):
        values.append(values[-1] if draw(st.booleans()) else draw(lattice))
    fractions = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20))
    queries = np.concatenate((ts, 0.5 * (ts[1:] + ts[:-1]), np.array(fractions) * ts[-1]))
    return ts, np.array(values), queries


@settings(max_examples=300, deadline=None)
@given(_pchip_cases())
def test_sampled_source_is_scipys_pchip(case):
    from scipy.interpolate import PchipInterpolator  # the reference; the runtime has no scipy

    ts, values, queries = case
    src, want = SampledSource(ts, values), PchipInterpolator(ts, values)
    assert np.array_equal(src(ts), values)
    scale = max(np.max(np.abs(values)), 1e-300)
    assert np.max(np.abs(src(queries) - want(queries))) <= 1e-13 * scale
    slope_scale = max(np.max(np.abs(np.diff(values) / np.diff(ts))), 1e-300)
    slopes = src.derivative(queries) - want.derivative()(queries)
    assert np.max(np.abs(slopes)) <= 1e-13 * slope_scale


# ---------------------------------------------------------------------------
# validators


def test_validate_xi_accepts_rational_profile():
    report = validate_xi(xi_profile("0.5 * t / (1 + t)"))
    assert report.ok
    assert report.details["sup_xi"] <= 0.5
    assert report.violations == ()


def test_validate_xi_flags_nonzero_origin():
    report = validate_xi(xi_profile("0.25 + 0 * t"))
    assert not report.ok
    assert any(v.check == "xi(0) != 0" for v in report.violations)


def test_validate_xi_flags_decreasing():
    report = validate_xi(xi_profile("t / (1 + t^2)"))
    assert not report.ok
    assert any(v.check == "xi decreasing" for v in report.violations)


def test_validate_xi_flags_cap_violation():
    report = validate_xi(xi_profile("2 * t / (1 + t)"))
    assert not report.ok
    assert any(v.check == "xi > 1" for v in report.violations)
    assert "violation" in report.summary()


def test_validate_xi_kind_mismatch():
    p = GeneratorProfile(GeneratorKind.FPP, ClosedFormSource("t"))
    with pytest.raises(ProfileError):
        validate_xi(p)


def test_validate_F_accepts_steps_with_exact_limit():
    p = step_profile(1.0, 2.5, l_max=64)
    report = validate_F(p)
    assert report.ok
    # exact since the source knows its total mass
    assert report.details["fprime_limit"] == pytest.approx(
        float(np.sum(np.arange(2, 65, dtype=float) ** -1.5)), rel=1e-14
    )
    assert report.details["fprime_limit_converged"]


def test_validate_F_estimates_limit_for_closed_form():
    p = GeneratorProfile(GeneratorKind.FPP, ClosedFormSource("exp(-t)"))
    report = validate_F(p)
    assert report.ok
    assert report.details["fprime_limit"] == pytest.approx(1.0, rel=1e-6)
    assert report.details["fprime_limit_converged"]


def test_validate_F_flags_negative():
    p = GeneratorProfile(GeneratorKind.FPP, ClosedFormSource("1 - t"))
    report = validate_F(p)
    assert not report.ok
    assert any(v.check == "F'' negative" for v in report.violations)


def test_validate_h_accepts_decaying_and_flags_bad():
    good = GeneratorProfile(GeneratorKind.H, ClosedFormSource("(1 + t) ^ -0.5"))
    assert validate_h(good).ok
    increasing = GeneratorProfile(GeneratorKind.H, ClosedFormSource("1 + t"))
    assert not validate_h(increasing).ok
    signed = GeneratorProfile(GeneratorKind.H, ClosedFormSource("1 - t / 2"))
    report = validate_h(signed)
    assert any(v.check == "h not positive" for v in report.violations)


def test_validate_dispatches_on_kind():
    assert validate(xi_profile("0.5 * t / (1 + t)")).ok
    assert validate(step_profile(1.0, 2.5)).ok
    assert validate(GeneratorProfile(GeneratorKind.H, ClosedFormSource("(1 + t) ^ -0.9"))).ok


def test_validate_h_catches_underflow_to_zero():
    # exp(-t) underflows to exactly 0 far out on the grid: not a valid h
    report = validate(GeneratorProfile(GeneratorKind.H, ClosedFormSource("exp(-t)")))
    assert not report.ok
    assert any(v.check == "h not positive" for v in report.violations)


# ---------------------------------------------------------------------------
# profile files


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_profile_expression(tmp_path):
    path = write(
        tmp_path,
        "rational.cvp",
        """
        # generator in xi form
        kind = xi
        expr = "0.5 * t / (1 + t)"
        name = rational-half
        """,
    )
    p = load_profile(path)
    assert p.kind is GeneratorKind.XI
    assert p.name == "rational-half"
    assert eval_profile(p, 1.0) == pytest.approx(0.25)


def test_load_profile_family(tmp_path):
    path = write(tmp_path, "fam.cvp", "kind = family\nfamily = s3\nr0 = 2.0\nn = 2\n")
    spec = load_profile(path)
    assert isinstance(spec, FamilySpec)
    assert spec.family == "s3"
    assert spec.params == {"r0": 2.0, "n": 2}


def test_load_profile_samples(tmp_path):
    write(tmp_path, "xi.csv", "t,value\n0,0\n1,0.25\n2,0.4\n5,0.45\n")
    path = write(tmp_path, "sampled.cvp", "kind = xi\nsamples = xi.csv\n")
    p = load_profile(path)
    assert p.name == "sampled"
    assert eval_profile(p, 1.0) == pytest.approx(0.25)


def test_load_samples_csv_errors(tmp_path):
    bad_header = write(tmp_path, "a.csv", "x,y\n0,0\n1,1\n")
    with pytest.raises(ProfileFileError):
        load_samples_csv(bad_header)
    bad_row = write(tmp_path, "b.csv", "t,value\n0,0\n1\n")
    with pytest.raises(ProfileFileError) as err:
        load_samples_csv(bad_row)
    assert err.value.lineno == 3
    short = write(tmp_path, "c.csv", "t,value\n0,0\n")
    with pytest.raises(ProfileFileError):
        load_samples_csv(short)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("expr = t\n", "missing 'kind'"),
        ("kind = nope\nexpr = t\n", "kind must be"),
        ("kind = xi\n", "need 'expr =' or 'samples ='"),
        ("kind = xi\nexpr = t\nexpr = 2*t\n", "duplicate key"),
        ("kind = xi\nexpr = t\nsamples = a.csv\n", "not both"),
        ("kind = xi\nexpr = t\ncolor = red\n", "unknown key"),
        ("kind = family\nexpr = t\n", "requires 'family ='"),
        ("kind = xi\njust words\n", "expected 'key = value'"),
    ],
)
def test_load_profile_errors(tmp_path, text, fragment):
    path = write(tmp_path, "bad.cvp", text)
    with pytest.raises(ProfileFileError) as err:
        load_profile(path)
    assert fragment in str(err.value)


def test_load_profile_error_reports_line_number(tmp_path):
    path = write(tmp_path, "bad.cvp", "kind = xi\nexpr = t\n\nmystery = 3\n")
    with pytest.raises(ProfileFileError) as err:
        load_profile(path)
    assert err.value.lineno == 4
