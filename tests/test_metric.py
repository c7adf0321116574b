import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cvlab.curvature import abc_at_r, abc_at_x, abc_native
from cvlab.expr import evaluate_derivative, parse_expression
from cvlab.families import polynomial_xi, step_profile, smooth_step_profile, yau_counterexample
from cvlab.integrals import distance_s, volume_ball
from cvlab.metric import (
    BuildOptions,
    MetricClass,
    Representation,
    VolumeGrowth,
    build_metric,
    classify,
    completeness_check,
    fprime_from_xi,
    h_to_f,
    load_metric,
    save_metric,
    xi_from_fprime,
    xi_to_h,
)
from cvlab.profiles import (
    ClosedFormSource,
    FamilySpec,
    GeneratorKind,
    GeneratorProfile,
    ProfileError,
)

from _oracles import rational_abc, rational_h, rational_v


# ---------------------------------------------------------------------------
# closed-form agreement for the rational xi family


@pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
def test_rational_xi_h_and_v_closed_form(a):
    m = build_metric(polynomial_xi(a), 2)
    r = m.r[1:]
    assert np.allclose(m.h[1:], rational_h(a, r), rtol=1e-12, atol=0)
    assert np.allclose(m.v[1:], rational_v(a, r), rtol=1e-10, atol=0)
    assert np.allclose(m.f[1:], rational_v(a, r) / r, rtol=1e-10, atol=0)
    assert np.allclose(m.x[1:], np.sqrt(r * rational_h(a, r)), rtol=1e-12, atol=0)


def test_distance_matches_adaptive_quadrature(poly05_n2):
    m = poly05_n2
    for r in (0.5, 3.0, 40.0, 1e4):
        brute, err = quad(lambda u: math.sqrt(rational_h(0.5, u) / u) / 2.0, 0.0, r)
        got = float(m.engine.s_of(r))
        assert got == pytest.approx(brute, rel=1e-7, abs=10 * err)


def test_h0_scaling():
    m = build_metric(polynomial_xi(0.5), 2, BuildOptions(h0=4.0))
    assert np.allclose(m.h[1:], 4.0 * rational_h(0.5, m.r[1:]), rtol=1e-12)
    assert m.f[0] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# gauge conversions


def test_fprime_from_xi_closed_values():
    assert fprime_from_xi(0.0) == 0.0
    # xi = 1/2 gives F' = sqrt(3)
    assert fprime_from_xi(0.5) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    with pytest.raises(ValueError):
        fprime_from_xi(1.0)
    with pytest.raises(ValueError):
        fprime_from_xi(-0.1)


def test_xi_from_fprime_closed_values():
    assert xi_from_fprime(0.0) == 0.0
    assert xi_from_fprime(math.sqrt(3.0)) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        xi_from_fprime(-1.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0 - 1e-9))
def test_gauge_round_trip(xi):
    assert xi_from_fprime(fprime_from_xi(xi)) == pytest.approx(xi, rel=1e-12, abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e6))
def test_gauge_round_trip_from_fprime(fp):
    assert fprime_from_xi(xi_from_fprime(fp)) == pytest.approx(fp, rel=1e-9, abs=1e-12)


def test_xi_from_fprime_stable_for_tiny_arguments():
    # naive 1 - 1/sqrt(1+fp^2) loses all digits here; the rewritten form keeps them
    fp = 1e-8
    assert xi_from_fprime(fp) == pytest.approx(fp * fp / 2.0, rel=1e-9)


def test_xi_to_h_matches_closed_form():
    grid = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 800)))
    h = xi_to_h(polynomial_xi(0.5), h0=1.0, grid=grid)
    assert np.allclose(h, rational_h(0.5, grid), rtol=1e-12)


def test_h_to_f_matches_closed_form():
    grid = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 2000)))
    f = h_to_f(lambda t: rational_h(0.5, t), grid)
    want = np.empty_like(grid)
    want[0] = 1.0
    want[1:] = rational_v(0.5, grid[1:]) / grid[1:]
    assert np.allclose(f, want, rtol=1e-9)


# ---------------------------------------------------------------------------
# representations agree on shared quantities


def test_f_representation_reproduces_xi_tables(yau_n3):
    m = yau_n3
    assert m.representation is Representation.FROM_F
    # identities that hold in any gauge
    assert np.allclose(m.x[1:] ** 2, m.r[1:] * m.h[1:], rtol=1e-10)
    assert np.allclose(m.v[1:], m.r[1:] * m.f[1:], rtol=1e-10)
    assert np.all(np.diff(m.s) > 0)


def test_gauge_map_consistent_along_a_built_metric():
    m = build_metric(polynomial_xi(0.5), 2)
    fp = fprime_from_xi(m.xi)
    sq = np.hypot(1.0, fp)
    assert np.allclose(m.xi, fp**2 / (sq * (1.0 + sq)), rtol=1e-12)


# ---------------------------------------------------------------------------
# classification


def test_classify_flat(flat_n2):
    c = classify(flat_n2)
    assert c.metric_class is MetricClass.FLAT
    assert c.xi_infinity == 0.0
    assert c.volume_growth is VolumeGrowth.EUCLIDEAN


def test_classify_s1(poly05_n2):
    c = classify(poly05_n2)
    assert c.metric_class is MetricClass.S1
    assert c.xi_infinity == pytest.approx(0.5, abs=1e-7)
    assert c.volume_growth is VolumeGrowth.EUCLIDEAN
    assert not c.ambiguous_tail
    assert math.isinf(c.r0)


def test_classify_s3(s3_n2):
    c = classify(s3_n2)
    assert c.metric_class is MetricClass.S3
    assert c.volume_growth is VolumeGrowth.HALF_DIMENSIONAL
    assert c.xi_infinity == 1.0
    assert c.r0 == pytest.approx(1.0, rel=1e-12)
    h_r0 = float(np.interp(1.0, s3_n2.r, s3_n2.h))
    assert c.x0 == pytest.approx(math.sqrt(c.r0 * h_r0), rel=1e-9)


def test_classify_s2_ambiguous(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="cvlab.metric"):
        m = build_metric(polynomial_xi(1.0), 2)
    c = classify(m)
    assert c.metric_class is MetricClass.S2
    assert c.ambiguous_tail
    assert c.volume_growth is VolumeGrowth.SUB_EUCLIDEAN
    assert any("ambiguous_tail" in rec.message for rec in caplog.records)


def test_classify_yau_exact_limit(yau_n3):
    c = classify(yau_n3)
    assert c.metric_class is MetricClass.S1
    mass = 0.75 * float(np.sum(np.arange(2, 65, dtype=float) ** -1.5))
    sq = math.hypot(1.0, mass)
    assert c.xi_infinity == pytest.approx(mass * mass / (sq * (1.0 + sq)), rel=1e-13)


def test_classification_as_dict_round_trips(poly05_n2):
    d = classify(poly05_n2).as_dict()
    assert d["metric_class"] == "S1"
    assert d["volume_growth"] == "euclidean"


# ---------------------------------------------------------------------------
# completeness


def test_complete_metrics_pass(poly05_n2, s3_n2, flat_n2):
    assert completeness_check(poly05_n2)
    assert completeness_check(s3_n2)
    assert completeness_check(flat_n2)


def test_incomplete_injected_h_fails():
    p = GeneratorProfile(GeneratorKind.H, ClosedFormSource("t ^ -1.2"))
    m = build_metric(p, 2)
    assert not completeness_check(m)


def test_injected_h_recovers_xi():
    p = GeneratorProfile(GeneratorKind.H, ClosedFormSource("(1 + t) ^ -0.5"))
    m = build_metric(p, 2)
    want = 0.5 * m.r[1:] / (1.0 + m.r[1:])
    assert np.allclose(m.xi[1:], want, atol=2e-6)


# ---------------------------------------------------------------------------
# model mechanics


def test_build_metric_rejects_bad_dimension():
    for n in (1, 0, -2, 2.5):
        with pytest.raises(ProfileError):
            build_metric(polynomial_xi(0.5), n)


def test_build_metric_resolves_family_spec():
    m = build_metric(FamilySpec("poly", {"a": 0.5, "n": 2}), 2)
    assert classify(m).metric_class is MetricClass.S1


def test_radius_from_s_round_trip(poly05_n2):
    m = poly05_n2
    for idx in (10, 100, 1000, len(m.s) - 1):
        r = m.radius_from_s(m.s[idx])
        assert r == pytest.approx(m.native[idx], rel=1e-9)
    with pytest.raises(ValueError):
        m.radius_from_s(m.s[-1] * 1.5)
    with pytest.raises(ValueError):
        m.radius_from_s(0.0)


def test_refinement_stability():
    coarse = build_metric(polynomial_xi(0.5), 2)
    fine = build_metric(polynomial_xi(0.5), 2, BuildOptions(grid_size=8192))
    probes = np.geomspace(1e-3, 1e7, 50)
    for fn in ("h_of", "v_of", "s_of"):
        c = getattr(coarse.engine, fn)(probes)
        f = getattr(fine.engine, fn)(probes)
        assert np.allclose(c, f, rtol=1e-9), fn


def test_describe_contains_the_essentials(poly05_n2):
    d = poly05_n2.describe()
    assert d["n"] == 2
    assert d["classification"]["metric_class"] == "S1"
    assert d["grid_nodes"] == len(poly05_n2.native)


def test_build_options_from_env(monkeypatch):
    monkeypatch.setenv("CVLAB_GRID", "1024")
    monkeypatch.setenv("CVLAB_TOL", "1e-6")
    opts = BuildOptions.from_env()
    assert opts.grid_size == 1024
    assert opts.quad_rel_tol == 1e-6
    override = BuildOptions.from_env(grid_size=2048)
    assert override.grid_size == 2048


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path, poly05_n2):
    path = tmp_path / "model.json"
    save_metric(poly05_n2, path)
    loaded = load_metric(path)
    assert loaded.n == poly05_n2.n
    assert classify(loaded).metric_class is MetricClass.S1
    assert np.allclose(loaded.v, poly05_n2.v, rtol=1e-12)
    probes = np.geomspace(1e-2, 1e6, 30)
    from cvlab.curvature import abc_at_r

    A0, B0, C0 = abc_at_r(poly05_n2, probes)
    A1, B1, C1 = abc_at_r(loaded, probes)
    assert np.allclose(A0, A1, rtol=1e-4, atol=1e-12)
    assert np.allclose(B0, B1, rtol=1e-4, atol=1e-12)
    assert np.allclose(C0, C1, rtol=1e-4, atol=1e-12)


def test_loaded_fpp_profile_is_the_saved_generator(tmp_path):
    m = yau_counterexample(3, 2, l_max=16)
    path = tmp_path / "model.json"
    save_metric(m, path)
    loaded = load_metric(path)
    assert loaded.profile.kind is GeneratorKind.FPP
    assert np.array_equal(loaded.profile.source(loaded.native), m.engine.fpp_of(m.native))
    # x = 2.1 lies on the plateau of the l = 2 step, where F'' = l = 2
    assert loaded.profile.source(2.1) == pytest.approx(2.0, rel=1e-12)


def test_save_is_atomic(tmp_path, poly05_n2):
    target = tmp_path / "sub" / "model.json"
    with pytest.raises(OSError):
        save_metric(poly05_n2, target)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# scalar contract of the public point functions


def _assert_scalar_contract(fn, points):
    """A 1-d array gives arrays of its shape; each float gives Python floats."""
    vec = fn(points)
    parts = vec if isinstance(vec, tuple) else (vec,)
    for part in parts:
        assert isinstance(part, np.ndarray) and part.shape == points.shape
    for i, q in enumerate(points):
        one = fn(float(q))
        ones = one if isinstance(one, tuple) else (one,)
        assert len(ones) == len(parts)
        for u, part in zip(ones, parts):
            assert type(u) is float
            assert u == pytest.approx(part[i], rel=1e-12)


@pytest.mark.parametrize("fixture", ["poly05_n2", "lp_model"])
def test_point_functions_scalar_contract(fixture, request):
    m = request.getfixturevalue(fixture)
    idx = [100, 1000, 2000]
    r, x, s = m.r[idx], m.x[idx], m.s[idx]
    _assert_scalar_contract(lambda t: abc_native(m, t), m.native[idx])
    _assert_scalar_contract(lambda q: abc_at_r(m, q), r)
    _assert_scalar_contract(lambda q: abc_at_x(m, q), x)
    _assert_scalar_contract(lambda q: distance_s(m, r=q), r)
    _assert_scalar_contract(lambda q: distance_s(m, x=q), x)
    _assert_scalar_contract(lambda q: volume_ball(m, q), s)
    _assert_scalar_contract(m.radius_from_s, s)


def test_conversions_scalar_contract():
    _assert_scalar_contract(fprime_from_xi, np.array([0.0, 0.3, 0.9]))
    _assert_scalar_contract(xi_from_fprime, np.array([0.0, 1.0, 40.0]))
    node = parse_expression("t / (1 + t) + exp(-t)")
    _assert_scalar_contract(lambda t: evaluate_derivative(node, t), np.array([0.0, 0.5, 7.0]))
