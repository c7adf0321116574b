import json
import logging
import math
import re
from dataclasses import asdict
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cvlab.curvature import abc_at_r, abc_at_x, abc_native
from cvlab.expr import evaluate_derivative, parse_expression
from cvlab.families import (
    flat_metric,
    lp_counterexample,
    polynomial_xi,
    s3_metric,
    smooth_step_profile,
    step_profile,
    yau_counterexample,
)
from cvlab import metric as metric_module
from cvlab.integrals import (
    chern_number,
    default_s_grid,
    distance_s,
    mixed_curvature_ibp,
    normalized_sigma_series,
    volume_ball,
)
from cvlab.metric import (
    BuildOptions,
    MetricClass,
    Representation,
    VolumeGrowth,
    build_metric,
    classify,
    completeness_check,
    fprime_from_xi,
    load_metric,
    save_metric,
    xi_from_fprime,
)
from cvlab.quadrature import cell_ends, cell_tails, gauss_nodes, legendre_tail
from cvlab.profiles import (
    ClosedFormSource,
    FamilySpec,
    GeneratorKind,
    GeneratorProfile,
    ProfileError,
    ProfileSource,
    SampledSource,
)

from _oracles import rational_h, rational_v


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


@pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
def test_rational_xi_engine_between_nodes_closed_form(a):
    # mid-cell queries integrate each table's in-cell interpolant
    m = build_metric(polynomial_xi(a), 2)
    e = m.engine
    r = 0.5 * (m.native[:-1] + m.native[1:])[::7]
    # s = int_0^sqrt(r) (1 + u^2)^(-a/2) du = sqrt(r) 2F1(1/2, a/2; 3/2; -r)
    with mpmath.workdps(30):
        s = [float(mpmath.sqrt(t) * mpmath.hyp2f1(0.5, a / 2, 1.5, -mpmath.mpf(t))) for t in r]
    assert np.allclose(e.h_of(r), rational_h(a, r), rtol=1e-12, atol=0)
    assert np.allclose(e.v_of(r), rational_v(a, r), rtol=1e-12, atol=0)
    assert np.allclose(e.f_of(r), rational_v(a, r) / r, rtol=1e-12, atol=0)
    assert np.allclose(e.s_of(r), s, rtol=1e-12, atol=0)


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


# ---------------------------------------------------------------------------
# representations agree on shared quantities


def test_f_representation_reproduces_xi_tables(yau_n3):
    m = yau_n3
    assert m.representation is Representation.FROM_F
    # identities that hold in any gauge
    assert np.allclose(m.x[1:] ** 2, m.r[1:] * m.h[1:], rtol=1e-10)
    assert np.allclose(m.v[1:], m.r[1:] * m.f[1:], rtol=1e-10)
    assert np.all(np.diff(m.s) > 0)


NODE_MODELS = {
    "poly": lambda: build_metric(polynomial_xi(0.5), 2),
    "s3": lambda: s3_metric(2, r0=1.0),
    "hkind": lambda: build_metric(
        GeneratorProfile(GeneratorKind.H, ClosedFormSource("(1 + t) ^ -0.5")), 2
    ),
    "yau": lambda: yau_counterexample(3, 2, l_max=32),
    "lp": lambda: lp_counterexample(2, l_max=32),
    "exp(-t)": lambda: build_metric(
        GeneratorProfile(GeneratorKind.FPP, ClosedFormSource("exp(-t)")), 2,
        BuildOptions(grid_size=512),
    ),
}


@pytest.mark.parametrize("name", sorted(NODE_MODELS))
def test_node_parts_are_parts_of_at_the_gauss_nodes(name):
    m = NODE_MODELS[name]()
    eng = m.engine
    A, v, w, xi, dv = eng.node_parts()
    want = eng.parts_of(gauss_nodes(m.native))
    # the tables' own node values against queries there: measured w within
    # 2e-16 v and the rest within 5.2e-15 relative (h = exp(-log h) on the xi
    # gauge, xi = xi(F') with F' a table on the exp(-t) model)
    assert np.all(np.abs(w - want[2]) <= 4e-16 * want[1])
    for got, ref in zip((A, v, xi, dv), want[:2] + want[3:]):
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
    if name in ("yau", "lp"):  # F' and F'' in closed form, kept from the build
        for got, ref in zip((A, xi, dv), (want[0], want[3], want[4])):
            assert np.array_equal(got, ref)


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


def test_injected_h_curvature_matches_its_xi_twin(poly05_n2):
    # h = (1 + t)^-1/2 is the metric of xi = t/(2(1 + t)); the injected h
    # takes xi' by a centred difference of xi, whose rounding error the
    # series, the Chern total and the IBP identity average over the nodes
    m = build_metric(GeneratorProfile(GeneratorKind.H, ClosedFormSource("(1 + t) ^ -0.5")), 2)
    for k in (1, 2):
        got, want = normalized_sigma_series(m, k), normalized_sigma_series(poly05_n2, k)
        assert np.allclose(got.normalized, want.normalized, rtol=1e-12, atol=0.0)
    assert chern_number(m).value == pytest.approx(chern_number(poly05_n2).value, rel=1e-12)
    assert mixed_curvature_ibp(m, 1).relative_gap <= 1e-10


def test_injected_h_with_a_domain_end_matches_its_xi_twin():
    # h = (1 + t)^-1/2 that ends at r = 1e4: xi' differences xi, and no
    # stencil may reach past the end, where eval_profile raises.  On the
    # 4 096-node base the last cell is 1% of the end wide.
    p = GeneratorProfile(GeneratorKind.H, ClosedFormSource("(1 + t) ^ -0.5", domain_end=1e4))
    twin = build_metric(polynomial_xi(0.5), 2, BuildOptions(r_max=1e4))
    for opts in (BuildOptions(), BuildOptions(grid_size=4096)):
        m = build_metric(p, 2, opts)
        assert m.native[-1] == 1e4
        assert chern_number(m).value == pytest.approx(chern_number(twin).value, rel=1e-12)
        for k in (1, 2):
            got, want = normalized_sigma_series(m, k), normalized_sigma_series(twin, k)
            assert np.allclose(got.normalized, want.normalized, rtol=1e-12, atol=0.0)
        assert mixed_curvature_ibp(m, 1).relative_gap <= 1e-10
    # an h with no closed-form h' takes h' by a difference stencil too, which
    # must stop at the end as well (measured 1.1e-10 off the twin)
    m = build_metric(GeneratorProfile(GeneratorKind.H, _HandWrittenH()), 2)
    assert chern_number(m).value == pytest.approx(chern_number(twin).value, rel=1e-9)
    got, want = normalized_sigma_series(m, 2), normalized_sigma_series(twin, 2)
    assert np.allclose(got.normalized, want.normalized, rtol=1e-9, atol=0.0)


class _HandWrittenH(ProfileSource):
    domain_end = 1e4

    def __call__(self, t):
        return (1.0 + np.asarray(t, dtype=float)) ** -0.5


def test_sampled_injected_h_differences_inside_its_samples():
    # a sampled h is a monotone cubic through its samples, each sample a kink
    # of xi', and ends at its last sample; the last samples are 0.1% apart.
    # xi' = -h'/h - t h''/h + t (h'/h)^2 from the interpolant's own derivatives
    # is exact between samples, and the difference stencil must not cross one
    from scipy.interpolate import PchipInterpolator

    last = 1e4 * (1.0 + np.array([1e-3, 2e-3]))
    ts = np.concatenate(([0.0], np.geomspace(1e-9, 1e4, 1200), last))
    hs = (1.0 + ts) ** -0.5
    m = build_metric(GeneratorProfile(GeneratorKind.H, SampledSource(ts, hs)), 2)
    assert m.native[-1] == ts[-1]
    pchip = PchipInterpolator(ts, hs)
    d1, d2 = pchip.derivative(), pchip.derivative(2)
    near = ts[1:, None] * (1.0 + np.array([-1e-4, -1e-7, 1e-7, 1e-4]))
    near = near[(near > 1e-6) & (near < ts[-1])]
    t = np.concatenate((gauss_nodes(m.native)[-40:].ravel(), near))
    q = d1(t) / pchip(t)
    want = -q - t * d2(t) / pchip(t) + t * q * q
    assert np.allclose(m.engine.xi_prime_of(t), want, rtol=1e-6, atol=1e-10)  # measured 4.9e-11
    assert np.isfinite(chern_number(m).value)
    assert np.all(np.isfinite(normalized_sigma_series(m, 2).normalized))
    assert mixed_curvature_ibp(m, 1).relative_gap <= 1e-6


def test_injected_h_sets_f_at_the_origin():
    # f = v/r tends to h(0), which an injected h need not share with BuildOptions.h0
    p = GeneratorProfile(GeneratorKind.H, ClosedFormSource("2 * (1 + t) ^ -0.5"))
    m = build_metric(p, 2)
    assert m.native[0] == 0.0 and m.options.h0 == 1.0
    assert m.h[0] == 2.0 and m.f[0] == 2.0
    assert m.f[1] == pytest.approx(2.0, rel=1e-8)
    assert m.engine.f_of(0.0) == 2.0


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
    n = len(m.s)  # nodes by fraction: the r grid's size is an output of its bisection
    for idx in (max(1, n // 400), n // 40, n // 4, n - 1):
        r = m.radius_from_s(m.s[idx])
        assert r == pytest.approx(m.native[idx], rel=1e-9)
    with pytest.raises(ValueError):
        m.radius_from_s(m.s[-1] * 1.5)
    with pytest.raises(ValueError):
        m.radius_from_s(0.0)


def _round_trip_points(table):
    """Both ends of the positive table, its nodes and the log-midpoints between them."""
    q = table[table > 0]
    mid = np.sqrt(q[1:] * q[:-1])
    return np.concatenate(([q[0], q[-1]], q[:: max(1, q.size // 512)], mid[:: max(1, q.size // 512)]))


@pytest.mark.parametrize("fixture", ["poly05_n2", "s3_n2", "yau_n3"])
def test_radius_from_s_is_polished_to_rounding(fixture, request, caplog):
    m = request.getfixturevalue(fixture)
    s = np.concatenate((_round_trip_points(m.s), default_s_grid(m)))
    with caplog.at_level(logging.WARNING, logger="cvlab.metric"):
        t = m.radius_from_s(s)
        one = [m.radius_from_s(float(q)) for q in s[:40]]
    assert np.max(np.abs(m.engine.s_of(t) / s - 1.0)) <= 1e-13
    assert np.max(np.abs(m.engine.s_of(np.array(one)) / s[:40] - 1.0)) <= 1e-13
    assert not caplog.records


def test_native_from_r_and_x_are_polished_to_rounding(poly05_n2, yau_n3, caplog):
    with caplog.at_level(logging.WARNING, logger="cvlab.metric"):
        r = _round_trip_points(yau_n3.r)
        assert np.max(np.abs(yau_n3.engine.r_of(yau_n3.native_from_r(r)) / r - 1.0)) <= 1e-13
        x = _round_trip_points(poly05_n2.x)
        assert np.max(np.abs(poly05_n2.engine.x_of(poly05_n2.native_from_x(x)) / x - 1.0)) <= 1e-13
    assert not caplog.records


def test_native_from_x_on_the_saturated_plateau(s3_n2, caplog):
    m, x0 = s3_n2, s3_n2.classification.x0
    x = np.array([0.5 * x0, x0 * (1.0 - 1e-9), x0, float(m.x[-1])])
    with caplog.at_level(logging.WARNING, logger="cvlab.metric"):
        t = m.native_from_x(x)
    assert np.max(np.abs(m.engine.x_of(t) / x - 1.0)) <= 1e-13
    assert not caplog.records
    # past saturation no radius has this x
    with pytest.raises(ValueError, match="beyond the tabulated x"):
        m.native_from_x(x0 * 1.01)


def test_inverses_refuse_queries_between_the_origin_and_the_first_node(poly05_n2, yau_n3):
    # the tables hold no data there: a query used to come back as the first node
    m, s1, x1, r1 = poly05_n2, poly05_n2.s[1], poly05_n2.x[1], yau_n3.r[1]
    with pytest.raises(ValueError, match=f"s1 = {s1:.6g}"):
        m.radius_from_s(0.1 * s1)
    with pytest.raises(ValueError, match=f"x1 = {x1:.6g}"):
        m.native_from_x(np.array([0.0, 0.1 * x1, 1.0]))
    with pytest.raises(ValueError, match=f"r1 = {r1:.6g}"):
        yau_n3.native_from_r(0.5 * r1)
    # the origin answers q = 0 exactly, alone or in a batch
    assert m.native_from_x(0.0) == 0.0 and yau_n3.native_from_r(0.0) == 0.0
    t = yau_n3.native_from_r(np.array([0.0, r1]))
    assert t[0] == 0.0 and t[1] == pytest.approx(yau_n3.native[1], rel=1e-13)


def test_inverses_refuse_queries_past_the_last_node():
    # the r table ends at 9.6e5: r = 1e40 used to come back as the last node
    # x = 256 and distance s_end, with no error
    m = yau_counterexample(3, 2, l_max=32)
    with pytest.raises(ValueError, match="beyond the tabulated r"):
        m.native_from_r(1e40)
    with pytest.raises(ValueError, match="beyond the tabulated r"):
        distance_s(m, r=1e40)
    # the last node itself, and rounding past it, still answer
    assert m.native_from_r(m.r[-1] * (1 + 1e-12)) == m.native[-1]


def test_a_models_own_coordinate_is_range_checked(poly05_n2, yau_n3):
    # r on the r gauge and x on the x gauge need no inverse, and were taken as
    # given: abc_at_r(-1.0) on poly raised a division by zero deep in the
    # profile, and native_from_r gave -1.0, nan and 1e30 back
    for m, table, abc in ((poly05_n2, "r", abc_at_r), (yau_n3, "x", abc_at_x)):
        native = getattr(m, f"native_from_{table}")
        queries = (native, partial(abc, m), lambda q: distance_s(m, **{table: q}))
        for q, why in ((-1.0, "-1 is below 0"), (math.nan, "nan is not a number"),
                       (1e30, f"1e+30 is beyond the tabulated {table} <=")):
            for query in queries:
                with pytest.raises(ValueError, match=re.escape(f"{table} = {why}")):
                    query(q)
                with pytest.raises(ValueError, match=re.escape(f"{table} = {why}")):
                    query(np.array([0.0, 1.0, q]))
        # in range the coordinate comes back bit for bit, the origin included;
        # rounding past the last node answers the node, as an inverse does
        nodes = getattr(m, table)
        assert np.array_equal(native(nodes), m.native)
        assert native(0.0) == 0.0
        assert native(m.native_end * (1 + 1e-12)) == m.native_end


def test_inverses_answer_the_last_node_with_itself(poly05_n2):
    # the Hermite seed lands an ulp short of the last node where the last
    # interval's cubic rounds down: radius_from_s(s[-1]) on yau l_max=32 read
    # 256.00138106793196 for the node 256.001381067932
    yau = yau_counterexample(3, 2, l_max=32)
    for m in (poly05_n2, yau):
        for table in ("s", "r", "x"):
            inverse, last = m._inverse(table), getattr(m, table)[-1]
            for q in (last, last * (1 + 1e-12)):  # at the node, and clamped onto it
                assert inverse(q)[0] == m.native[-1], (m.profile.name, table, q)
                batch = inverse(np.array([getattr(m, table)[1], q]))[0]
                assert batch[-1] == m.native[-1], (m.profile.name, table, q)
    assert yau.radius_from_s(yau.s[-1]) == yau.native[-1]


def test_nan_queries_raise(poly05_n2, yau_n3):
    # NaN passed every range check and came back plausible: v_of as the v
    # table's total, distance_s as s_end, volume_ball as 1.97e9 on poly 0.5
    m, nan = poly05_n2, float("nan")
    # a table query
    with pytest.raises(ValueError, match="outside"):
        m.engine.v_of(nan)
    # an inverse (volume_ball(s) goes through radius_from_s), or the range
    # check of a model's own coordinate: the r gauge at r, the x gauge at x
    for query in (lambda: volume_ball(m, nan), lambda: m.radius_from_s(nan),
                  lambda: m.radius_from_s(np.array([1.0, nan])),
                  lambda: yau_n3.native_from_r(np.array([[nan]])), lambda: m.native_from_x(nan),
                  lambda: distance_s(m, r=nan), lambda: distance_s(yau_n3, x=nan)):
        with pytest.raises(ValueError, match="nan is not a number"):
            query()


def test_inverse_reports_its_residual(monkeypatch, caplog):
    # unpolished on a coarse grid, the Hermite seed is close but not at
    # rounding: the residual comes back with the radius and a large one is logged
    m = build_metric(polynomial_xi(0.5), 2, BuildOptions(grid_size=128))
    monkeypatch.setattr(metric_module, "NEWTON_STEPS", 0)
    s = np.geomspace(m.s[1], m.s[-1], 301)
    with caplog.at_level(logging.DEBUG, logger="cvlab.metric"):
        t, res = m._inverse("s")(s)
    assert np.array_equal(res, np.log(m.engine.s_of(t) / s))
    assert 1e-12 < np.max(np.abs(res)) < 1e-6
    levels = {rec.levelname for rec in caplog.records if "s inverse" in rec.getMessage()}
    assert levels == {"DEBUG", "WARNING"}


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
    # the grid, spans and tolerance behind every number, as JSON
    assert d["options"] == asdict(poly05_n2.options)
    # exactly what builds a model; grid_size None: 16 geometric base nodes per
    # decade of the span, either gauge
    assert set(d["options"]) == {"grid_size", "r_max", "x_max", "h0"}
    assert d["options"]["grid_size"] is None
    assert json.loads(json.dumps(d)) == d


def test_yau_grid_record_pins_the_bisection(yau_n3):
    record = yau_n3.engine.grid_record
    # deterministic: 16 geometric nodes per decade over [1e-8, 2e4] and the
    # steps' breakpoints, then the cells where the transitions need nodes
    assert (record.base_nodes, record.bisected_cells, record.rounds, record.nodes) == (
        450, 545, 4, 995
    )
    assert record.nodes == yau_n3.native.size
    assert record.tolerance == metric_module.GRID_TOL
    assert yau_n3.describe()["grid"] == record.as_dict()


def test_r_grid_record_pins_the_bisection(poly05_n2):
    record = poly05_n2.engine.grid_record
    # 16 geometric nodes per decade over [1e-8, 1e8] and the origin, then the
    # cells where xi = t/(2(1 + t)) bends most, in two rounds
    assert (record.base_nodes, record.bisected_cells, record.rounds, record.nodes) == (
        257, 142, 2, 399
    )
    assert record.nodes == poly05_n2.native.size
    grid = poly05_n2.describe()["grid"]
    assert grid == record.as_dict()
    assert 0.0 < grid["worst_estimate"] <= grid["tolerance"] == metric_module.GRID_TOL


def test_r_grids_meet_their_node_budget():
    far = BuildOptions(r_max=1e24)
    assert build_metric(polynomial_xi(0.5), 2, far).native.size <= 800
    assert build_metric(polynomial_xi(0.3), 2, far).native.size <= 800
    assert s3_metric(2, r0=1.0, options=far).native.size <= 1700
    flat = flat_metric(2, options=far)
    assert flat.native.size == flat.engine.grid_record.base_nodes == 513


def test_r_grid_meets_its_tolerance(poly05_n2, s3_n2):
    for m in (poly05_n2, s3_n2):
        grid = m.native
        xi = m.engine.xi_of(gauss_nodes(grid))
        est, scale = metric_module._xi_tail(grid, (xi,))
        assert np.max(est) <= metric_module.GRID_TOL * scale
        assert np.max(est) / scale == pytest.approx(m.engine.grid_record.worst_estimate, rel=1e-12)
        # independently of the estimate: each cell's interpolant through its
        # Gauss-node xi, at 17 points across the cell (its ends included), is
        # within GRID_TOL of max |xi| (measured <= 1.3e-14 of it)
        u = np.linspace(-1.0, 1.0, 17)
        half = 0.5 * np.diff(grid)[:, None]
        pts = grid[:-1, None] + half * (1.0 + u)
        coef = np.linalg.solve(np.polynomial.legendre.legvander(gauss_nodes([-1.0, 1.0])[0], 7),
                               xi.T).T
        interp = coef @ np.polynomial.legendre.legvander(u, 7).T
        err = np.abs(interp - m.engine.xi_of(pts))
        assert np.max(err) <= metric_module.GRID_TOL * np.max(np.abs(xi))


def test_injected_h_grid_stops_within_tolerance(caplog):
    h_kind = GeneratorProfile(GeneratorKind.H, ClosedFormSource("(1 + t) ^ -0.5"), name="h-kind")
    with caplog.at_level(logging.INFO, logger="cvlab.metric"):
        m = build_metric(h_kind, 2)
    assert not [rec for rec in caplog.records if rec.levelname == "WARNING"]
    lines = [rec.getMessage() for rec in caplog.records if "bisected" in rec.getMessage()]
    assert len(lines) == 1 and lines[0].startswith("r grid: ")
    assert m.engine.grid_record.rounds < metric_module.GRID_ROUNDS
    # a constant xi (h = t^-1.2 truncated at the grid floor) is already resolved
    singular = build_metric(GeneratorProfile(GeneratorKind.H, ClosedFormSource("t ^ -1.2")), 2)
    assert singular.engine.grid_record.bisected_cells == 0


def test_explicit_base_rebuilds_the_geometric_r_grid():
    # grid_size = 4096, as a saved schema-2 file names it: the geomspace of
    # that size, which the bisection leaves as it is on poly
    m = build_metric(polynomial_xi(0.5), 2, BuildOptions(grid_size=4096))
    assert np.array_equal(m.native, np.concatenate(([0.0], np.geomspace(1e-8, 1e8, 4096))))
    assert m.engine.grid_record.bisected_cells == 0


def test_r_grid_resolves_a_min1_kink():
    # xi = t up to the kink at r = 1/2, then 1/2; log h = 1/2 + ln(2r)/2 past it.
    # The kink falls between geometric nodes and is no breakpoint.  A kink
    # between a cell's last Gauss node and its edge leaves the Legendre tail
    # blind; the gap between neighbouring interpolants there is not, and the
    # bisection closes in on r = 1/2 until the kink cell is ~1e-11 wide, where
    # the estimate meets the tolerance: it stops below GRID_ROUNDS and above
    # the MIN_CELL floor, with no warning.  (Fixed 4 097-node grid: 1.6e-8.)
    p = GeneratorProfile(GeneratorKind.XI, ClosedFormSource("0.5 * min1(2 * t)"), name="kink")
    m = build_metric(p, 2)
    record = m.engine.grid_record
    assert (record.base_nodes, record.bisected_cells, record.rounds, record.nodes) == (
        257, 91, 33, 348
    )
    assert record.worst_estimate <= record.tolerance
    i = np.searchsorted(m.native, 0.5)
    assert 2.0 * metric_module.MIN_CELL < m.native[i] - m.native[i - 1] < 1e-10
    past = m.native[m.native > 0.5]
    want = 0.5 + 0.5 * np.log(2.0 * past)
    assert np.max(np.abs(-np.log(m.engine.h_of(past)) - want)) <= 1e-12
    assert np.max(np.abs(-np.log(m.h[m.native > 0.5]) - want)) <= 1e-12


def test_inverses_answer_a_point_alike_alone_or_in_a_batch(poly05_n2, yau_n3):
    # a point whose Newton polish is done keeps its radius while batch-mates
    # still step, so an array query answers each point as a scalar query does
    for m in (poly05_n2, yau_n3):
        s = np.geomspace(m.s[1], m.s[-1], 97)
        batch = m.radius_from_s(s)
        assert all(batch[i] == m.radius_from_s(float(q)) for i, q in enumerate(s))


def test_yau_grid_meets_its_node_budget_and_tolerance(yau_n3):
    m = yau_n3
    assert m.native.size <= 8000
    # every final cell, recomputed from the model's own F' and F'' at its nodes
    nodes = gauss_nodes(m.native)
    p, pp = m.engine.fprime_of(nodes), m.engine.fpp_of(nodes)
    tail, mass = cell_tails(p * pp / np.hypot(1.0, p) ** 3, m.native[:-1], m.native[1:])
    scale = np.sum(np.abs(mass))
    assert np.max(tail) <= metric_module.GRID_TOL * scale
    assert np.max(tail) / scale == pytest.approx(m.engine.grid_record.worst_estimate, rel=1e-12)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path, poly05_n2):
    path = tmp_path / "model.json"
    save_metric(poly05_n2, path)
    loaded = load_metric(path)
    assert loaded.n == poly05_n2.n
    assert classify(loaded).metric_class is MetricClass.S1
    assert np.array_equal(loaded.v, poly05_n2.v)
    probes = np.geomspace(1e-2, 1e6, 30)
    for built, back in zip(abc_at_r(poly05_n2, probes), abc_at_r(loaded, probes)):
        assert np.array_equal(built, back)


_SAMPLES = np.concatenate(([0.0], np.geomspace(1e-6, 1e4, 199)))

ROUND_TRIP_MODELS = {
    "poly2": lambda: build_metric(polynomial_xi(0.5), 2),
    "poly3exp": lambda: build_metric(polynomial_xi(0.5, "exponential"), 3),
    "s3": lambda: s3_metric(2, r0=1.0),
    "flat": lambda: flat_metric(2),
    "yau3": lambda: yau_counterexample(3, 2, l_max=32),
    "lp2": lambda: lp_counterexample(2, l_max=32),
    "hkind": lambda: build_metric(
        GeneratorProfile(GeneratorKind.H, ClosedFormSource("(1 + t) ^ -0.5")), 2
    ),
    "sampled": lambda: build_metric(
        GeneratorProfile(
            GeneratorKind.XI, SampledSource(_SAMPLES, 0.5 * _SAMPLES / (1.0 + _SAMPLES))
        ),
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_MODELS))
def test_save_load_is_bit_identical(name, tmp_path):
    built = ROUND_TRIP_MODELS[name]()
    path = tmp_path / "model.json"
    save_metric(built, path)
    loaded = load_metric(path)
    assert loaded.describe() == built.describe()
    for table in ("r", "x", "h", "f", "xi", "v", "s"):
        assert np.array_equal(getattr(loaded, table), getattr(built, table)), table
    n = built.n
    series = [normalized_sigma_series(m, n) for m in (loaded, built)]
    assert np.array_equal(series[0].integral, series[1].integral)
    assert chern_number(loaded) == chern_number(built)
    for back, orig in zip(abc_native(loaded, built.native), abc_native(built, built.native)):
        assert np.array_equal(back, orig)
    if np.max(built.xi) < 1.0 - 1e-12:
        for k in range(1, n):
            assert mixed_curvature_ibp(loaded, k) == mixed_curvature_ibp(built, k)


class _HandWrittenXi(ProfileSource):
    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * t / (1.0 + t)


def test_save_refuses_a_source_it_cannot_rebuild(tmp_path):
    profile = GeneratorProfile(GeneratorKind.XI, _HandWrittenXi())
    m = build_metric(profile, 2, BuildOptions(grid_size=256))
    with pytest.raises(ValueError, match="_HandWrittenXi cannot be saved"):
        save_metric(m, tmp_path / "model.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(schema=1), "schema-1 model file"),
        (lambda doc: doc.update(schema=3), "unsupported model file schema 3"),
        (lambda doc: doc["profile"].update(source="NoSuchSource"), "unknown profile source"),
    ],
    ids=["schema-1", "schema-3", "unknown-source"],
)
def test_load_refuses_what_it_cannot_rebuild(edit, message, tmp_path, poly05_n2):
    path = tmp_path / "model.json"
    save_metric(poly05_n2, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_metric(path)


def test_loaded_fpp_profile_is_the_saved_generator(tmp_path):
    m = yau_counterexample(3, 2, l_max=16)
    path = tmp_path / "model.json"
    save_metric(m, path)
    loaded = load_metric(path)
    assert loaded.profile.kind is GeneratorKind.FPP
    assert np.array_equal(loaded.profile.source(loaded.native), m.engine.fpp_of(m.native))
    # x = 2.1 lies on the plateau of the l = 2 step, where F'' = l = 2
    assert loaded.profile.source(2.1) == pytest.approx(2.0, rel=1e-12)


# a yau n=3, l_max=16 model file as saved before the x grid was bisected
PARENT_FORMAT = (
    '{"schema": 2, "n": 3, "options": {"grid_size": 4096, "r_max": 100000000.0, '
    '"x_max": null, "h0": 1.0, "nodes_per_feature": 256, "quad_rel_tol": 1e-08, '
    '"series_points": 64}, "profile": {"kind": "fpp", "name": "smooth-steps(h~l^1, '
    'w~l^-2.5, l<=16)", "source": "SmoothStepSource", "spec": {"family": '
    '{"height_exponent": 1.0, "width_exponent": 2.5, "l_min": 2, "l_max": 16}, '
    '"factor": 0.25}}}\n'
)


def test_load_drops_the_retired_nodes_per_feature_option(tmp_path, caplog):
    path = tmp_path / "model.json"
    path.write_text(PARENT_FORMAT)
    with caplog.at_level(logging.WARNING, logger="cvlab.metric"):
        loaded = load_metric(path)
    notes = [rec for rec in caplog.records if "nodes_per_feature" in rec.getMessage()]
    assert len(notes) == 1 and notes[0].levelname == "WARNING"
    assert "nodes_per_feature, quad_rel_tol, series_points" in notes[0].getMessage()
    assert "nodes_per_feature" not in loaded.describe()["options"]
    # the same recipe, rebuilt on the bisected grid from its explicit 4 096 base nodes
    built = yau_counterexample(3, 2, l_max=16, options=BuildOptions(grid_size=4096))
    assert loaded.describe() == built.describe()
    for table in ("x", "r", "v", "s"):
        assert np.array_equal(getattr(loaded, table), getattr(built, table)), table


# a poly n=2 model file as saved while the quadrature tolerance and the
# series length were build options
SERIES_OPTIONS_FORMAT = (
    '{"schema": 2, "n": 2, "options": {"grid_size": null, "r_max": 100000000.0, '
    '"x_max": null, "h0": 1.0, "quad_rel_tol": 1e-08, "series_points": 64}, "profile": '
    '{"kind": "xi", "name": "poly-xi(a=0.5, rational)", "source": "ClosedFormSource", '
    '"spec": {"ast": "0.5 * t / (1.0 + t)", "domain_end": Infinity}}}\n'
)


def test_load_drops_the_retired_series_options(tmp_path, caplog, poly05_n2):
    path = tmp_path / "model.json"
    path.write_text(SERIES_OPTIONS_FORMAT)
    with caplog.at_level(logging.WARNING, logger="cvlab.metric"):
        loaded = load_metric(path)
    notes = [rec for rec in caplog.records if rec.levelname == "WARNING"]
    assert len(notes) == 1
    assert "quad_rel_tol, series_points" in notes[0].getMessage()
    assert loaded.describe() == poly05_n2.describe()
    assert np.array_equal(loaded.s, poly05_n2.s)


def test_load_refuses_an_unknown_option(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(SERIES_OPTIONS_FORMAT.replace('"series_points"', '"series_length"'))
    with pytest.raises(TypeError, match="series_length"):
        load_metric(path)


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
    n = len(m.s)
    idx = [n // 40, n // 4, n // 2]
    r, x, s = m.r[idx], m.x[idx], m.s[idx]
    _assert_scalar_contract(lambda t: abc_native(m, t), m.native[idx])
    _assert_scalar_contract(lambda q: abc_at_r(m, q), r)
    _assert_scalar_contract(lambda q: abc_at_x(m, q), x)
    _assert_scalar_contract(lambda q: distance_s(m, r=q), r)
    _assert_scalar_contract(lambda q: distance_s(m, x=q), x)
    _assert_scalar_contract(lambda q: volume_ball(m, q), s)
    _assert_scalar_contract(m.radius_from_s, s)
    _assert_scalar_contract(m.native_from_r, r)
    _assert_scalar_contract(m.native_from_x, x)


def test_conversions_scalar_contract():
    _assert_scalar_contract(fprime_from_xi, np.array([0.0, 0.3, 0.9]))
    _assert_scalar_contract(xi_from_fprime, np.array([0.0, 1.0, 40.0]))
    node = parse_expression("t / (1 + t) + exp(-t)")
    _assert_scalar_contract(lambda t: evaluate_derivative(node, t), np.array([0.0, 0.5, 7.0]))
