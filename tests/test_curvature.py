import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvlab.curvature import (
    abc_at_r,
    abc_at_x,
    abc_native,
    chern_density_k,
    curvature_table,
    ricci_eigenvalues,
    scalar_curvature,
    sigma_k,
)

from _oracles import (
    chern_density_oracle,
    fgauge_b_mp,
    ramp_abc_mp,
    rational_abc_mp,
    route_abc_at_r,
    route_abc_at_x,
    sigma_oracle,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


# ---------------------------------------------------------------------------
# pointwise algebra


def test_ricci_eigenvalues_definition():
    A, B, C, n = 0.7, 0.3, 0.2, 3
    lam, mu = ricci_eigenvalues(A, B, C, n)
    assert lam == pytest.approx(A + (n - 1) * B)
    assert mu == pytest.approx(B + n * C / 2.0)


def test_scalar_curvature_definition():
    A, B, C, n = 0.7, 0.3, 0.2, 3
    R = scalar_curvature(A, B, C, n)
    assert R == pytest.approx(A + 2 * (n - 1) * B + 0.5 * n * (n - 1) * C)


def test_sigma2_frozen_example():
    # eigenvalue multiset {2, 2, 3, 3, 3, 3}: sum of pairwise products is 106
    assert sigma_k(2.0, 3.0, 3, 2) == pytest.approx(106.0, rel=1e-15)


@settings(max_examples=1000, deadline=None)
@given(finite, finite, finite, st.integers(min_value=2, max_value=6))
def test_sigma1_is_twice_scalar(A, B, C, n):
    lam, mu = ricci_eigenvalues(A, B, C, n)
    R = scalar_curvature(A, B, C, n)
    assert sigma_k(lam, mu, n, 1) == pytest.approx(2.0 * R, rel=1e-12, abs=1e-12)


def test_sigma_k_matches_bruteforce_all_orders():
    rng = np.random.default_rng(20260815)
    for n in (2, 3, 4):
        for _ in range(200):
            lam, mu = rng.uniform(-3.0, 3.0, size=2)
            for k in range(1, 2 * n + 1):
                want = sigma_oracle(lam, mu, n, k)
                got = sigma_k(lam, mu, n, k)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_chern_density_matches_wedge_oracle():
    rng = np.random.default_rng(31415)
    for n in (2, 3, 4):
        for _ in range(200):
            lam, mu = rng.uniform(-3.0, 3.0, size=2)
            for k in range(1, n + 1):
                want = chern_density_oracle(lam, mu, n, k)
                got = chern_density_k(lam, mu, n, k)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(finite, finite, finite, st.integers(min_value=2, max_value=5))
def test_chern_density_edge_orders(A, B, C, n):
    lam, mu = ricci_eigenvalues(A, B, C, n)
    R = scalar_curvature(A, B, C, n)
    assert chern_density_k(lam, mu, n, 1) == pytest.approx(R / n, rel=1e-12, abs=1e-12)
    assert chern_density_k(lam, mu, n, n) == pytest.approx(
        lam * mu ** (n - 1), rel=1e-12, abs=1e-12
    )


def test_order_bounds_are_enforced():
    with pytest.raises(ValueError):
        sigma_k(1.0, 1.0, 2, 0)
    with pytest.raises(ValueError):
        sigma_k(1.0, 1.0, 2, 5)
    with pytest.raises(ValueError):
        chern_density_k(1.0, 1.0, 2, 3)
    with pytest.raises(ValueError):
        chern_density_k(1.0, 1.0, 2, 0)


def test_sigma_monomial_structure_symbolically():
    # every monomial of sigma_k in (A, B, C) has total degree k and A-degree
    # at most 2 (the radial eigenvalue has multiplicity two); checked on the
    # brute-force expansion, which the numeric tests pin sigma_k against
    import sympy

    A, B, C = sympy.symbols("A B C")
    n = 3
    lam = A + (n - 1) * B
    mu = B + sympy.Rational(n, 2) * C
    for k in range(1, 2 * n + 1):
        expr = sympy.expand(sigma_oracle(lam, mu, n, k))
        for monom in sympy.Poly(expr, A, B, C).monoms():
            assert sum(monom) == k
            assert monom[0] <= 2


# ---------------------------------------------------------------------------
# curvature of built metrics


@pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
def test_rational_metric_curvature_closed_form(a):
    from cvlab import build_metric, polynomial_xi

    m = build_metric(polynomial_xi(a), 2)
    t = m.r[1:]
    A, B, C = abc_native(m, t)
    A0, B0, C0 = rational_abc_mp(a, t)
    assert np.allclose(A, A0, rtol=1e-8, atol=1e-13)
    # against 40-digit references the engine's B and C keep nearly every
    # digit down to the origin (the float closed forms lose 7 there to
    # their own cancellation); B drifts to ~1e-10 only out at r ~ 1e8
    assert np.allclose(C, C0, rtol=1e-13, atol=0.0)
    inner = t <= 1.0
    assert np.allclose(B[inner], B0[inner], rtol=1e-13, atol=0.0)
    assert np.allclose(B, B0, rtol=1e-9, atol=0.0)


def test_saturation_ramp_curvature_against_mpmath(s3_n2):
    # flat below r0/2 (A = B = C = 0 exactly), the quintic ramp on [r0/2, r0],
    # the cylinder end past it (A = 0, xi = 1)
    r = np.concatenate((np.geomspace(1e-3, 0.4, 5), np.linspace(0.52, 0.98, 8),
                        np.geomspace(1.02, 1e6, 9)))
    for got, want in zip(abc_native(s3_n2, r), ramp_abc_mp(1.0, r)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_origin_limits_from_xi(poly05_n2):
    A, B, C = abc_native(poly05_n2, 0.0)
    # xi'(0) = a = 1/2, h(0) = 1: A = 1/2, B = A/2, C = A
    assert A == pytest.approx(0.5, rel=1e-6)
    assert B == pytest.approx(0.25, rel=1e-6)
    assert C == pytest.approx(0.5, rel=1e-6)


def test_origin_limits_from_f(yau_n3):
    # F''(0) = 0 for the step train: curvature vanishes at the origin
    A, B, C = abc_native(yau_n3, 0.0)
    assert A == 0.0 and B == 0.0 and C == 0.0


def test_curvature_nonnegative_for_valid_profiles(poly05_n2, yau_n3, s3_n2, lp_model):
    for m in (poly05_n2, yau_n3, s3_n2, lp_model):
        A, B, C = abc_native(m, m.native[1:])
        assert np.all(A >= -1e-12)
        assert np.all(B >= -1e-15)
        assert np.all(C >= -1e-15)


def test_f_gauge_b_keeps_its_digits_where_fprime_is_small(yau_n3):
    # B written as (x^2 (sq - 1) - w)/(v^2 sq) loses every digit as F' -> 0
    # (100% off, some values negative); the shared (xi v - w)/v^2 with
    # xi = F'^2/(sq (1 + sq)) measures 4.8e-10 at worst.  The points are
    # log-spaced over the grid's span, so their number does not follow the grid
    e = yau_n3.engine
    x = np.geomspace(yau_n3.native[1], yau_n3.native[-1], 8192)
    B = e.abc_of(x)[1]
    assert np.all(B >= 0.0)
    ref = fgauge_b_mp(x, e.fprime_of(x), e.parts_of(x)[2])
    small = (np.abs(ref) > 0) & (np.abs(ref) < 1e-8 * np.max(np.abs(ref)))
    assert np.count_nonzero(small) > 400
    assert np.allclose(B[small], ref[small], rtol=1e-9, atol=0.0)


def test_abc_of_reads_each_table_once(monkeypatch, poly05_n2):
    # one abc_of query on a large batch costs about its table reads; on the
    # F gauge the closed-form F'' makes F' a table too, so its reads count.
    # A ball integrand at arbitrary points needs v and v' too, which the same
    # reads give.  Density and IBP tables run at the master grid's Gauss
    # nodes, where the engine's node data answer without a read
    from cvlab import BuildOptions, ClosedFormSource, GeneratorKind, GeneratorProfile, build_metric
    from cvlab.integrals import (
        _ball_integrand,
        _density_cumulative,
        mixed_curvature_ibp,
        sigma_density,
    )
    from cvlab.quadrature import CumulativeIntegral

    fpp = GeneratorProfile(GeneratorKind.FPP, ClosedFormSource("exp(-t)"))
    f_model = build_metric(fpp, 2, BuildOptions(grid_size=512))
    reads = Counter()
    query = CumulativeIntegral.__call__

    def counted(table, t):
        reads[id(table)] += 1
        return query(table, t)

    monkeypatch.setattr(CumulativeIntegral, "__call__", counted)
    for m, tables in ((poly05_n2, 3), (f_model, 2)):  # log h, v, w; F', w
        reads.clear()
        m.engine.abc_of(m.native)
        assert sorted(reads.values()) == [1] * tables
        reads.clear()
        CumulativeIntegral(_ball_integrand(m, sigma_density(m, 2)), m.native)
        assert sorted(reads.values()) == [1] * tables
        reads.clear()
        _density_cumulative(m, ("sigma", 2))
        mixed_curvature_ibp(m, 1)
        assert not reads


def test_a_step_build_evaluates_fprime_on_new_cells_only(monkeypatch):
    from cvlab import families, yau_counterexample

    sizes = []
    cumulative = families.SmoothStepSource.cumulative

    def counted(source, t):
        sizes.append(np.size(t))
        return cumulative(source, t)

    monkeypatch.setattr(families.SmoothStepSource, "cumulative", counted)
    m = yau_counterexample(3, 2, l_max=32)
    grid = m.engine.grid_record
    # the bisection: the base grid's Gauss nodes, then the two halves of each
    # bisected cell, one call per round
    assert len(sizes) == grid.rounds + 2
    assert sum(sizes[:-1]) == 8 * (grid.base_nodes - 1 + 2 * grid.bisected_cells)
    # the base buys no accuracy, so it costs few F' points: 8 088 on 16 base
    # nodes per decade, where a 4 096-node base cost 39 392
    assert sum(sizes[:-1]) <= 10_000
    # then once at the grid, for the model's xi column
    assert sizes[-1] == m.native.size


def test_cross_route_agreement_rational(poly05_n2):
    m = poly05_n2
    r = np.geomspace(1e-2, 1e6, 120)
    native = abc_at_r(m, r)
    x = m.engine.x_of(r)  # exact: np.interp of the h table is off between nodes
    via_x = route_abc_at_x(m, x)
    for direct, other in zip(native, via_x):
        assert np.all(np.abs(direct - other) <= 1e-5 * (1.0 + np.abs(direct)))


def test_cross_route_agreement_steps(yau_n3):
    m = yau_n3
    x = np.geomspace(0.5, 500.0, 200)
    native = abc_at_x(m, x)
    # r at exactly these x: np.interp of the r table moves the point between
    # nodes, and across a transition that moves A by more than the bound
    r = m.engine.r_of(x)
    via_r = route_abc_at_r(m, r)
    for direct, other in zip(native, via_r):
        assert np.all(np.abs(direct - other) <= 1e-5 * (1.0 + np.abs(direct)))


def test_abc_at_x_refuses_saturated_xi(s3_n2):
    with pytest.raises(ValueError):
        abc_at_x(s3_n2, np.array([0.5, 1.0]))


def test_s3_curvature_vanishes_radially_past_r0(s3_n2):
    m = s3_n2
    r = np.geomspace(1.5, 1e6, 50)
    A, _, _ = abc_at_r(m, r)
    assert np.all(A == 0.0)


def test_curvature_table_shape_and_consistency(poly05_n2):
    table = curvature_table(poly05_n2, rows=128)
    assert set(table) == {"r", "x", "A", "B", "C", "lambda", "mu", "scalar"}
    assert all(len(col) == 128 for col in table.values())
    lam, mu = ricci_eigenvalues(table["A"], table["B"], table["C"], poly05_n2.n)
    assert np.allclose(table["lambda"], lam, rtol=1e-12)
    assert np.allclose(table["mu"], mu, rtol=1e-12)
    assert np.all(np.isfinite(table["scalar"]))
