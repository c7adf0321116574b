import math

import numpy as np
import pytest

from cvlab.families import (
    flat_metric,
    lp_counterexample,
    polynomial_xi,
    s3_metric,
    yau_counterexample,
)
from cvlab.growth import log_growth_fit
from cvlab.integrals import (
    average_scalar_curvature,
    average_scalar_series,
    ball_integral,
    chern_number,
    chern_power_density,
    default_s_grid,
    distance_s,
    lp_curvature_series,
    mixed_curvature_ibp,
    normalized_chern_series,
    normalized_sigma_series,
    sigma_density,
    volume_ball,
    volume_growth_report,
    volume_ratio_limit,
)
from cvlab.metric import BuildOptions, build_metric
from cvlab.quadrature import QuadratureError


def _unit_density(A, B, C):
    return np.ones_like(A)


# ---------------------------------------------------------------------------
# distances and ball volumes


def test_distance_s_requires_exactly_one_argument(poly05_n2):
    with pytest.raises(ValueError):
        distance_s(poly05_n2)
    with pytest.raises(ValueError):
        distance_s(poly05_n2, r=1.0, x=1.0)


def test_distance_s_r_and_x_name_the_same_sphere(poly05_n2):
    r = 7.0
    x = math.sqrt(r * poly05_n2.engine.h_of(r))
    # the x -> native inversion is a root find with its own tolerance
    assert distance_s(poly05_n2, x=x) == pytest.approx(
        distance_s(poly05_n2, r=r), rel=1e-9
    )


def test_distance_s_from_x_below_saturation(s3_n2):
    x0 = s3_n2.classification.x0
    for frac in (0.1, 0.5, 0.99):
        x = frac * x0
        t = float(s3_n2.native_from_x(x))
        assert abs(float(s3_n2.engine.x_of(t)) / x - 1.0) <= 4.4e-16
        assert distance_s(s3_n2, x=x) == distance_s(s3_n2, r=t)
    # past saturation no radius has this x
    with pytest.raises(ValueError, match="beyond the tabulated x"):
        distance_s(s3_n2, x=2.0 * x0)


def test_volume_ball_flat_is_euclidean(flat_n2):
    for s in (0.1, 1.0, 100.0):
        assert volume_ball(flat_n2, s) == pytest.approx(flat_n2.c_n * s**4, rel=1e-12)


def test_volume_ball_vectorized_matches_scalar(poly05_n2):
    s = np.array([0.5, 2.0, 20.0])
    vec = volume_ball(poly05_n2, s)
    assert vec.shape == s.shape
    for i, si in enumerate(s):
        assert vec[i] == volume_ball(poly05_n2, float(si))


def test_ball_integral_of_unit_density_is_the_volume(poly05_n2):
    for s in (0.5, 3.0, 40.0):
        want = volume_ball(poly05_n2, s)
        assert ball_integral(poly05_n2, _unit_density, s) == pytest.approx(
            want, rel=1e-11
        )


def test_average_scalar_curvature_positive_and_decaying(poly05_n2):
    avgs = [average_scalar_curvature(poly05_n2, s) for s in (1.0, 10.0, 50.0)]
    assert avgs[0] > avgs[1] > avgs[2] > 0.0


@pytest.mark.parametrize("shape", ["rational", "exponential"])
@pytest.mark.parametrize("a", [0.3, 0.7])
def test_far_single_balls_agree_with_the_series(a, shape):
    # no breakpoints across up to seven decades: the adaptive route must find
    # the features near the origin itself
    m = build_metric(polynomial_xi(a, shape), 2)
    s = np.array([distance_s(m, r=r) for r in (5e4, 1e6, 1e7)])
    series = average_scalar_series(m, s_grid=s).normalized
    single = [average_scalar_curvature(m, float(q)) for q in s]
    np.testing.assert_allclose(single, series, rtol=1e-12, atol=0.0)


def test_single_ball_on_an_exponential_profile_past_r_5e4():
    m = build_metric(polynomial_xi(0.2754, "exponential"), 2)
    series = average_scalar_series(m, s_grid=np.array([81.2])).normalized[0]
    assert average_scalar_curvature(m, 81.2) == pytest.approx(series, rel=1e-12, abs=0.0)


def test_ball_integral_raises_on_hopeless_density(poly05_n2):
    def noisy(A, B, C):
        return np.sin(1.0 / (A + 1e-9))

    with pytest.raises(QuadratureError) as exc:
        ball_integral(poly05_n2, noisy, 50.0, rel_tol=1e-13)
    assert math.isfinite(exc.value.achieved)


# ---------------------------------------------------------------------------
# series plumbing


def test_default_s_grid_spans_r_one_to_grid_end(poly05_n2):
    g = default_s_grid(poly05_n2)
    assert len(g) == poly05_n2.options.series_points
    assert g[0] == pytest.approx(distance_s(poly05_n2, r=1.0), rel=1e-12)
    assert g[-1] == pytest.approx(float(poly05_n2.s[-1]), rel=1e-12)
    assert np.all(np.diff(np.log(g)) > 0)


def test_series_rows_and_labels(poly05_n2):
    ser = normalized_sigma_series(poly05_n2, 1)
    assert ser.label == "sigma_1 ball integral / s^2"
    assert ser.k == 1 and ser.n == 2 and ser.p is None
    rows = list(ser.rows())
    assert len(rows) == len(ser.s)
    s0, vol0, integ0, norm0 = rows[0]
    assert vol0 == volume_ball(poly05_n2, float(s0))
    assert norm0 == integ0 / s0**2
    assert average_scalar_series(poly05_n2).label == "ball average of scalar curvature"
    assert lp_curvature_series(poly05_n2, 2.0).label == "s^2 * ball average of |A|^2"
    assert (
        normalized_chern_series(poly05_n2, 1).label
        == "chern_1 ball integral / (pi^1 s^2)"
    )


def test_series_cumulative_is_cached_per_density(poly05_n2):
    a = normalized_sigma_series(poly05_n2, 1)
    b = normalized_sigma_series(poly05_n2, 1, s_grid=np.geomspace(1.0, 50.0, 8))
    assert ("sigma", 1) in poly05_n2._cache
    # same cumulative evaluated on both grids: values at a shared s agree
    s_shared = float(b.s[0])
    i = int(np.argmin(np.abs(a.s - s_shared)))
    assert b.integral[0] == pytest.approx(
        float(
            poly05_n2.c_n
            * poly05_n2._cache[("sigma", 1)](poly05_n2.radius_from_s(s_shared))
        ),
        rel=1e-14,
    )
    del i


def test_series_deterministic_across_fresh_builds(poly05_n2):
    other = build_metric(polynomial_xi(0.5), 2)
    a = normalized_sigma_series(poly05_n2, 1)
    b = normalized_sigma_series(other, 1)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.integral, b.integral)
    assert np.array_equal(a.normalized, b.normalized)


def test_top_order_sigma_series_has_no_growth_factor(poly05_n2):
    ser = normalized_sigma_series(poly05_n2, 2)
    assert np.array_equal(ser.normalized, ser.integral)
    assert ser.label.endswith("/ s^0")


def test_chern_series_top_order_approaches_the_total(poly05_n2):
    ser = normalized_chern_series(poly05_n2, 2)
    total = chern_number(poly05_n2)
    # series stops at the grid end; the exact tail is the remaining gap
    assert ser.normalized[-1] == pytest.approx(total.value, abs=2 * abs(total.tail))


def test_lp_series_rejects_p_at_most_one(poly05_n2):
    for p in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            lp_curvature_series(poly05_n2, p)


def test_density_factories_reject_bad_orders(poly05_n2):
    for k in (0, -1, 5):
        with pytest.raises(ValueError):
            sigma_density(poly05_n2, k)
    for k in (0, 3):
        with pytest.raises(ValueError):
            chern_power_density(poly05_n2, k)


# ---------------------------------------------------------------------------
# total Chern-power integral


def test_chern_total_closed_form(poly05_n2, poly05_n3):
    for model in (poly05_n2, poly05_n3):
        n = model.n
        xi_inf = model.classification.xi_infinity
        want = (n * xi_inf) ** n / math.factorial(n)
        got = chern_number(model)
        assert got.value == pytest.approx(want, rel=1e-12)
        assert got.identity_residual <= 1e-6
        assert 0.0 < got.tail_share < 1e-2
        assert got.value < got.upper_bound


def test_chern_bound_attained_at_saturation(s3_n2):
    got = chern_number(s3_n2)
    assert got.upper_bound == pytest.approx(
        s3_n2.c_n * (s3_n2.n / math.pi) ** s3_n2.n, rel=1e-15
    )
    assert got.value == pytest.approx(got.upper_bound, rel=1e-10)


# ---------------------------------------------------------------------------
# integration by parts for the mixed comparison


def test_ibp_identity_from_xi(poly05_n2, poly05_n3):
    assert mixed_curvature_ibp(poly05_n2, 1).relative_gap <= 1e-9
    assert mixed_curvature_ibp(poly05_n3, 1).relative_gap <= 1e-7
    assert mixed_curvature_ibp(poly05_n3, 2).relative_gap <= 1e-9


def test_ibp_identity_from_f(yau_n3):
    assert mixed_curvature_ibp(yau_n3, 2).relative_gap <= 1e-6
    # k = 1 over the whole deep-tail grid subtracts boundary and bulk terms
    # of order v^2 ~ 1e17 that agree to eleven digits; stop just past the
    # last step, where the identity is conditioned, to see the true gap
    assert mixed_curvature_ibp(yau_n3, 1, t_end=128.0).relative_gap <= 1e-9
    # an end between grid nodes reads both tables and the boundary there
    assert not np.isin(100.5, yau_n3.native)
    assert mixed_curvature_ibp(yau_n3, 1, t_end=100.5).relative_gap <= 1e-9


def test_ibp_identity_on_the_narrowest_lp_steps():
    # beta = 5 at l_max = 75: transitions 1e-10 wide at x ~ 75, down at the
    # bisection's relative width floor.  Measured gap 1.4e-7 on the bisected
    # grid (4.3e-7 with 256 fixed nodes per transition).
    m = lp_counterexample(2, p=2.37, alpha=2.48, beta=5.0, l_max=75)
    assert mixed_curvature_ibp(m, 1).relative_gap <= 1e-6


def test_ibp_reports_its_condition(yau_n3):
    # n = 3, k = 2 to x = 2e4 by hand: bulk = int 2x dx = x^2 = 4e8, so
    # n (n-k) bulk = 1 200 000 000; the boundary -n v (1 - xi) reads
    # -1 199 999 633 and by_parts / c_n is their difference, 367
    ibp = mixed_curvature_ibp(yau_n3, 2)
    n, k, x_end = 3, 2, 2.0e4
    assert n * (n - k) * ibp.bulk == pytest.approx(n * (n - k) * x_end**2, rel=4e-15)
    assert ibp.boundary == pytest.approx(-1_199_999_633, abs=0.5)
    assert ibp.by_parts == pytest.approx(yau_n3.c_n * 367, rel=1.5e-3)
    by_hand = (1_199_999_633 + 1_200_000_000) / 367
    assert ibp.condition == pytest.approx(by_hand, rel=1.5e-3)
    terms = abs(ibp.boundary) + n * (n - k) * abs(ibp.bulk)
    assert ibp.condition == pytest.approx(terms / abs(ibp.by_parts / yau_n3.c_n), rel=1e-15)
    # C10's gate sits far above the rounding the condition amplifies
    assert ibp.condition * np.finfo(float).eps < 1e-6


@pytest.mark.parametrize("p, alpha, beta, l_max", [(2.37, 2.48, 5.0, 75), (2.79, 2.45, 5.0, 69)])
def test_narrow_steps_keep_every_breakpoint_on_the_grid(p, alpha, beta, l_max):
    # transitions here are narrower than the master grid's near-duplicate
    # floor; pruning a breakpoint put a kink inside a cell and broke C10
    m = lp_counterexample(2, p=p, alpha=alpha, beta=beta, l_max=l_max)
    bps = np.asarray(m.engine.breakpoints_native)
    assert np.all(np.isin(bps[bps <= m.native_end], m.native))
    assert mixed_curvature_ibp(m, 1).relative_gap <= 1e-6


def test_ibp_rejects_order_outside_mixed_range(poly05_n2):
    for k in (0, 2, 3):
        with pytest.raises(ValueError):
            mixed_curvature_ibp(poly05_n2, k)


def test_ibp_rejects_saturated_profile(s3_n2):
    with pytest.raises(ValueError, match="xi < 1"):
        mixed_curvature_ibp(s3_n2, 1)


# ---------------------------------------------------------------------------
# tail limits and volume growth


def test_volume_ratio_limit_matches_prediction(poly05_n2):
    lim = volume_ratio_limit(poly05_n2, 1)
    assert lim.predicted == pytest.approx(0.5, rel=1e-12)
    assert lim.relative_gap <= 1e-4
    # n = k: the ratio is the empty product
    assert volume_ratio_limit(poly05_n2, 2).relative_gap == 0.0


def test_volume_ratio_limit_rejects_bad_order(poly05_n2):
    for k in (0, 3):
        with pytest.raises(ValueError):
            volume_ratio_limit(poly05_n2, k)


def test_volume_growth_report_euclidean_type(poly05_n2):
    rep = volume_growth_report(poly05_n2)
    assert rep.growth_power == 2 * poly05_n2.n
    assert rep.matched == "c_n (1 - xi_inf)^n"
    want = rep.candidates[rep.matched]
    assert abs(rep.measured - want) / want <= 2e-2
    # the competing power is not even close
    other = rep.candidates["c_n (1 - xi_inf)^(4n)"]
    assert abs(rep.measured - other) > 0.5 * rep.measured


def test_volume_growth_report_saturated(s3_n2):
    rep = volume_growth_report(s3_n2)
    assert rep.growth_power == s3_n2.n
    assert rep.matched == "c_n (2 x0)^n"
    want = rep.candidates[rep.matched]
    assert abs(rep.measured - want) / want <= 2e-2


def test_top_order_sigma_integral_diverges_logarithmically(poly05_n2, poly05_n3):
    for model in (poly05_n2, poly05_n3):
        n = model.n
        ser = normalized_sigma_series(model, n)
        fit = log_growth_fit(ser.volume, ser.integral)
        xi_inf = model.classification.xi_infinity
        pure_mu_weight = math.comb(2 * n - 2, n)
        predicted = model.c_n * pure_mu_weight * (n * xi_inf) ** n
        assert fit.diverges
        assert fit.slope == pytest.approx(predicted, rel=1e-2)


def test_step_train_series_need_no_dense_base(yau_n3, lp_model):
    # a 4 096-node geometric base under the bisected x grid (5k nodes against
    # 1k) buys no accuracy: every series and the Chern number agree with the
    # default 16-per-decade base to 2.5e-13 of the series' size (chern_2 on
    # lp; the rest within 1.5e-13), so 2e-12 holds with room
    cases = (
        (yau_n3, yau_counterexample(3, 2, options=BuildOptions(x_max=2.0e4, grid_size=4096)), 2.37),
        (lp_model, lp_counterexample(2, p=2.0, alpha=2.0, beta=3.5,
                                     options=BuildOptions(grid_size=4096)), 2.0),
    )
    for coarse, dense, p in cases:
        assert coarse.native.size < dense.native.size / 3
        s = default_s_grid(dense)
        pairs = [(f"lp{p}", lp_curvature_series(coarse, p, s), lp_curvature_series(dense, p, s))]
        for k in range(1, coarse.n + 1):
            pairs.append((f"sigma{k}", normalized_sigma_series(coarse, k, s),
                          normalized_sigma_series(dense, k, s)))
            pairs.append((f"chern{k}", normalized_chern_series(coarse, k, s),
                          normalized_chern_series(dense, k, s)))
        for key, a, b in pairs:
            gap = np.max(np.abs(a.normalized - b.normalized)) / np.max(np.abs(b.normalized))
            assert gap <= 2e-12, (coarse.profile.name, key, gap)
        total = chern_number(dense).value
        assert abs(chern_number(coarse).value - total) <= 2e-12 * abs(total)
