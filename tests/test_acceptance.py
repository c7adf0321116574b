"""Quantitative acceptance gate, one test per criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Each test states its tolerance inline and carries the measured
numbers in its failure message, so a red line is a self-contained report.

Criterion 9 pins the growth rate 4 - q = 1.5 of the sigma_2 ball integrals
on the step metric where the station window [8, 64] shows it: in the
sigma_2 mass of each bump, which grows like l^e, e = 2n - 1 - q, and sets
the asymptote.  The normalized series itself only climbs at 0.83 over that
window, and that value is right: an ODE reference in _oracles reproduces the
engine's integrals there to ~1e-9.  The series lags because the curvature in
the gaps between bumps (70% of the integral at station 8, 40% at station 64,
growing slower than the bumps) and the drift of s/x (1.09 to 1.33) have not
died out by station 64.  scripts/reproduce_counterexamples.py runs the
deeper windows.
"""

import math
import time
from math import comb

import numpy as np

from cvlab import BuildOptions, build_metric, flat_metric, polynomial_xi
from cvlab import lp_counterexample, s3_metric, yau_counterexample
from cvlab.curvature import (
    abc_at_r,
    abc_native,
    chern_density_k,
    ricci_eigenvalues,
    scalar_curvature,
    sigma_k,
)
from cvlab.growth import (
    GrowthVerdict,
    coordinate_growth,
    fit_loglog,
    growth_fit,
    log_growth_fit,
)
from cvlab.integrals import (
    _density_cumulative,
    chern_number,
    distance_s,
    lp_curvature_series,
    mixed_curvature_ibp,
    normalized_chern_series,
    normalized_sigma_series,
    volume_ball,
    default_s_grid,
    volume_growth_report,
    average_scalar_series,
)

from _oracles import (
    LP_WINDOW_SLOPE,
    YAU_WINDOW_SLOPE,
    chern_density_oracle,
    route_abc_at_r,
    route_abc_at_x,
    sigma_oracle,
    step_train_sigma_integrals,
)


def _last_decade_fit(s, values):
    mask = s >= s[-1] / 10.0
    return fit_loglog(s[mask], values[mask], window_fraction=1.0)


def test_c01_flat_baseline_is_exactly_euclidean():
    t0 = time.monotonic()
    worst_curv = 0.0
    worst_vol = 0.0
    for n in (2, 3):
        m = flat_metric(n)
        t = m.native[1:-1]
        A, B, C = abc_native(m, t)
        lam, mu = ricci_eigenvalues(A, B, C, n)
        R = scalar_curvature(A, B, C, n)
        pieces = [A, B, C, R]
        pieces += [sigma_k(lam, mu, n, k) for k in range(1, 2 * n + 1)]
        worst_curv = max(worst_curv, max(float(np.max(np.abs(p))) for p in pieces))
        keep = m.s > 0
        v = np.asarray(m.engine.v_of(m.native[keep]), dtype=float)
        ratio = (v / m.s[keep] ** 2) ** n
        worst_vol = max(worst_vol, float(np.max(np.abs(ratio - 1.0))))
    elapsed = time.monotonic() - t0
    assert worst_curv <= 1e-10, f"flat curvature as large as {worst_curv:.3e}"
    assert worst_vol <= 1e-6, f"flat Vol/(c_n s^2n) off by {worst_vol:.3e}"
    assert elapsed < 1.0, f"flat baseline took {elapsed:.2f} s"


def test_c02_closed_forms_match_bruteforce_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for n in (2, 3, 4):
        lam = rng.uniform(-3.0, 3.0, size=200)
        mu = rng.uniform(-3.0, 3.0, size=200)
        for k in range(1, 2 * n + 1):
            got = sigma_k(lam, mu, n, k)
            want = np.array([sigma_oracle(l, u, n, k) for l, u in zip(lam, mu)])
            gap = np.max(np.abs(got - want) / (1.0 + np.abs(want)))
            worst = max(worst, float(gap))
        for k in range(1, n + 1):
            got = chern_density_k(lam, mu, n, k)
            want = np.array(
                [chern_density_oracle(l, u, n, k) for l, u in zip(lam, mu)]
            )
            gap = np.max(np.abs(got - want) / (1.0 + np.abs(want)))
            worst = max(worst, float(gap))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12, f"closed form vs oracle gap {worst:.3e}"
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f} s"


def test_c03_sigma1_is_twice_scalar_curvature():
    rng = np.random.default_rng(7151)
    A = rng.uniform(-5.0, 5.0, size=1000)
    B = rng.uniform(-5.0, 5.0, size=1000)
    C = rng.uniform(-5.0, 5.0, size=1000)
    ns = rng.integers(2, 6, size=1000)
    worst = 0.0
    for n in np.unique(ns):
        pick = ns == n
        lam, mu = ricci_eigenvalues(A[pick], B[pick], C[pick], int(n))
        s1 = sigma_k(lam, mu, int(n), 1)
        twice = 2.0 * scalar_curvature(A[pick], B[pick], C[pick], int(n))
        gap = np.max(np.abs(s1 - twice) / (1.0 + np.abs(twice)))
        worst = max(worst, float(gap))
    assert worst <= 1e-12, f"sigma_1 vs 2R gap {worst:.3e}"


def test_c04_curvature_agrees_across_representations(poly05_n2, yau_n3):
    worst = {}
    for name, m in (("poly05_n2", poly05_n2), ("yau_n3", yau_n3)):
        r = m.r[1:-1]
        x = m.x[1:-1]
        # one side is the native route, the other the stencil route of _oracles
        from_r = route_abc_at_r(m, r)
        from_x = route_abc_at_x(m, x)
        for comp, u, w in zip("ABC", from_r, from_x):
            gap = np.max(np.abs(u - w) / (1.0 + np.maximum(np.abs(u), np.abs(w))))
            worst[f"{name}.{comp}"] = float(gap)
    bad = {k: v for k, v in worst.items() if v > 1e-5}
    assert not bad, f"cross-representation gaps over 1e-5: {bad}"


def test_c05_chern_total_matches_closed_form_and_bound(
    poly05_n2, poly05_n3, yau_n3, lp_model, s3_n2, flat_n2
):
    for a in (0.25, 0.5, 0.75):
        for n in (2, 3):
            t0 = time.monotonic()
            m = build_metric(polynomial_xi(a), n)
            ct = chern_number(m)
            target = m.c_n * (n * a / math.pi) ** n
            elapsed = time.monotonic() - t0
            gap = abs(ct.value - target) / target
            assert gap <= 0.01, (
                f"xi_inf={a} n={n}: chern total {ct.value:.8f} vs "
                f"closed form {target:.8f}, rel gap {gap:.2e}"
            )
            assert elapsed < 10.0, f"xi_inf={a} n={n} took {elapsed:.2f} s"
    for m in (poly05_n2, poly05_n3, yau_n3, lp_model, s3_n2, flat_n2):
        ct = chern_number(m)
        # saturated metrics attain the bound exactly; allow roundoff
        assert ct.value <= ct.upper_bound * (1.0 + 1e-9), (
            f"n={m.n}: chern total {ct.value:.10f} exceeds "
            f"bound {ct.upper_bound:.10f}"
        )


def test_c06_volume_slope_between_n_and_2n(
    poly05_n2, poly05_n3, yau_n3, lp_model, s3_n2, flat_n2
):
    slopes = {}
    for name, m in (
        ("flat_n2", flat_n2),
        ("poly05_n2", poly05_n2),
        ("poly05_n3", poly05_n3),
        ("yau_n3", yau_n3),
        ("lp_n2", lp_model),
        ("s3_n2", s3_n2),
    ):
        s = default_s_grid(m)
        fit = _last_decade_fit(s, volume_ball(m, s))
        slopes[name] = fit.slope
        assert m.n - 0.05 <= fit.slope <= 2 * m.n + 0.05, (
            f"{name}: volume slope {fit.slope:.4f} outside "
            f"[{m.n}, {2 * m.n}] +- 0.05 (all: {slopes})"
        )


def _scalar_ratio(m):
    # max/min over the trailing log-half of s of avg(R) * (1 + v); step
    # families have flat cores, so the leading window only reflects where
    # the profile has not started yet
    ser = average_scalar_series(m)
    v = (ser.volume / m.c_n) ** (1.0 / m.n)
    q = ser.normalized * (1.0 + v)
    keep = ser.s >= math.sqrt(ser.s[0] * ser.s[-1])
    return float(np.max(q[keep]) / np.min(q[keep]))


def test_c07_average_scalar_curvature_ratio_bounded(
    poly05_n2, poly05_n3, yau_n3, lp_model, s3_n2
):
    cases = {
        "poly05_n2": (poly05_n2, build_metric(polynomial_xi(0.5), 2, BuildOptions(grid_size=8192))),
        "poly05_n3": (poly05_n3, build_metric(polynomial_xi(0.5), 3, BuildOptions(grid_size=8192))),
        "yau_n3": (yau_n3, yau_counterexample(3, 2, options=BuildOptions(x_max=2.0e4, grid_size=8192))),
        "lp_n2": (lp_model, lp_counterexample(2, p=2.0, alpha=2.0, beta=3.5, options=BuildOptions(grid_size=8192))),
        "s3_n2": (s3_n2, s3_metric(2, r0=1.0, options=BuildOptions(grid_size=8192))),
    }
    for name, (base, fine) in cases.items():
        ratio = _scalar_ratio(base)
        assert ratio <= 50.0, f"{name}: avg scalar ratio {ratio:.3f} > 50"
        drift = abs(_scalar_ratio(fine) - ratio) / ratio
        assert drift < 0.10, f"{name}: ratio drifts {drift:.2%} under 2x refinement"


def test_c08_top_sigma_integral_grows_like_log_volume(poly05_n2):
    m = poly05_n2
    ser = normalized_sigma_series(m, m.n)
    v = (ser.volume / m.c_n) ** (1.0 / m.n)
    fit = log_growth_fit(v, ser.integral)
    assert fit.slope > 0.0 and fit.residual_fraction < 0.1, (
        f"integral vs ln v: slope {fit.slope:.4f}, "
        f"residual fraction {fit.residual_fraction:.4f}"
    )
    # the divergence rate itself has a closed form; check the measured
    # slope against it (per ln Vol) as the quantitative version of the bound
    rate = m.c_n * comb(2 * m.n - 2, m.n) * (m.n * 0.5) ** m.n
    fit_vol = log_growth_fit(ser.volume, ser.integral)
    gap = abs(fit_vol.slope - rate) / rate
    assert gap <= 0.02, (
        f"log-divergence rate {fit_vol.slope:.4f} vs closed form {rate:.4f}"
    )


def test_c09_sigma_2_window_slope_on_step_metric(yau_n3):
    t0 = time.monotonic()
    m = yau_n3
    ser = normalized_sigma_series(m, 2)
    window = (distance_s(m, x=8.0), distance_s(m, x=64.0))
    fit = fit_loglog(ser.s, ser.normalized, window=window)

    # the cumulative the series reads, queried at x directly rather than
    # through the series' s -> x interpolation
    cum = _density_cumulative(m, ("sigma", 2))
    # bump l spans [a_l, b_l] with a_l = l.  Its sigma_2 mass grows like l^e,
    # e = 2n - 1 - q, and sets the asymptotic slope e - 1 = 4 - q; the gap
    # after it, [b_l, a_(l+1)], must grow slower
    a, b = m.profile.source.a, m.profile.source.b
    bump = fit_loglog(a, cum(b) - cum(a), window=(8.0, 64.0))
    gap = fit_loglog(a[:-1], cum(a[1:]) - cum(b[:-1]), window=(8.0, 64.0))
    rate = bump.slope - 1.0

    # independent reference: ODE on the paper's step train (heights l,
    # widths l^-5/2), not on the model's own tables
    x_check = np.array([8.0, 16.0, 32.0, 64.0])
    engine = m.c_n * cum(x_check)
    reference = step_train_sigma_integrals(x_check, 3, 2, 1.0, 2.5)
    oracle_gap = float(np.max(np.abs(engine - reference) / np.abs(reference)))
    elapsed = time.monotonic() - t0

    report = (
        f"bump exponent e = {bump.slope:.4f} (rate e - 1 = {rate:.4f}), "
        f"gap exponent {gap.slope:.4f}, engine vs ODE reference at stations "
        f"8/16/32/64 {oracle_gap:.2e}, normalized sigma_2 window slope over "
        f"stations [8, 64] {fit.slope:.4f} ({fit.verdict.value}; bump-only "
        f"desk model {YAU_WINDOW_SLOPE:.4f})"
    )
    assert elapsed < 30.0, f"series + checks took {elapsed:.2f} s; {report}"
    assert abs(rate - 1.5) <= 0.2, (
        f"per-bump sigma_2 rate e - 1 off the required 4 - q = 1.5 +- 0.2; "
        f"{report}"
    )
    assert gap.slope < bump.slope, (
        f"gap curvature grows at least as fast as the bumps, so the bump rate "
        f"does not set the asymptote; {report}"
    )
    assert oracle_gap <= 1e-8, (
        f"engine's sigma_2 ball integral disagrees with the ODE reference; {report}"
    )
    assert fit.verdict is GrowthVerdict.UNBOUNDED, (
        f"windowed series is not flagged unbounded; {report}"
    )


def test_c10_chern_2_series_bounded_with_ibp_check(yau_n3):
    m = yau_n3
    ser = normalized_chern_series(m, 2)
    mask = ser.s >= ser.s[-1] / 10.0
    fit = fit_loglog(ser.s[mask], ser.normalized[mask], window_fraction=1.0)
    tail = ser.normalized[mask]
    cauchy = float(np.max(np.abs(tail - tail[-1])) / abs(tail[-1]))
    ibp = mixed_curvature_ibp(m, 2)
    assert abs(fit.slope) <= 0.05, f"chern_2 tail slope {fit.slope:.4f}"
    assert cauchy <= 0.01, f"chern_2 tail wanders {cauchy:.2%} over last decade"
    assert ibp.relative_gap <= 1e-6, (
        f"integration by parts gap {ibp.relative_gap:.3e} "
        f"(direct {ibp.direct:.10e}, by parts {ibp.by_parts:.10e})"
    )


def test_c11_lp_curvature_series_slope(lp_model):
    m = lp_model
    ser = lp_curvature_series(m, 2.0)
    window = (distance_s(m, x=8.0), distance_s(m, x=64.0))
    fit = fit_loglog(ser.s, ser.normalized, window=window)
    assert abs(fit.slope - 0.5) <= 0.15, (
        f"(s^2/Vol) * integral of A^2 slope over stations [8, 64]: measured "
        f"{fit.slope:.4f}, want p(alpha-1)+2-beta = 0.5 +- 0.15 "
        f"(windowed desk oracle {LP_WINDOW_SLOPE:.4f})"
    )


def test_c12_saturated_tail_closed_forms(s3_n2):
    m = s3_n2
    x0sq = m.classification.x0 ** 2
    r = np.geomspace(2.0, 1e6, 200)
    v = np.asarray(m.engine.v_of(r), dtype=float)
    s = distance_s(m, r=r)
    # anchor the additive constants at r = 2 and test the log structure
    v_pred = v[0] + x0sq * np.log(r / 2.0)
    s_pred = s[0] + 0.5 * math.sqrt(x0sq) * np.log(r / 2.0)
    _, B, C = abc_at_r(m, r)
    B_pred = x0sq / v_pred**2
    C_pred = 2.0 * (v_pred - x0sq) / v_pred**2
    for name, got, want in (
        ("r*f", v, v_pred),
        ("B", B, B_pred),
        ("C", C, C_pred),
        ("s", s, s_pred),
    ):
        gap = float(np.max(np.abs(got - want) / np.abs(want)))
        assert gap <= 1e-6, f"saturated {name} formula off by {gap:.3e}"
    # the k = n series approaches its total like 1/log r, so the verdict
    # needs a deep grid before the trailing window leaves the transient
    deep = s3_metric(2, r0=1.0, options=BuildOptions(r_max=1e18))
    for k in (1, 2):
        fit = growth_fit(normalized_chern_series(deep, k))
        assert fit.verdict is GrowthVerdict.BOUNDED, (
            f"chern_{k} series verdict {fit.verdict} on the saturated metric "
            f"(slope {fit.slope:.4f}, residual {fit.residual:.4f})"
        )


def test_c13_coordinate_growth_trichotomy(flat_n2, yau_n3, s3_n2):
    flat = coordinate_growth(flat_n2)
    assert abs(flat.fit.slope - 2.0) <= 0.01, f"flat r~s^2 slope {flat.fit.slope}"

    yau = coordinate_growth(yau_n3)
    spread = max(yau.nested_slopes) / min(yau.nested_slopes)
    assert np.isfinite(yau.fit.slope) and not yau.superpolynomial, (
        f"step metric misflagged: {yau.as_dict()}"
    )
    assert spread <= 1.25, f"step metric slope unstable: {yau.nested_slopes}"

    sat = coordinate_growth(s3_n2)
    assert sat.superpolynomial and sat.linear_correlation > 0.999, (
        f"saturated metric not flagged superpolynomial: {sat.as_dict()}"
    )


def test_c14_volume_growth_constant_measured(poly05_n2):
    report = volume_growth_report(poly05_n2)
    gaps = {
        name: abs(report.measured - value) / abs(value)
        for name, value in report.candidates.items()
    }
    assert report.matched == "c_n (1 - xi_inf)^n", (
        f"measured limit {report.measured:.8f}; candidate gaps {gaps}"
    )
    assert gaps[report.matched] <= 0.02
    others = {k: g for k, g in gaps.items() if k != report.matched}
    assert all(g > 0.02 for g in others.values()), (
        f"measurement does not discriminate: {gaps}"
    )
