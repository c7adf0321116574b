"""CumulativeIntegral, a table of node data that answers every query itself and
gives back its values at its own Gauss nodes, and adaptive_integral, which
hands its integrand one array per round."""

import gc
import logging
import weakref

import numpy as np
import pytest

from numpy.polynomial.legendre import Legendre, legval

from cvlab.quadrature import (
    CumulativeIntegral,
    QuadratureError,
    adaptive_integral,
    cell_ends,
    cell_tails,
    derivative_fd,
    gauss_nodes,
    legendre_tail,
    unique_sorted,
)

# uneven cells, the first one at the origin
GRID = np.array([0.0, 0.3, 0.45, 1.0, 1.7, 2.0])
EPS = np.finfo(float).eps

# the integrands and grids of the tests below
INTEGRANDS = [
    *[(lambda t, d=d: (d + 1) * t**d, GRID) for d in range(8)],
    (np.exp, np.geomspace(1e-3, 30.0, 41)),
    (lambda t: np.sqrt(1.0 + t) / (1.0 + t * t), np.geomspace(1e-4, 1e4, 300)),
    (np.cos, np.linspace(0.0, 3.0, 13)),
]


@pytest.mark.parametrize("degree", range(8))
def test_polynomials_up_to_degree_seven_are_exact_between_nodes(degree):
    table = CumulativeIntegral(lambda t: (degree + 1) * t**degree, GRID)
    t = np.linspace(0.0, 2.0, 203)[1:-1]
    t = t[~np.isin(t, GRID)]
    scale = 2.0 ** (degree + 1)
    assert np.max(np.abs(table(t) - t ** (degree + 1))) <= 1e-14 * scale


def test_node_queries_return_the_stored_values():
    table = CumulativeIntegral(np.exp, np.geomspace(1e-3, 30.0, 41))
    assert np.array_equal(table(table.grid), table.values)
    assert table(table.grid[0]) == table.values[0] == 0.0
    assert table(table.grid[-1]) == table.values[-1] == table.total


def test_a_point_gives_the_same_bits_alone_and_in_a_batch():
    table = CumulativeIntegral(lambda t: np.sqrt(1.0 + t) / (1.0 + t * t), np.geomspace(1e-4, 1e4, 300))
    rng = np.random.default_rng(3)
    t = np.concatenate((np.exp(rng.uniform(np.log(1e-4), np.log(1e4), 200)), table.grid[::17]))
    batch = table(t)
    assert np.array_equal(batch, [table(float(p)) for p in t])
    assert np.array_equal(batch[:7], table(t[:7]))
    assert np.array_equal(table(t.reshape(2, -1)).ravel(), batch)


def legval_query(table, t):
    """The table query with numpy's ``legval`` summing each cell's series: the
    reference the inline Clenshaw sum matches bit for bit."""
    grid = table.grid
    t_arr = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), grid[0], grid[-1])
    idx = np.searchsorted(grid, t_arr, side="right") - 1
    out = table.values[idx]
    live = t_arr > grid[idx]
    i = idx[live]
    a, b = grid[i], grid[i + 1]
    u = (2.0 * t_arr[live] - a - b) / (b - a)
    out[live] += 0.5 * (b - a) * legval(u, table._coef[:, i], tensor=False)
    return out.reshape(np.shape(t))


@pytest.mark.parametrize("f, grid", INTEGRANDS)
def test_a_query_is_the_legval_route_bit_for_bit(f, grid):
    table = CumulativeIntegral(f, grid)
    rng = np.random.default_rng(11)
    cell = rng.integers(0, grid.size - 1, 400)
    inside = grid[cell] + rng.uniform(0.0, 1.0, cell.size) * np.diff(grid)[cell]
    mixed = np.concatenate((inside, grid, gauss_nodes(grid).ravel()))
    rng.shuffle(mixed)
    for t in (inside, grid, mixed, mixed[:12].reshape(3, 4), mixed[:1]):
        got = table(t)
        assert got.shape == np.shape(t)
        assert np.array_equal(got, legval_query(table, t))
    for p in (*inside[:40], grid[0], grid[3], grid[-1]):
        for t in (float(p), np.float64(p), np.asarray(p)):
            got = table(t)
            assert type(got) is float and got == legval_query(table, t)
    assert table(grid[-1]) == table.total


def test_a_query_raises_one_ulp_past_either_tolerance():
    table = CumulativeIntegral(np.cos, np.linspace(2.0, 5.0, 7))
    below, above = 2.0 - 1e-12 * 2.0, 5.0 * (1 + 1e-12) + 1e-300
    assert table(below) == 0.0 and table(above) == table.total
    for t in (np.nextafter(below, -np.inf), np.nextafter(above, np.inf)):
        with pytest.raises(ValueError, match="outside"):
            table(t)
        with pytest.raises(ValueError, match="outside"):
            table(np.array([3.0, t]))


@pytest.mark.parametrize("t", [np.nan, [0.5, np.nan], [[np.nan]]])
def test_a_nan_query_raises(t):
    # searchsorted puts NaN past the last node, so it used to read the total
    table = CumulativeIntegral(np.cos, GRID)
    with pytest.raises(ValueError, match="outside"):
        table(t)


def test_an_empty_query_returns_an_empty_array():
    table = CumulativeIntegral(np.cos, GRID)
    assert table(np.array([])).shape == (0,)
    assert table(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("a", [[], [2.0], [3.0, -1.0, 3.0, 0.0, 2.5, -1.0], [[1.0, np.inf], [np.inf, -0.5]],
                               np.geomspace(1e-8, 1e4, 97)])
def test_unique_sorted_is_np_unique(a):
    assert np.array_equal(unique_sorted(np.asarray(a, dtype=float)), np.unique(np.asarray(a, dtype=float)))


def test_the_integrand_runs_once_and_is_not_kept():
    calls = []

    def integrand(t):
        calls.append(t.size)
        return np.cos(t)

    table = CumulativeIntegral(integrand, np.linspace(0.0, 3.0, 13))
    ref = weakref.ref(integrand)
    del integrand
    gc.collect()
    assert ref() is None
    table(np.linspace(0.0, 3.0, 101))
    table(1.2345)
    assert calls == [12 * 8]
    assert table(1.2345) == pytest.approx(np.sin(1.2345), rel=1e-14)


@pytest.mark.parametrize("f, grid", INTEGRANDS)
def test_a_table_from_node_values_is_the_table_from_the_integrand(f, grid):
    nodes = gauss_nodes(grid)
    assert nodes.shape == (grid.size - 1, 8)
    assert np.all((nodes > grid[:-1, None]) & (nodes < grid[1:, None]))
    table, from_values = CumulativeIntegral(f, grid), CumulativeIntegral(f(nodes), grid)
    assert np.array_equal(from_values.values, table.values)
    assert np.array_equal(from_values._coef, table._coef)
    t = np.linspace(grid[0], grid[-1], 157)
    assert np.array_equal(from_values(t), table(t))


@pytest.mark.parametrize("f, grid", INTEGRANDS)
def test_at_nodes_is_the_table_at_its_gauss_nodes(f, grid):
    table = CumulativeIntegral(f, grid)
    nodes = gauss_nodes(grid)
    at_nodes = table.at_nodes()
    assert at_nodes.shape == nodes.shape
    # two roundings of one polynomial: measured at most 8.1 eps of the cell's larger end
    scale = np.maximum(np.abs(table.values[:-1]), np.abs(table.values[1:]))[:, None]
    assert np.all(np.abs(at_nodes - table(nodes)) <= 16 * EPS * scale)


def test_node_values_of_the_wrong_shape_raise():
    with pytest.raises(ValueError, match="shape"):
        CumulativeIntegral(np.ones(8 * (GRID.size - 1)), GRID)


@pytest.mark.parametrize("t", [-1e-3, 2.0 * (1.0 + 1e-9), [0.5, 3.0]])
def test_queries_outside_the_grid_raise(t):
    table = CumulativeIntegral(np.cos, GRID)
    with pytest.raises(ValueError, match="outside"):
        table(t)


def test_adaptive_integral_logs_its_achieved_error(caplog):
    with caplog.at_level(logging.DEBUG, logger="cvlab.quadrature"):
        value = adaptive_integral(np.cos, 0.0, 1.0, breakpoints=[0.5])
    assert value == pytest.approx(np.sin(1.0), rel=1e-14)
    (record,) = caplog.records
    assert "achieved abs error" in record.getMessage() and record.levelname == "DEBUG"


def test_adaptive_integrand_sees_1d_float_arrays_a_bounded_number_of_times():
    seen = []

    def integrand(t):
        seen.append((type(t), t.ndim, t.dtype))
        return 1.0 / (1.0 + t) ** 2

    value = adaptive_integral(integrand, 0.0, 1e8, rel_tol=1e-10)
    assert value == pytest.approx(1.0 - 1.0 / (1.0 + 1e8), rel=1e-10)
    assert set(seen) == {(np.ndarray, 1, np.dtype(float))}
    # one call per round: about 27 halvings take [0, 1e8] down to unit width
    assert len(seen) <= 40


def test_adaptive_integral_takes_a_kink_at_a_breakpoint():
    value = adaptive_integral(lambda t: np.abs(t - 0.3), 0.0, 1.0, breakpoints=[0.3, 2.0])
    assert value == pytest.approx(0.29, rel=4e-16)


def test_adaptive_integral_raises_on_a_non_finite_integrand():
    with pytest.raises(QuadratureError) as exc:
        adaptive_integral(lambda t: np.where(t < 0.5, t, np.nan), 0.0, 1.0)
    assert np.isnan(exc.value.achieved)


def test_cell_tails_read_the_two_highest_legendre_coefficients():
    lo, hi = GRID[:-1], GRID[1:]
    nodes = gauss_nodes(GRID)
    u = (2.0 * nodes - (lo + hi)[:, None]) / (hi - lo)[:, None]  # each cell on [-1, 1]
    # degree 5 has no tail; 3 P_6 - 2 P_7 has |c6| + |c7| = 5 on every cell
    tail, mass = cell_tails(Legendre([1.0, 0.0, 0.0, 0.0, 0.0, 2.0])(u), lo, hi)
    assert np.all(tail <= 1e-14) and np.allclose(mass, hi - lo, rtol=1e-14)
    tail, mass = cell_tails(Legendre([0.0] * 6 + [3.0, -2.0])(u), lo, hi)
    assert np.allclose(tail, 0.5 * (hi - lo) * 5.0, rtol=1e-13)
    assert np.all(np.abs(mass) <= 1e-14)
    assert np.allclose(legendre_tail(Legendre([0.0] * 6 + [3.0, -2.0])(u)), 5.0, rtol=1e-13)


def test_cell_ends_extend_each_interpolant_to_its_edges():
    # a degree-7 polynomial is its own interpolant: its ends are its values there
    p = Legendre([0.3, -1.0, 0.5, 0.25, -0.125, 2.0, 1.5, -0.75])
    lo, hi = GRID[:-1], GRID[1:]
    u = (2.0 * gauss_nodes(GRID) - (lo + hi)[:, None]) / (hi - lo)[:, None]
    left, right = cell_ends(p(u))
    assert np.allclose(left, p(-1.0), rtol=1e-13) and np.allclose(right, p(1.0), rtol=1e-13)
    # a kink at 0.999 lies past the last Gauss node of [0, 1]: the tail is blind
    # to it, the gap between the two cells' interpolants at t = 1 is not
    vals = np.minimum(gauss_nodes(np.array([0.0, 1.0, 2.0])), 0.999)
    left, right = cell_ends(vals)
    assert legendre_tail(vals)[0] <= 1e-15
    assert right[0] - left[1] == pytest.approx(1e-3, rel=1e-10)


def test_derivative_fd_keeps_its_stencils_between_knots():
    # f = exp(t) below 1 and exp(t) + (t - 1)^2 above, on [1/2, 2] only: a kink
    # of f' at 1 and two domain ends, none of which a stencil may cross
    seen = []

    def f(t):
        seen.append(np.array(t, copy=True))
        assert np.all((t >= 0.5) & (t <= 2.0))
        return np.exp(t) + np.where(t > 1.0, (t - 1.0) ** 2, 0.0)

    t = np.array([0.5, 0.5004, 0.7, 0.9999, 1.0, 1.0001, 1.5, 1.9996, 2.0])
    got = derivative_fd(f, t, knots=[0.5, 1.0, 2.0])
    want = np.exp(t) + np.where(t >= 1.0, 2.0 * (t - 1.0), 0.0)  # on a knot, the right side
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)
    assert len(seen) == 2  # the centred stencils, then the one-sided ones
    # without knots: one call, and the same bits on a point away from them
    seen.clear()
    assert derivative_fd(f, 0.7) == got[2] and len(seen) == 1
