import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvlab import expr
from cvlab.expr import (
    Binary,
    Const,
    EvaluationError,
    ExpressionError,
    Unary,
    Var,
    evaluate,
    evaluate_derivative,
    parse_expression,
    to_source,
)


# ---------------------------------------------------------------------------
# parsing basics


def test_parse_number_and_variable():
    assert parse_expression("3.5") == Const(3.5)
    assert parse_expression("t") == Var()


def test_precedence_and_associativity():
    # 1 + 2*3 = 7, left-assoc subtraction, right-assoc power
    assert evaluate(parse_expression("1 + 2*3"), 0.0) == 7.0
    assert evaluate(parse_expression("10 - 3 - 2"), 0.0) == 5.0
    assert evaluate(parse_expression("2^3^2"), 0.0) == 512.0
    assert evaluate(parse_expression("-2^2"), 0.0) == -4.0


def test_parentheses_override():
    assert evaluate(parse_expression("(10 - 3) - 2"), 0.0) == 5.0
    assert evaluate(parse_expression("(2^3)^2"), 0.0) == 64.0


def test_functions_evaluate():
    t = 0.7
    node = parse_expression("exp(-t) + ln(1 + t) + sqrt(t) + min1(t)")
    want = math.exp(-t) + math.log(1 + t) + math.sqrt(t) + min(t, 1.0)
    assert evaluate(node, t) == pytest.approx(want, rel=1e-15)


def test_min1_clamps_above_one():
    node = parse_expression("min1(t)")
    assert evaluate(node, 7.3) == 1.0
    assert evaluate(node, 0.25) == 0.25


def test_vectorized_evaluation_matches_scalar():
    node = parse_expression("0.5 * t / (1 + t)")
    ts = np.linspace(0.0, 9.0, 40)
    vec = evaluate(node, ts)
    assert isinstance(vec, np.ndarray)
    for i, t in enumerate(ts):
        assert vec[i] == evaluate(node, float(t))


def test_scalar_in_scalar_out():
    assert isinstance(evaluate(parse_expression("t + 1"), 2.0), float)


# ---------------------------------------------------------------------------
# error reporting


@pytest.mark.parametrize(
    "src",
    ["", "1 +", "((1)", "1)", "2 ** 3", "foo(t)", "1 2", "t t", "exp", "exp 3"],
)
def test_syntax_errors_raise(src):
    with pytest.raises(ExpressionError):
        parse_expression(src)


def test_syntax_error_carries_offset():
    with pytest.raises(ExpressionError) as err:
        parse_expression("1 + * 2")
    assert err.value.pos == 4


def test_unknown_name_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("1 + spam(t)")
    assert err.value.pos == 4


@pytest.mark.parametrize(
    "src,t",
    [
        ("ln(t)", 0.0),
        ("ln(t - 2)", 1.0),
        ("sqrt(t - 5)", 1.0),
        ("1 / t", 0.0),
        ("t ^ -1", 0.0),
        ("(-2) ^ 0.5", 1.0),
        ("exp(t)", 1e6),
    ],
)
def test_domain_errors_raise(src, t):
    with pytest.raises(EvaluationError):
        evaluate(parse_expression(src), t)


def test_domain_error_points_at_subexpression():
    with pytest.raises(EvaluationError) as err:
        evaluate(parse_expression("1 + ln(t)"), 0.0)
    assert err.value.pos == 4


def test_integer_power_of_negative_base_is_fine():
    assert evaluate(parse_expression("(-2) ^ 3"), 0.0) == -8.0


# ---------------------------------------------------------------------------
# printing round trip


def test_to_source_is_reparsable_and_minimal():
    node = parse_expression("0.5*t/(1 + t) ^ 2")
    src = to_source(node)
    assert parse_expression(src) == node
    # parentheses around the power base survive, no spurious ones elsewhere
    assert src.count("(") == 1


_leaf = st.one_of(
    st.just(Var()),
    st.builds(Const, st.floats(min_value=-100, max_value=100, allow_nan=False).map(
        lambda x: round(x, 6))),
)


def _trees(depth):
    if depth == 0:
        return _leaf
    sub = _trees(depth - 1)
    return st.one_of(
        _leaf,
        st.builds(Unary, st.sampled_from(["neg", "exp", "ln", "sqrt", "min1"]), sub),
        st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub),
    )


@settings(max_examples=400, deadline=None)
@given(_trees(5))
def test_print_parse_fixpoint(tree):
    # one parse normalizes constructs the grammar spells differently (e.g.
    # negative literals become unary minus); after that, printing is stable
    normalized = parse_expression(to_source(tree))
    assert parse_expression(to_source(normalized)) == normalized


@settings(max_examples=200, deadline=None)
@given(_trees(4), st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_round_trip_preserves_value(tree, t):
    try:
        want = evaluate(tree, t)
    except EvaluationError:
        return
    got = evaluate(parse_expression(to_source(tree)), t)
    assert got == want or (math.isnan(want) and math.isnan(got))


# ---------------------------------------------------------------------------
# forward-mode derivatives


@pytest.mark.parametrize(
    "src,deriv",
    [
        ("t^2", lambda t: 2 * t),
        ("0.5 * t / (1 + t)", lambda t: 0.5 / (1 + t) ** 2),
        ("exp(-0.3 * t)", lambda t: -0.3 * math.exp(-0.3 * t)),
        ("ln(1 + t)", lambda t: 1 / (1 + t)),
        ("sqrt(t)", lambda t: 0.5 / math.sqrt(t)),
        ("(1 + t)^-1.5", lambda t: -1.5 * (1 + t) ** -2.5),
        ("t^t", lambda t: t**t * (math.log(t) + 1)),
        ("7", lambda t: 0.0),
    ],
)
def test_derivative_closed_forms(src, deriv):
    node = parse_expression(src)
    for t in (0.25, 1.0, 3.7, 40.0):
        assert evaluate_derivative(node, t) == pytest.approx(deriv(t), rel=1e-14)


def test_derivative_vectorized_matches_scalar():
    node = parse_expression("t^2 * exp(-t) + min1(t)")
    ts = np.linspace(0.1, 5.0, 23)
    vec = evaluate_derivative(node, ts)
    assert vec.shape == ts.shape
    for i, t in enumerate(ts):
        assert vec[i] == evaluate_derivative(node, float(t))


def test_derivative_min1_is_flat_past_one():
    node = parse_expression("min1(0.5 * t)")
    assert evaluate_derivative(node, 1.0) == 0.5
    assert evaluate_derivative(node, 10.0) == 0.0


def test_derivative_constant_exponent_handles_zero_base():
    # power rule with a constant exponent must not divide by the base
    node = parse_expression("t^3")
    assert evaluate_derivative(node, 0.0) == 0.0


def test_derivative_no_more_accurate_than_value_domain():
    with pytest.raises(EvaluationError):
        evaluate_derivative(parse_expression("ln(t - 2)"), 1.0)


@settings(max_examples=150, deadline=None)
@given(_trees(4), st.floats(min_value=0.05, max_value=20.0, allow_nan=False))
def test_derivative_agrees_with_central_difference(tree, t):
    node = tree
    try:
        d = evaluate_derivative(node, t)
        span = max(abs(evaluate(node, t)), 1.0)
    except EvaluationError:
        return
    if not math.isfinite(d) or abs(d) > 1e6 or span > 1e6:
        return
    eps = 1e-6 * max(t, 1.0)
    try:
        fd = (evaluate(node, t + eps) - evaluate(node, t - eps)) / (2 * eps)
    except EvaluationError:
        return
    # min1 kinks and power-law curvature limit what a central difference can
    # resolve; this is a smoke check, the closed forms above carry precision
    assert d == pytest.approx(fd, rel=1e-3, abs=1e-3 * span)


def test_derivative_evaluates_each_node_once(monkeypatch):
    # a sum of 401 terms is 400 operators deep; re-evaluating every subtree
    # for its value would apply them 80 000 times
    node = parse_expression(" + ".join(["t"] * 401))
    applied = []
    apply = expr._apply
    monkeypatch.setattr(expr, "_apply", lambda *args: applied.append(1) or apply(*args))
    ts = np.linspace(0.0, 1.0, 8)
    assert np.array_equal(evaluate_derivative(node, ts), np.full(8, 401.0))
    assert len(applied) == 400
