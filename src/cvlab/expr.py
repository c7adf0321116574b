"""Tiny expression language for closed-form generator profiles.

Grammar (whitespace-insensitive, single variable ``t``)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | 't' | NAME '(' expr ')' | '(' expr ')'

Functions: ``exp``, ``expm1`` (``exp(x) - 1`` without its cancellation near
0), ``ln``, ``sqrt`` and ``min1`` (``min1(x) = min(x, 1)``, convenient for
profiles that saturate at one).  Evaluation is vectorized over
numpy arrays; domain problems raise ``EvaluationError`` pointing at the
offending source position instead of propagating NaN.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

_UNARY_FUNCS = ("exp", "expm1", "ln", "sqrt", "min1")


class ExpressionError(ValueError):
    """Syntax error in an expression, with a source offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


class EvaluationError(ArithmeticError):
    """Domain error while evaluating an expression."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Const:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' | 'exp' | 'expm1' | 'ln' | 'sqrt' | 'min1'
    arg: "Expr"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Binary:
    op: str  # '+' | '-' | '*' | '/' | '^'
    lhs: "Expr"
    rhs: "Expr"
    pos: int = field(default=0, compare=False)


Expr = Const | Var | Unary | Binary

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(src):
        m = _TOKEN.match(src, i)
        if m is None:
            rest = src[i:].lstrip()
            if not rest:
                break
            raise ExpressionError(f"unexpected character {rest[0]!r}", len(src) - len(rest))
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        i = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExpressionError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {text!r} after expression", pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Binary(text, node, self.term(), pos=pos)
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(text, node, self.unary(), pos=pos)
            else:
                return node

    def unary(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.unary(), pos=pos)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Binary("^", base, self.unary(), pos=pos)
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text), pos=pos)
        if kind == "name":
            if text == "t":
                return Var(pos=pos)
            if text in _UNARY_FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Unary(text, arg, pos=pos)
            raise ExpressionError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(
            "unexpected end of expression" if kind == "end" else f"unexpected {text!r}", pos
        )


def parse_expression(src: str) -> Expr:
    """Parse a profile expression into an AST."""
    return _Parser(src).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node: Expr) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return _PREC["neg"]
    if isinstance(node, Const) and repr(node.value).startswith("-"):
        # prints with a leading minus, so it binds like a negation
        return _PREC["neg"]
    return 5


def to_source(node: Expr) -> str:
    """Render an AST back to parseable source (canonical spacing)."""

    def wrap(child: Expr, min_prec: int) -> str:
        text = to_source(child)
        return f"({text})" if _prec(child) < min_prec else text

    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Unary):
        if node.op == "neg":
            return "-" + wrap(node.arg, _PREC["neg"])
        return f"{node.op}({to_source(node.arg)})"
    p = _PREC[node.op]
    if node.op == "^":
        return f"{wrap(node.lhs, p + 1)}^{wrap(node.rhs, p)}"
    return f"{wrap(node.lhs, p)} {node.op} {wrap(node.rhs, p + 1)}"


def evaluate(node: Expr, t):
    """Evaluate an AST at scalar or ndarray t."""
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        out = _eval(node, t_arr)
    return _shaped_like(t, out)


def _shaped_like(t, out):
    """``out`` as a float for scalar ``t``, else as an array of t's shape."""
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(out)
    return np.broadcast_to(out, np.shape(t)).astype(float, copy=True) if np.ndim(out) == 0 else out


def _eval(node: Expr, t: np.ndarray):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return t
    if isinstance(node, Unary):
        return _apply(node, _eval(node.arg, t))
    return _apply(node, _eval(node.lhs, t), _eval(node.rhs, t))


def _apply(node: Unary | Binary, a, b=None):
    """Value of one operator node from its operand values, with the domain checks."""
    if isinstance(node, Unary):
        if node.op == "neg":
            return -a
        if node.op in ("exp", "expm1"):
            out = np.exp(a) if node.op == "exp" else np.expm1(a)
            if np.any(np.isinf(out)):
                raise EvaluationError(f"{node.op} overflow", node.pos)
            return out
        if node.op == "ln":
            if np.any(np.asarray(a) <= 0.0):
                raise EvaluationError("ln of a nonpositive value", node.pos)
            return np.log(a)
        if node.op == "sqrt":
            if np.any(np.asarray(a) < 0.0):
                raise EvaluationError("sqrt of a negative value", node.pos)
            return np.sqrt(a)
        if node.op == "min1":
            return np.minimum(a, 1.0)
        raise AssertionError(f"unknown unary op {node.op}")
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        if np.any(np.asarray(b) == 0.0):
            raise EvaluationError("division by zero", node.pos)
        return a / b
    if node.op == "^":
        a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if np.any((a_arr == 0.0) & (b_arr < 0.0)):
            raise EvaluationError("zero raised to a negative power", node.pos)
        if np.any((a_arr < 0.0) & (b_arr != np.floor(b_arr))):
            raise EvaluationError("negative base with non-integer exponent", node.pos)
        out = np.power(a, b)
        if np.any(np.isinf(out)):
            raise EvaluationError("power overflow", node.pos)
        return out
    raise AssertionError(f"unknown binary op {node.op}")


def evaluate_derivative(node: Expr, t):
    """d/dt of an AST at scalar or ndarray t, by forward-mode dual evaluation.

    Exact up to rounding: finite differences lose half the mantissa on
    saturating profiles, which is fatal for tail curvature.  At a ``min1``
    kink the slope is one-sided: an argument at or above 1 has slope 0.
    """
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        _, dout = _eval_dual(node, t_arr)
    return _shaped_like(t, dout)


def _eval_dual(node: Expr, t: np.ndarray):
    if isinstance(node, Const):
        return node.value, 0.0
    if isinstance(node, Var):
        return t, np.ones_like(t)
    if isinstance(node, Unary):
        a, da = _eval_dual(node.arg, t)
        val = _apply(node, a)
        if node.op == "neg":
            return val, -da
        if node.op == "exp":
            return val, val * da
        if node.op == "expm1":
            # exp(a) da, not (val + 1) da: that rounds to 0 once exp(a) < eps
            return val, np.exp(a) * da
        if node.op == "ln":
            return val, da / a
        if node.op == "sqrt":
            # at a = 0 this is inf or nan; that is what the slope is
            return val, da / (2.0 * val)
        if node.op == "min1":
            return val, np.where(np.asarray(a) < 1.0, da, 0.0)
        raise AssertionError(f"unknown unary op {node.op}")
    a, da = _eval_dual(node.lhs, t)
    b, db = _eval_dual(node.rhs, t)
    val = _apply(node, a, b)
    if node.op == "+":
        return val, da + db
    if node.op == "-":
        return val, da - db
    if node.op == "*":
        return val, da * b + a * db
    if node.op == "/":
        return val, (da * b - a * db) / (np.asarray(b) ** 2)
    if node.op == "^":
        a_arr = np.asarray(a, dtype=float)
        b_arr = np.asarray(b, dtype=float)
        constant_exponent = np.all(np.asarray(db) == 0.0)
        if constant_exponent:
            # a^b * b * da / a without dividing by a zero base
            dval = b_arr * np.power(a_arr, b_arr - 1.0) * da
            return val, dval
        if np.any(a_arr <= 0.0):
            raise EvaluationError(
                "power with varying exponent needs a positive base", node.pos
            )
        return val, val * (db * np.log(a_arr) + b_arr * da / a_arr)
    raise AssertionError(f"unknown binary op {node.op}")
