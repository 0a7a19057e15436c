"""Utility expression trees: parsing, evaluation, and compilation.

Grammar (used by scenario files and by the builders in ``utility``):

    expr     := term (("+" | "-") term)*
    term     := unary (("*" | "/") unary)*
    unary    := "-" unary | power
    power    := atom ("^" unary)?                      (right-associative)
    atom     := NUMBER | "p" "[" trade-id "]" | VAR
              | "exp" "(" expr ")" | "sqrt" "(" expr ")"
              | "min" "(" expr ("," expr)+ ")" | "max" "(" expr ("," expr)+ ")"
              | "piecewise" "{" (guard ":" expr ";")* "else" ":" expr "}"
              | "(" expr ")"
    guard    := expr ("<=" | "<" | ">=" | ">") expr    (affine sides expected)
    NUMBER   := digits, with an optional fraction and exponent: 2, .5, 1e-3, 2.5E+1

Piecewise guards are evaluated in order; the first match wins and the
``else`` arm is mandatory, so every expression is total on finite prices.

A tree has five kinds of node: the leaves ``Num``, ``Price`` and ``Var``,
``Op`` (an operator and its operands; guards are ``Op`` comparisons) and
``Piecewise``.  Each operator has one entry in two tables: ``_PYTHON``, the
function ``eval_expr`` applies, and ``_NUMPY``, the text ``to_source`` emits.
A row of expressions compiles to one NumPy closure over price columns
(one array per trade), or over one NumPy scalar per trade for one point.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import reduce
from typing import Mapping

import numpy as np

from .errors import ExpressionSyntaxError, UnknownPriceSymbol


# -- AST ---------------------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Price(Expr):
    trade: str


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Op(Expr):
    """An operator applied to its operands: one for "neg", "exp" and "sqrt",
    two for "+", "-", "*", "/", "^" and the comparisons "<=", "<", ">=", ">",
    and two or more for "min" and "max"."""
    op: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Piecewise(Expr):
    cases: tuple[tuple[Op, Expr], ...]  # (comparison, value)
    otherwise: Expr


def num(x: float) -> Num:
    return Num(float(x))


def add(a: Expr, b: Expr) -> Expr:
    return Op("+", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return Op("-", (a, b))


# -- traversals --------------------------------------------------------------

def price_refs(e: Expr) -> frozenset[str]:
    out: set[str] = set()

    def walk(node: Expr):
        if isinstance(node, Price):
            out.add(node.trade)
        elif isinstance(node, Op):
            for a in node.args:
                walk(a)
        elif isinstance(node, Piecewise):
            for g, v in node.cases:
                walk(g)
                walk(v)
            walk(node.otherwise)

    walk(e)
    return frozenset(out)


def substitute(e: Expr, prices: Mapping[str, float | Expr] | None = None,
               variables: Mapping[str, Expr] | None = None) -> Expr:
    """Replace price references by constants or sub-trees, and/or variables
    by sub-trees."""
    prices = prices or {}
    variables = variables or {}

    def walk(node: Expr) -> Expr:
        if isinstance(node, Op):
            return Op(node.op, tuple(map(walk, node.args)))
        if isinstance(node, Piecewise):
            return Piecewise(
                tuple((walk(g), walk(v)) for g, v in node.cases),
                walk(node.otherwise))
        if isinstance(node, Price) and node.trade in prices:
            new = prices[node.trade]
            return new if isinstance(new, Expr) else Num(float(new))
        if isinstance(node, Var):
            return variables.get(node.name, node)
        return node  # a number, or a price not replaced

    return walk(e)


# -- evaluation / compilation ------------------------------------------------

def _ieee(f, fallback):
    """f, or where Python raises, the NaN or inf that NumPy gives: the value
    ``fallback``, or what it gives for the arguments."""
    def g(*args):
        try:
            return f(*args)
        except (ArithmeticError, ValueError):
            return fallback(*args) if callable(fallback) else fallback
    return g


def _fold(wins):
    """min or max as ``np.minimum`` or ``np.maximum`` fold: the left operand
    where it wins or is NaN, else the right (of -0.0 and 0.0, the right)."""
    return lambda *args: reduce(lambda a, b: a if wins(a, b) or a != a else b, args)


# Each operator twice: as the Python function the interpreter applies, and
# as the NumPy text the compiler emits ("min" and "max" fold left).  Out of
# its domain the interpreter gives the row's NaN or inf, not an error.
_PYTHON = {
    "neg": operator.neg, "exp": _ieee(math.exp, math.inf),
    "sqrt": _ieee(math.sqrt, math.nan),
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _ieee(operator.truediv, lambda a, b: a * math.copysign(math.inf, b)),
    # C's pow: NaN for a negative base to a fractional power, else signed inf
    "^": _ieee(math.pow, lambda a, b: math.nan if a < 0 and b % 1 else
               math.copysign(math.inf, a) if b % 2 == 1 else math.inf),
    "min": _fold(operator.lt), "max": _fold(operator.gt),
    "<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt,
}

# NumPy text: (head, separator, tail) around the operands (np.divide, so
# that a constant divided by zero is inf, not ZeroDivisionError)
_NUMPY = {
    "neg": ("(-", "", ")"), "exp": ("np.exp(", "", ")"),
    "sqrt": ("np.sqrt(", "", ")"), "^": ("np.power(", ", ", ")"),
    "/": ("np.divide(", ", ", ")"),
    "min": ("np.minimum(", ", ", ")"), "max": ("np.maximum(", ", ", ")"),
    **{op: ("(", f" {op} ", ")")
       for op in ("+", "-", "*", "<=", "<", ">=", ">")},
}


def eval_expr(e: Expr, prices: Mapping[str, float],
              variables: Mapping[str, float] | None = None) -> float:
    variables = variables or {}

    def value(node: Expr) -> float:
        if isinstance(node, Op):
            return _PYTHON[node.op](*map(value, node.args))
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Price):
            try:
                return float(prices[node.trade])
            except KeyError:
                raise UnknownPriceSymbol(node.trade) from None
        if isinstance(node, Var):
            return float(variables[node.name])
        if isinstance(node, Piecewise):
            for guard, val in node.cases:
                if value(guard):
                    return value(val)
            return value(node.otherwise)
        raise TypeError(f"cannot evaluate {node!r}")

    return value(e)


def to_source(e: Expr, index: Mapping[str, int]) -> str:
    """Render as NumPy source over ``p``, a sequence of price columns (or of
    NumPy scalars, one point).  ``^`` renders as ``np.power``, not ``**``:
    on NumPy scalars ``**`` is the C library's ``pow`` while ``np.power``
    runs the array loop, so a point gives the bits of its column row."""

    def emit(node: Expr) -> str:
        if isinstance(node, Op):
            head, sep, tail = _NUMPY[node.op]
            args = node.args
            if len(args) == 1:
                return f"{head}{emit(args[0])}{tail}"
            out = f"{head}{emit(args[0])}{sep}{emit(args[1])}{tail}"
            for b in args[2:]:  # min and max fold left
                out = f"{head}{out}{sep}{emit(b)}{tail}"
            return out
        if isinstance(node, Num):
            return repr(node.value)
        if isinstance(node, Price):
            try:
                return f"p[{index[node.trade]}]"
            except KeyError:
                raise UnknownPriceSymbol(node.trade) from None
        if isinstance(node, Var):
            raise UnknownPriceSymbol(
                f"free variable {node.name!r} in compiled expression")
        if isinstance(node, Piecewise):
            out = emit(node.otherwise)
            for guard, val in reversed(node.cases):
                out = f"np.where({emit(guard)}, {emit(val)}, {out})"
            return out
        raise TypeError(node)

    return emit(e)


def compile_expr(row: tuple[Expr, ...], index: Mapping[str, int]):
    """Compile a row of expressions to one closure ``fn(p)`` over price
    columns (or NumPy scalars), returning the tuple of their values: arrays
    that broadcast against the columns, or floats for constant expressions."""
    src = "(" + "".join(f"{to_source(x, index)}, " for x in row) + ")"
    return eval(f"lambda p: {src}", {"np": np})  # noqa: S307 - trusted AST


# -- parser ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|[-+*/^<>(){}\[\],:;]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ExpressionSyntaxError(
                    f"unexpected character {text[pos:].strip()[0]!r} at {pos}")
            break
        pos = m.end()
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, text: str, allow_vars: frozenset[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allow_vars = allow_vars

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val = self.next()
        if val != value:
            raise ExpressionSyntaxError(f"expected {value!r}, got {val!r}")

    def parse(self) -> Expr:
        e = self.expr()
        kind, val = self.next()
        if kind != "end":
            raise ExpressionSyntaxError(f"trailing input at {val!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            e = Op(op, (e, self.term()))
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            e = Op(op, (e, self.unary()))
        return e

    def unary(self) -> Expr:
        if self.peek() == ("op", "-"):
            self.next()
            return Op("neg", (self.unary(),))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            return Op("^", (base, self.unary()))
        return base

    def guard(self) -> Op:
        left = self.expr()
        kind, op = self.next()
        if op not in ("<=", "<", ">=", ">"):
            raise ExpressionSyntaxError(f"expected comparison, got {op!r}")
        return Op(op, (left, self.expr()))

    def atom(self) -> Expr:
        kind, val = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            if val == "p":
                self.expect("[")
                nk, tid = self.next()
                if nk != "name" and nk != "num":
                    raise ExpressionSyntaxError(f"bad trade id {tid!r}")
                # allow compound ids like h1:d2 or x:A>B
                while self.peek()[1] in (":", ">", "-") or self.peek()[0] in ("name", "num"):
                    tid += self.next()[1]
                self.expect("]")
                return Price(tid)
            if val in ("exp", "sqrt"):
                self.expect("(")
                e = self.expr()
                self.expect(")")
                return Op(val, (e,))
            if val in ("min", "max"):
                self.expect("(")
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                return args[0] if len(args) == 1 else Op(val, tuple(args))
            if val == "piecewise":
                return self.piecewise()
            if val in self.allow_vars:
                return Var(val)
            raise ExpressionSyntaxError(f"unknown identifier {val!r}")
        raise ExpressionSyntaxError(f"unexpected token {val!r}")

    def piecewise(self) -> Expr:
        self.expect("{")
        cases = []
        while self.peek() != ("name", "else"):
            guard = self.guard()
            self.expect(":")
            cases.append((guard, self.expr()))
            self.expect(";")
        self.next()
        self.expect(":")
        otherwise = self.expr()
        if self.peek() == ("op", ";"):
            self.next()
        self.expect("}")
        return Piecewise(tuple(cases), otherwise)


def parse_expr(text: str, allowed_trades=None, allow_vars=()) -> Expr:
    """Parse an expression; optionally restrict which trades it may price."""
    e = _Parser(text, frozenset(allow_vars)).parse()
    if allowed_trades is not None:
        extra = price_refs(e) - frozenset(allowed_trades)
        if extra:
            raise UnknownPriceSymbol(
                f"expression references trades outside its bundle: {sorted(extra)}")
    return e
