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

A row of expressions compiles to one NumPy closure over price columns
(one array per trade), or over one NumPy scalar per trade for one point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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
class Unary(Expr):
    op: str  # "neg", "exp", "sqrt"
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # "+", "-", "*", "/", "^"
    left: Expr
    right: Expr


@dataclass(frozen=True)
class NAry(Expr):
    op: str  # "min", "max"
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Cmp(Expr):
    op: str  # "<=", "<", ">=", ">"
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Piecewise(Expr):
    cases: tuple[tuple[Cmp, Expr], ...]
    otherwise: Expr


def num(x: float) -> Num:
    return Num(float(x))


def add(a: Expr, b: Expr) -> Expr:
    return Binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    return Binary("-", a, b)


# -- traversals --------------------------------------------------------------

def price_refs(e: Expr) -> frozenset[str]:
    out: set[str] = set()

    def walk(node: Expr):
        if isinstance(node, Price):
            out.add(node.trade)
        elif isinstance(node, (Unary,)):
            walk(node.arg)
        elif isinstance(node, (Binary, Cmp)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, NAry):
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
        if isinstance(node, Price):
            if node.trade in prices:
                new = prices[node.trade]
                return new if isinstance(new, Expr) else Num(float(new))
            return node
        if isinstance(node, Var):
            return variables.get(node.name, node)
        if isinstance(node, Num):
            return node
        if isinstance(node, Unary):
            return Unary(node.op, walk(node.arg))
        if isinstance(node, Binary):
            return Binary(node.op, walk(node.left), walk(node.right))
        if isinstance(node, Cmp):
            return Cmp(node.op, walk(node.left), walk(node.right))
        if isinstance(node, NAry):
            return NAry(node.op, tuple(walk(a) for a in node.args))
        if isinstance(node, Piecewise):
            return Piecewise(
                tuple((walk(g), walk(v)) for g, v in node.cases),
                walk(node.otherwise))
        raise TypeError(node)

    return walk(e)


# -- evaluation / compilation ------------------------------------------------

def eval_expr(e: Expr, prices: Mapping[str, float],
              variables: Mapping[str, float] | None = None) -> float:
    variables = variables or {}
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Price):
        try:
            return float(prices[e.trade])
        except KeyError:
            raise UnknownPriceSymbol(e.trade) from None
    if isinstance(e, Var):
        return float(variables[e.name])
    if isinstance(e, Unary):
        v = eval_expr(e.arg, prices, variables)
        if e.op == "neg":
            return -v
        if e.op == "exp":
            return math.exp(v)
        if e.op == "sqrt":
            return math.sqrt(v)
    if isinstance(e, Binary):
        a = eval_expr(e.left, prices, variables)
        b = eval_expr(e.right, prices, variables)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return a / b
        if e.op == "^":
            return a ** b
    if isinstance(e, NAry):
        vals = [eval_expr(a, prices, variables) for a in e.args]
        return min(vals) if e.op == "min" else max(vals)
    if isinstance(e, Cmp):
        a = eval_expr(e.left, prices, variables)
        b = eval_expr(e.right, prices, variables)
        return {"<=": a <= b, "<": a < b, ">=": a >= b, ">": a > b}[e.op]
    if isinstance(e, Piecewise):
        for guard, val in e.cases:
            if eval_expr(guard, prices, variables):
                return eval_expr(val, prices, variables)
        return eval_expr(e.otherwise, prices, variables)
    raise TypeError(f"cannot evaluate {e!r}")


def to_source(e: Expr, index: Mapping[str, int]) -> str:
    """Render as NumPy source over ``p``, a sequence of price columns (or of
    NumPy scalars, one point).  ``^`` renders as ``np.power``, not ``**``:
    on NumPy scalars ``**`` is the C library's ``pow`` while ``np.power``
    runs the array loop, so a point gives the bits of its column row."""

    def emit(node: Expr) -> str:
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
        if isinstance(node, Unary):
            a = emit(node.arg)
            if node.op == "neg":
                return f"(-{a})"
            return f"np.{node.op}({a})"
        if isinstance(node, Binary):
            a, b = emit(node.left), emit(node.right)
            if node.op == "^":
                return f"np.power({a}, {b})"
            return f"({a} {node.op} {b})"
        if isinstance(node, NAry):
            fn = "np.minimum" if node.op == "min" else "np.maximum"
            out = emit(node.args[0])
            for a in node.args[1:]:
                out = f"{fn}({out}, {emit(a)})"
            return out
        if isinstance(node, Cmp):
            return f"({emit(node.left)} {node.op} {emit(node.right)})"
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

_KEYWORDS = {"exp", "sqrt", "min", "max", "piecewise", "else", "p"}


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
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
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
            e = Binary(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            e = Binary(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek() == ("op", "-"):
            self.next()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            return Binary("^", base, self.unary())
        return base

    def guard(self) -> Cmp:
        left = self.expr()
        kind, op = self.next()
        if op not in ("<=", "<", ">=", ">"):
            raise ExpressionSyntaxError(f"expected comparison, got {op!r}")
        return Cmp(op, left, self.expr())

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
                return Unary(val, e)
            if val in ("min", "max"):
                self.expect("(")
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                return NAry(val, tuple(args))
            if val == "piecewise":
                return self.piecewise()
            if val in self.allow_vars:
                return Var(val)
            raise ExpressionSyntaxError(f"unknown identifier {val!r}")
        raise ExpressionSyntaxError(f"unexpected token {val!r}")

    def piecewise(self) -> Expr:
        self.expect("{")
        cases = []
        otherwise = None
        while True:
            if self.peek() == ("name", "else"):
                self.next()
                self.expect(":")
                otherwise = self.expr()
                break
            guard = self.guard()
            self.expect(":")
            value = self.expr()
            cases.append((guard, value))
            self.expect(";")
        if self.peek() == ("op", ";"):
            self.next()
        self.expect("}")
        if otherwise is None:
            raise ExpressionSyntaxError("piecewise requires an else arm")
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
