import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netclear.errors import ExpressionSyntaxError, UnknownPriceSymbol
from netclear import expr
from netclear.expr import (
    Num,
    Op,
    Piecewise,
    Price,
    Var,
    compile_expr,
    eval_expr,
    parse_expr,
    price_refs,
    substitute,
    to_source,
)

TRIPLE_PIECEWISE = (
    "piecewise{ p[w1] + p[w2] + p[w3] <= 0 : 4 - p[w1] - p[w2] - p[w3];"
    " p[w1] + p[w2] + p[w3] <= 6 : 4 - 3*sqrt((p[w1] + p[w2] + p[w3])/6);"
    " else : 7 - p[w1] - p[w2] - p[w3] }")

KINK_PIECEWISE = (
    "piecewise{ p[w1] + p[w2] <= 2 : 4 - p[w1] - p[w2];"
    " p[w1] + p[w2] <= 4 : 2 - ((p[w1] + p[w2])^2 - 4)/12;"
    " else : 5 - p[w1] - p[w2] }")


def test_eval_linear():
    e = parse_expr("2 - p[a1] + p[b1]")
    assert eval_expr(e, {"a1": 1.0, "b1": 3.0}) == 4.0
    assert price_refs(e) == {"a1", "b1"}


def test_eval_functions_and_power():
    assert eval_expr(parse_expr("exp(0)"), {}) == 1.0
    assert eval_expr(parse_expr("sqrt(9)"), {}) == 3.0
    assert eval_expr(parse_expr("2*3^2"), {}) == 18.0
    assert eval_expr(parse_expr("-2^2"), {}) == -4.0
    assert eval_expr(parse_expr("2^3^2"), {}) == 512.0  # right-associative
    assert eval_expr(parse_expr("min(3, 1, 2)"), {}) == 1.0
    assert eval_expr(parse_expr("max(3, 1, 2)"), {}) == 3.0


def test_piecewise_branch_selection():
    e = parse_expr(KINK_PIECEWISE)
    assert eval_expr(e, {"w1": 0.0, "w2": 0.0}) == 4.0
    assert eval_expr(e, {"w1": 1.5, "w2": 1.5}) == pytest.approx(2 - 5 / 12)
    assert eval_expr(e, {"w1": 3.0, "w2": 3.0}) == -1.0


@pytest.mark.parametrize("text,var,total", [
    (KINK_PIECEWISE, ("w1", "w2"), (2.0, 4.0)),
    (TRIPLE_PIECEWISE, ("w1", "w2", "w3"), (0.0, 6.0)),
])
def test_piecewise_continuity_at_breakpoints(text, var, total):
    e = parse_expr(text)
    for s in total:
        below = {v: (s - 1e-12) / len(var) for v in var}
        at = {v: s / len(var) for v in var}
        assert abs(eval_expr(e, below) - eval_expr(e, at)) <= 1e-9


def test_parse_errors():
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("2 +")
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("foo + 1")
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("1 2")
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("piecewise{ p[a] <= 1 : 0; }")  # no else arm
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("p[a] @ 2")


def test_numbers_take_exponent_notation():
    for text, value in (("1e-3", 0.001), ("6e-8", 0.00000006), ("2.5E+1", 25.0),
                        (".5e1", 5.0), ("3.e2", 300.0), ("2e0", 2.0)):
        assert parse_expr(text) == Num(value)
    assert parse_expr("p[t] - 1e-3") == parse_expr("p[t] - 0.001")
    # an exponent needs digits: "1e" is the number 1 followed by a name
    with pytest.raises(ExpressionSyntaxError, match="trailing input at 'e'"):
        parse_expr("p[t] - 1e")
    assert parse_expr("p[1e-3]") == Price("1e-3")


def test_allowed_trades_enforced():
    with pytest.raises(UnknownPriceSymbol):
        parse_expr("p[zz]", allowed_trades=["a1"])
    assert parse_expr("p[a1]", allowed_trades=["a1"]) == Price("a1")


def test_variables_require_allowlist():
    with pytest.raises(ExpressionSyntaxError):
        parse_expr("1 + t")
    e = parse_expr("1 + t", allow_vars=("t",))
    assert eval_expr(e, {}, variables={"t": 2.0}) == 3.0


def test_compound_trade_ids():
    assert parse_expr("p[h1:d2]") == Price("h1:d2")
    assert parse_expr("p[x:A>B]") == Price("x:A>B")


def test_substitute_prices_and_vars():
    e = parse_expr("p[a1] + t", allow_vars=("t",))
    pinned = substitute(e, prices={"a1": 2.0})
    assert eval_expr(pinned, {}, variables={"t": 1.0}) == 3.0
    swapped = substitute(e, variables={"t": Op("neg", (Price("a1"),))})
    assert eval_expr(swapped, {"a1": 5.0}) == 0.0
    # a price replaced by a sub-tree is not walked again
    renamed = substitute(e, prices={"a1": Op("neg", (Price("a1"),))})
    assert renamed == substitute(parse_expr("-p[a1] + t", allow_vars=("t",)))
    assert eval_expr(renamed, {"a1": 5.0}, variables={"t": 1.0}) == -4.0


def test_compile_rejects_free_variables():
    e = Var("t")
    with pytest.raises(UnknownPriceSymbol):
        compile_expr((e,), {})


@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_compiled_matches_interpreter(vals):
    index = {"w1": 0, "w2": 1, "w3": 2}
    for text in (TRIPLE_PIECEWISE, "2 - p[w1] + p[w3]",
                 "min(p[w1], max(p[w2], 0)) - exp(p[w3]/10)"):
        e = parse_expr(text)
        expected = eval_expr(e, dict(zip(index, vals)))
        # one point as NumPy scalars; an arm that is not selected may leave
        # its domain
        with np.errstate(all="ignore"):
            (got,) = compile_expr((e,), index)(np.array(vals))
        assert float(got) == pytest.approx(expected, abs=1e-12)


def test_closure_over_columns_matches_interpreter():
    index = {"w1": 0, "w2": 1}
    e = parse_expr(KINK_PIECEWISE)
    grid = np.linspace(-1, 4, 37)
    cols = [np.repeat(grid, len(grid)), np.tile(grid, len(grid))]
    (got,) = compile_expr((e,), index)(cols)
    assert got.shape == cols[0].shape
    for w1, w2, value in zip(cols[0].tolist(), cols[1].tolist(), got.tolist()):
        assert value == pytest.approx(eval_expr(e, {"w1": w1, "w2": w2}), abs=1e-12)


def test_closure_broadcasts_over_columns_and_constants():
    index = {"w1": 0, "w2": 1}
    row = (Num(2.5), parse_expr("min(p[w1], p[w2], 1) + max(p[w1], 0)"))
    cols = [np.array([-1.0, 0.5, 2.0])[:, None], np.array([0.0, 3.0])[None, :]]
    const, value = compile_expr(row, index)(cols)
    assert (const + np.zeros(4)).tolist() == [2.5] * 4
    assert value.shape == (3, 2)
    for i, j in np.ndindex(value.shape):
        w1, w2 = float(cols[0][i, 0]), float(cols[1][0, j])
        assert value[i, j] == eval_expr(row[1], {"w1": w1, "w2": w2})


def test_eval_unknown_price_symbol():
    with pytest.raises(UnknownPriceSymbol):
        eval_expr(Price("missing"), {})
    with pytest.raises(UnknownPriceSymbol):
        compile_expr((Price("missing"),), {"a": 0})([np.zeros(1)])


def test_exp_matches_math():
    e = parse_expr("exp(p[a])")
    assert eval_expr(e, {"a": 1.3}) == math.exp(1.3)


def test_to_source_text_per_operator():
    index = {"a": 0, "b": 1}
    for text, source in (
        ("-p[a]", "(-p[0])"),
        ("exp(p[a])", "np.exp(p[0])"),
        ("sqrt(p[a])", "np.sqrt(p[0])"),
        ("p[a] + p[b] - 2 * p[a] / 3",
         "((p[0] + p[1]) - np.divide((2.0 * p[0]), 3.0))"),
        ("p[a] ^ 2", "np.power(p[0], 2.0)"),
        ("min(p[a], p[b], 1)", "np.minimum(np.minimum(p[0], p[1]), 1.0)"),
        ("max(p[a], p[b], 1)", "np.maximum(np.maximum(p[0], p[1]), 1.0)"),
        ("piecewise{ p[a] <= 1 : 1; p[b] < 2 : 2; else : 3 }",
         "np.where((p[0] <= 1.0), 1.0, np.where((p[1] < 2.0), 2.0, 3.0))"),
        ("piecewise{ p[a] >= 1 : 1; p[b] > 2 : 2; else : 3 }",
         "np.where((p[0] >= 1.0), 1.0, np.where((p[1] > 2.0), 2.0, 3.0))"),
    ):
        assert to_source(parse_expr(text), index) == source


# (text, {p[a]: value}) per operator, at points where another operator's
# entry, or swapped operands, would give another value: comparisons at
# equality and on both sides of it
OPERATOR_CASES = {
    "neg": ("-p[a]", {2.0: -2.0}),
    "exp": ("exp(p[a])", {1.0: math.e}),
    "sqrt": ("sqrt(p[a])", {4.0: 2.0}),
    "+": ("p[a] + 3", {2.0: 5.0}),
    "-": ("p[a] - 3", {2.0: -1.0}),
    "*": ("p[a] * 3", {2.0: 6.0}),
    "/": ("p[a] / 4", {2.0: 0.5}),
    "^": ("p[a] ^ 3", {2.0: 8.0}),
    "min": ("min(p[a], 3, 1)", {2.0: 1.0}),
    "max": ("max(p[a], 3, 1)", {2.0: 3.0}),
    "<=": ("piecewise{ p[a] <= 1 : 1; else : 2 }", {0.0: 1.0, 1.0: 1.0, 2.0: 2.0}),
    "<": ("piecewise{ p[a] < 1 : 1; else : 2 }", {0.0: 1.0, 1.0: 2.0, 2.0: 2.0}),
    ">=": ("piecewise{ p[a] >= 1 : 1; else : 2 }", {0.0: 2.0, 1.0: 1.0, 2.0: 1.0}),
    ">": ("piecewise{ p[a] > 1 : 1; else : 2 }", {0.0: 2.0, 1.0: 2.0, 2.0: 1.0}),
}


def test_operator_cases_cover_both_tables():
    assert set(OPERATOR_CASES) == set(expr._PYTHON) == set(expr._NUMPY)


@pytest.mark.parametrize("op", OPERATOR_CASES)
def test_interpreter_and_compiled_row_agree_per_operator(op):
    text, values = OPERATOR_CASES[op]
    e = parse_expr(text)
    row = compile_expr((e,), {"a": 0})
    for price, value in values.items():
        assert eval_expr(e, {"a": price}) == value
        (point,) = row(np.array([price]))
        (column,) = row([np.array([price, price])])
        assert float(point) == value and column.tolist() == [value, value]


def random_tree(rng, depth):
    """A tree over p[a] and p[b] whose operators leave their domains at some
    prices: fractional powers and square roots of negative numbers, poles of
    ``/`` and ``^``, and overflow of ``^`` and ``exp``."""
    leaf = rng.choice([Price("a"), Price("b"), Num(rng.choice([-2.0, -0.5, 0.0, 1.5, 3.0]))])
    if depth == 0:
        return leaf
    kind = rng.choice(["neg", "exp", "sqrt", "+", "-", "*", "/", "^", "min", "max",
                       "piecewise"])
    sub = lambda: random_tree(rng, depth - 1)  # noqa: E731
    if kind == "exp":
        return Op("exp", (rng.choice([leaf, Num(800.0)]),))
    if kind in ("neg", "sqrt"):
        return Op(kind, (sub(),))
    if kind == "^":
        return Op("^", (sub(), Num(rng.choice([0.5, 1.5, 2.0, 3.0, -1.0, -0.5, 1000.0]))))
    if kind in ("min", "max"):
        return Op(kind, tuple(sub() for _ in range(rng.randint(2, 3))))
    if kind == "piecewise":
        guard = Op(rng.choice(["<=", "<", ">=", ">"]), (sub(), sub()))
        return Piecewise(((guard, sub()),), sub())
    return Op(kind, (sub(), sub()))


def test_interpreter_matches_the_row_outside_domains():
    rng = random.Random(26)
    levels = [-4.0, -1.0, -0.5, -0.0, 0.0, 0.25, 1.0, 2.0, 4.0]
    points = np.array([[a, b] for a in levels for b in levels]
                      + [[rng.uniform(-4, 4), rng.uniform(-4, 4)] for _ in range(40)])
    outside = 0
    for _ in range(400):
        e = random_tree(rng, rng.randint(1, 3))
        with np.errstate(all="ignore"):
            (column,) = compile_expr((e,), {"a": 0, "b": 1})(list(points.T))
        for (a, b), row in zip(points.tolist(), np.broadcast_to(column, len(points)).tolist()):
            value = eval_expr(e, {"a": a, "b": b})
            assert isinstance(value, float) and math.isfinite(value) == math.isfinite(row), \
                (e, a, b, value, row)
            if math.isfinite(row):
                # the tolerance of the tests above, and relative 1e-12 for the
                # large values of a power near overflow (pow's last bit may
                # differ between the C library and NumPy)
                assert row == pytest.approx(value, rel=1e-12, abs=1e-12), (e, a, b)
            else:
                outside += 1
    assert outside > 10000
