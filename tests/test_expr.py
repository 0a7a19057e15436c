import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netclear.errors import ExpressionSyntaxError, UnknownPriceSymbol
from netclear.expr import (
    Num,
    Price,
    Unary,
    Var,
    compile_expr,
    eval_expr,
    parse_expr,
    price_refs,
    substitute,
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
    swapped = substitute(e, variables={"t": Unary("neg", Price("a1"))})
    assert eval_expr(swapped, {"a1": 5.0}) == 0.0
    # a price replaced by a sub-tree is not walked again
    renamed = substitute(e, prices={"a1": Unary("neg", Price("a1"))})
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
