import os

import pytest

from netclear.adapters import (
    ExchangeEconomy,
    MatchingMarket,
    economy_demand,
    economy_equilibrium_check,
    exchange_trade_id,
    induce_from_exchange,
    induce_from_matching,
    matching_trade_id,
    uniform_price_lift,
    uniform_price_project,
)
from netclear.equilibrium import find_equilibria, is_equilibrium
from netclear.errors import NonFiniteUtility, NotInducedNetwork, ScenarioValidationError
from netclear.cli import load_scenario
from netclear.expr import Num, Op, Price, parse_expr
from netclear.model import PriceVector
from netclear.utility import INFEASIBLE, is_unit_demand


SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def pe(text):
    return parse_expr(text, allow_vars=("t",))


def one_hospital_market():
    return MatchingMarket(
        hospitals=("h",), doctors=("d1", "d2"),
        hospital_tables={"h": {
            frozenset(): parse_expr("0"),
            frozenset({"d1"}): parse_expr("3 - p[d1]"),
            frozenset({"d2"}): parse_expr("2 - p[d2]"),
            frozenset({"d1", "d2"}): parse_expr("4 - p[d1] - p[d2]"),
        }},
        doctor_tables={"d1": {"h": pe("1 + t")}, "d2": {"h": pe("t")}},
        outside={"d1": 0.0, "d2": 0.0},
    )


def test_matching_induces_unit_demand_buyers():
    net, prof = induce_from_matching(one_hospital_market())
    assert {t.id for t in net.trades} == {"h:d1", "h:d2"}
    assert all(t.seller == "h" for t in net.trades)
    assert is_unit_demand(prof.firms["d1"])
    assert is_unit_demand(prof.firms["d2"])


def test_matching_price_is_negated_salary():
    net, prof = induce_from_matching(one_hospital_market())
    # network price -s means salary s for both sides
    s = 1.25
    p = PriceVector.of(net, {"h:d1": -s, "h:d2": 0.0})
    h_single = net.mask_of(["h:d1"])
    assert prof.firms["h"].value(h_single, p.values) == pytest.approx(3 - s)
    assert prof.firms["d1"].value(h_single, p.values) == pytest.approx(1 + s)


def test_matching_small_tables():
    sc = load_scenario(os.path.join(SCENARIOS, "matching-small.json"))
    net, firms = sc.network, sc.profile.firms

    def salary(d):
        return Op("neg", (Price(f"h1:{d}"),))

    # each salary p[d] becomes the negated price of its (h1, d) trade
    assert firms["h1"].table == {
        0: Num(0.0),
        net.mask_of(["h1:d1"]): Op("-", (Num(3.0), salary("d1"))),
        net.mask_of(["h1:d2"]): Op("-", (Num(2.0), salary("d2"))),
        net.mask_of(["h1:d1", "h1:d2"]):
            Op("-", (Op("-", (Num(4.0), salary("d1"))), salary("d2"))),
    }
    assert firms["d1"].table[net.mask_of(["h1:d1"])] == \
        Op("+", (Num(1.0), salary("d1")))
    assert firms["d2"].table[net.mask_of(["h1:d2"])] == salary("d2")


def test_matching_equilibrium_salaries():
    m = MatchingMarket(
        hospitals=("h",), doctors=("d",),
        hospital_tables={"h": {frozenset(): parse_expr("0"),
                               frozenset({"d"}): parse_expr("3 - p[d]")}},
        doctor_tables={"d": {"h": pe("1 + t")}},
        outside={"d": 0.0},
    )
    net, prof = induce_from_matching(m)
    records = find_equilibria(prof, (-4, 2), 0.25, refine=False)
    salaries = sorted(-r.prices.values[0] for r in records)
    # stable salaries fill [-1, 3]: hospital profits up to 3, the doctor
    # accepts anything above -1
    assert salaries[0] == -1.0 and salaries[-1] == 3.0


def two_agent_economy():
    return ExchangeEconomy(
        objects=("x",),
        endowments={"A": ("x",), "B": ()},
        tables={
            "A": {frozenset(): pe("t"), frozenset({"x"}): pe("1 + t")},
            "B": {frozenset(): pe("t"), frozenset({"x"}): pe("3 + t")},
        },
    )


def test_exchange_validation():
    with pytest.raises(ScenarioValidationError):
        ExchangeEconomy(("x",), {"A": ("x",), "B": ("x",)},
                        {"A": {}, "B": {}})
    with pytest.raises(ScenarioValidationError):
        ExchangeEconomy(("x", "y"), {"A": ("x",), "B": ()},
                        {"A": {}, "B": {}})


def test_induced_network_shape():
    ind = induce_from_exchange(two_agent_economy())
    tid = exchange_trade_id("x", "A", "B")
    assert [t.id for t in ind.network.trades] == [tid]
    assert ind.object_of[tid] == "x"
    # each agent can keep or transfer: both bundles feasible for both
    assert ind.profile.firms["A"].feasible_masks() == (0, 1)
    assert ind.profile.firms["B"].feasible_masks() == (0, 1)


def test_induced_utilities_and_negative_price_extension():
    ind = induce_from_exchange(two_agent_economy())
    a, b = ind.profile.firms["A"], ind.profile.firms["B"]
    # positive price: A selling x earns p, B buying pays p
    assert a.value(1, (2.0,)) == pytest.approx(2.0)
    assert a.value(0, (2.0,)) == pytest.approx(1.0)
    assert b.value(1, (2.0,)) == pytest.approx(1.0)
    assert b.value(0, (2.0,)) == pytest.approx(0.0)
    # negative price: the seller keeps the penalty linear, the buyer gains
    assert a.value(1, (-1.0,)) == pytest.approx(0.0 - 1.0)
    assert b.value(1, (-1.0,)) == pytest.approx(3.0 + 1.0)


def test_network_equilibria_project_to_economy():
    e = two_agent_economy()
    ind = induce_from_exchange(e)
    records = find_equilibria(ind.profile, (-0.5, 4.5), 0.25, refine=False)
    prices = sorted(r.prices.values[0] for r in records)
    assert prices[0] == 1.0 and prices[-1] == 3.0  # between the two values
    assert all(v >= -1e-7 for v in prices)
    for r in records:
        q = uniform_price_project(ind, r.prices)
        assert economy_equilibrium_check(e, q)


def test_economy_equilibrium_lifts_to_network():
    e = two_agent_economy()
    ind = induce_from_exchange(e)
    assert economy_equilibrium_check(e, {"x": 2.0})
    p = uniform_price_lift(ind, {"x": 2.0})
    assert is_equilibrium(ind.profile, p) is not None
    # q below both values: both agents want x, no consistent allocation
    assert not economy_equilibrium_check(e, {"x": 0.5})


def test_economy_demand():
    e = two_agent_economy()
    argmax, v = economy_demand(e, "A", {"x": 2.0})
    assert argmax == [frozenset()]
    assert v == pytest.approx(2.0)
    argmax, v = economy_demand(e, "B", {"x": 2.0})
    assert argmax == [frozenset({"x"})]
    assert v == pytest.approx(1.0)
    argmax, _v = economy_demand(e, "A", {"x": 1.0})  # indifferent
    assert sorted(argmax, key=len) == [frozenset(), frozenset({"x"})]


def test_economy_demand_rejects_a_utility_outside_its_domain():
    # B pays for x: a negative transfer under the square root, where the
    # interpreter gives NaN as the compiled row does
    e = ExchangeEconomy(("x",), {"A": ("x",), "B": ()},
                        {"A": {frozenset(): pe("t"), frozenset({"x"}): pe("1 + t")},
                         "B": {frozenset(): pe("t"), frozenset({"x"}): pe("3 + t ^ 0.5")}})
    assert economy_demand(e, "B", {"x": 0.0}) == ([frozenset({"x"})], 3.0)
    for q in (2.0, 1e-9):
        with pytest.raises(NonFiniteUtility):
            economy_demand(e, "B", {"x": q})


def test_uniform_price_project_and_lift_errors():
    e = two_agent_economy()
    ind = induce_from_exchange(e)
    other = induce_from_exchange(ExchangeEconomy(
        ("y",), {"A": ("y",), "B": ()},
        {"A": {frozenset(): pe("t"), frozenset({"y"}): pe("1 + t")},
         "B": {frozenset(): pe("t"), frozenset({"y"}): pe("2 + t")}}))
    with pytest.raises(NotInducedNetwork):
        uniform_price_project(ind, PriceVector(other.network, (1.0,)))
    with pytest.raises(NotInducedNetwork):
        uniform_price_lift(ind, {})
    with pytest.raises(NotInducedNetwork):
        uniform_price_lift(ind, {"x": -1.0})


def test_three_agent_uniform_pricing():
    # A owns x; both B and C may buy it, so the induced network has two
    # trades for one object and uniform pricing takes the max
    e = ExchangeEconomy(
        objects=("x",),
        endowments={"A": ("x",), "B": (), "C": ()},
        tables={
            "A": {frozenset(): pe("t"), frozenset({"x"}): pe("1 + t")},
            "B": {frozenset(): pe("t"), frozenset({"x"}): pe("3 + t")},
            "C": {frozenset(): pe("t"), frozenset({"x"}): pe("5 + t")},
        },
    )
    ind = induce_from_exchange(e)
    assert ind.network.n == 2
    records = find_equilibria(ind.profile, (-0.5, 5.5), 0.5, refine=False)
    assert records
    for r in records:
        q = uniform_price_project(ind, r.prices)
        assert 3.0 <= q["x"] <= 5.0  # second-highest to highest value
        assert economy_equilibrium_check(e, q)


def test_exchange_infeasible_duplicate_sales_pruned():
    # selling x to both B and C at once is never a feasible bundle
    e = ExchangeEconomy(
        objects=("x",),
        endowments={"A": ("x",), "B": (), "C": ()},
        tables={
            "A": {frozenset(): pe("t"), frozenset({"x"}): pe("1 + t")},
            "B": {frozenset(): pe("t"), frozenset({"x"}): pe("3 + t")},
            "C": {frozenset(): pe("t"), frozenset({"x"}): pe("5 + t")},
        },
    )
    ind = induce_from_exchange(e)
    both = ind.network.full_mask
    assert ind.profile.firms["A"].value(both, (0.0, 0.0)) is INFEASIBLE


def test_matching_trade_id_helpers():
    assert matching_trade_id("h1", "d2") == "h1:d2"
    assert exchange_trade_id("x", "A", "B") == "x:A>B"
