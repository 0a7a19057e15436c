import pytest
from hypothesis import given, settings, strategies as st

from netclear.equilibrium import (
    extremal_equilibria,
    find_equilibria,
    is_equilibrium,
    surplus,
    verify_lattice_pair,
    verify_rural_hospitals_pair,
)
from netclear.errors import (
    AllInfeasible,
    EmptyBox,
    EmptySet,
    NotAnEquilibriumInput,
)
from netclear.instances import (
    assignment_market,
    kinked_pair_market,
    star_market,
    three_supplier_market,
)
from netclear.model import PriceVector, build_network
from netclear.utility import FirmUtility, UtilityProfile
from netclear.expr import num, parse_expr


def record_at(u, values):
    rec = is_equilibrium(u, PriceVector(u.network, values))
    assert rec is not None, f"expected an equilibrium at {values}"
    return rec


def test_surplus_zero_iff_equilibrium_star():
    m = star_market()
    n = m.network
    assert surplus(m, PriceVector(n, (1.0, 1.0, 1.0, 1.0))) == 0.0
    assert surplus(m, PriceVector(n, (0.0, 0.0, 2.0, 2.0))) == 0.0
    z = surplus(m, PriceVector(n, (1.0, 1.0, 2.0, 2.0)))
    assert z == pytest.approx(0.36787944117144233)
    assert is_equilibrium(m, PriceVector(n, (1.0, 1.0, 2.0, 2.0))) is None


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2, 4), min_size=4, max_size=4))
def test_surplus_nonnegative(prices):
    m = star_market()
    assert surplus(m, PriceVector(m.network, tuple(prices))) >= 0.0


def test_star_equilibrium_supports():
    m = star_market()
    n = m.network
    sym = record_at(m, (1.0, 1.0, 1.0, 1.0))
    assert sym.supports == (n.full_mask,)
    assert sym.net_indices == {"f": 0, "s1": -1, "s2": -1, "x1": 1, "x2": 1}
    asym = record_at(m, (0.0, 0.0, 2.0, 2.0))
    pair_masks = {n.mask_of([a, b])
                  for a in ("a1", "a2") for b in ("b1", "b2")}
    assert set(asym.supports) == pair_masks


def test_find_equilibria_star_golden():
    m = star_market()
    records = find_equilibria(m, (-1, 3), 0.25)
    prices = sorted(r.prices.values for r in records)
    assert len(prices) == 2
    assert max(abs(a - b) for a, b in zip(prices[0], (0, 0, 2, 2))) <= 1e-6
    assert max(abs(a - b) for a, b in zip(prices[1], (1, 1, 1, 1))) <= 1e-6


def test_find_equilibria_refine_reaches_off_grid():
    # equilibria of the one-trade market sit on [1, 3]; a misaligned grid
    # still converges onto the segment via coordinate descent (0.9 is within
    # the step / 2 trigger, and its first step of 0.3 reaches 1.2)
    n = build_network([("t", "s", "b")])
    m = UtilityProfile(n, {
        "s": FirmUtility("s", n, {0: num(0), 1: parse_expr("p[t] - 1")}),
        "b": FirmUtility("b", n, {0: num(0), 1: parse_expr("3 - p[t]")}),
    })
    records = find_equilibria(m, (-0.9, 0.9), 0.6)
    assert [r.prices.values for r in records] == [(1.2,)]
    assert all(1.0 - 1e-6 <= r.prices.values[0] <= 3.0 + 1e-6
               for r in records)


def test_find_equilibria_empty_network():
    n = build_network([])
    m = UtilityProfile(n, {})
    records = find_equilibria(m, (0, 1), 0.5)
    assert len(records) == 1
    assert records[0].supports == (0,)
    assert records[0].surplus == 0.0


def test_find_equilibria_bad_box():
    m = star_market()
    with pytest.raises(EmptyBox):
        find_equilibria(m, (1, 1), 0.25)
    with pytest.raises(EmptyBox):
        find_equilibria(m, (0, 1), -0.5)


def test_all_infeasible_profile():
    n = build_network([("t", "s", "b")])
    m = UtilityProfile(n, {
        "s": FirmUtility("s", n, {1: parse_expr("p[t]")}),
        "b": FirmUtility("b", n, {0: num(0)}),
    })
    # s only accepts trading, b only accepts not trading: nothing compatible
    with pytest.raises(AllInfeasible):
        find_equilibria(m, (0, 1), 0.5)


def test_lattice_failure_on_star():
    m = star_market()
    e1 = record_at(m, (1.0, 1.0, 1.0, 1.0))
    e2 = record_at(m, (0.0, 0.0, 2.0, 2.0))
    rep = verify_lattice_pair(m, e1, e2)
    assert rep.join_prices == (1.0, 1.0, 2.0, 2.0)
    assert rep.meet_prices == (0.0, 0.0, 1.0, 1.0)
    assert rep.join_record is None and rep.meet_record is None
    assert not rep.ok


def test_lattice_holds_on_kinked_market():
    m = kinked_pair_market()
    e1 = record_at(m, (1.6, 1.7))
    e2 = record_at(m, (1.7, 1.6))
    rep = verify_lattice_pair(m, e1, e2)
    assert rep.ok
    assert rep.join_prices == (1.7, 1.7)
    assert rep.meet_prices == (1.6, 1.6)
    assert rep.join_support_construction and rep.meet_support_construction


def test_lattice_rejects_non_equilibrium_input():
    m = star_market()
    e1 = record_at(m, (1.0, 1.0, 1.0, 1.0))
    fake = e1.__class__(PriceVector(m.network, (1.0, 1.0, 2.0, 2.0)),
                        e1.supports, e1.net_indices, 0.5)
    with pytest.raises(NotAnEquilibriumInput):
        verify_lattice_pair(m, e1, fake)
    with pytest.raises(NotAnEquilibriumInput):
        verify_rural_hospitals_pair(m, fake, e1)


def test_rural_hospitals_fails_between_star_equilibria():
    # the symmetric equilibrium trades everything, the asymmetric one only a
    # pair: per-firm trade counts differ, so no support can match
    m = star_market()
    e1 = record_at(m, (1.0, 1.0, 1.0, 1.0))
    e2 = record_at(m, (0.0, 0.0, 2.0, 2.0))
    rep = verify_rural_hospitals_pair(m, e1, e2)
    assert not rep.ok
    assert rep.unmatched == e1.supports


def test_rural_hospitals_fails_on_kinked_market():
    m = kinked_pair_market()
    pair_eq = record_at(m, (2.0, 2.0))
    single_eq = record_at(m, (1.0, 1.0))
    rep = verify_rural_hospitals_pair(m, pair_eq, single_eq)
    assert not rep.ok


def test_rural_hospitals_passes_on_assignment():
    u = assignment_market(2, 2, {(0, 0): 3, (0, 1): 2, (1, 0): 1, (1, 1): 4})
    records = find_equilibria(u, (-0.25, 4.5), 0.25, refine=False)
    assert len(records) > 2
    e1, e2 = records[0], records[-1]
    assert verify_rural_hospitals_pair(u, e1, e2).ok
    assert verify_lattice_pair(u, e1, e2).ok


def test_extremal_star():
    m = star_market()
    records = find_equilibria(m, (-1, 3), 0.25)
    rep = extremal_equilibria(m, records)
    # sellers earn 1 at (1,1,1,1) vs 0 at (0,0,2,2); buyers pay 1 vs 2.
    # The symmetric equilibrium is best for both ends of the chain — the
    # intermediary absorbs everything at the other one.
    assert rep.seller_dominant and rep.buyer_dominant
    assert rep.seller_optimal.prices.values == pytest.approx((1, 1, 1, 1),
                                                             abs=1e-6)
    assert rep.buyer_optimal.prices.values == pytest.approx((1, 1, 1, 1),
                                                            abs=1e-6)


def test_extremal_three_supplier_no_seller_optimum():
    m = three_supplier_market()
    records = find_equilibria(m, (-1, 2), 0.25, refine=False)
    rep = extremal_equilibria(m, records)
    assert rep.seller_optimal is None
    assert not rep.seller_dominant
    assert rep.buyer_optimal is not None
    assert rep.buyer_optimal.prices.values == (0.0, 0.0, -1.0)


def test_extremal_empty_set():
    m = star_market()
    with pytest.raises(EmptySet):
        extremal_equilibria(m, [])
