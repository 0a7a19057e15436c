import pytest
from hypothesis import given, settings, strategies as st

from netclear.demand import demand_set, indirect_utility, nib_witness
from netclear.errors import NotDemanded
from netclear.instances import (
    kinked_pair_buyer,
    star_intermediary,
    three_supplier_buyer,
    triple_trade_buyer,
)
from netclear.model import PriceVector


def bundles_of(u, d):
    return {frozenset(u.network.ids_of(m)) for m in d.bundles}


def test_star_demand_at_symmetric_prices():
    u = star_intermediary()
    d = demand_set(u, PriceVector(u.network, (1.0, 1.0, 1.0, 1.0)))
    assert bundles_of(u, d) == {
        frozenset({"a1", "b1"}), frozenset({"a1", "b2"}),
        frozenset({"a2", "b1"}), frozenset({"a2", "b2"}),
        frozenset({"a1", "a2", "b1", "b2"}),
    }
    assert d.indirect == pytest.approx(2.0)
    assert not d.single_valued


def test_star_demand_after_purchase_discount():
    u = star_intermediary()
    d = demand_set(u, PriceVector(u.network, (0.0, 1.0, 1.0, 1.0)))
    assert bundles_of(u, d) == {frozenset({"a1", "b1"}),
                                frozenset({"a1", "b2"})}
    assert d.indirect == pytest.approx(3.0)


def test_indirect_utility_matches_demand():
    u = three_supplier_buyer()
    for prices in [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (2.0, 2.0, 2.0)]:
        p = PriceVector(u.network, prices)
        d = demand_set(u, p)
        assert indirect_utility(u, p) == pytest.approx(d.indirect)
        for m in d.bundles:
            assert u.value(m, prices) == pytest.approx(d.indirect,
                                                       abs=d.tolerance)


def test_three_supplier_single_valued_points():
    u = three_supplier_buyer()
    d1 = demand_set(u, PriceVector(u.network, (0.0, 1.0, 0.0)))
    d2 = demand_set(u, PriceVector(u.network, (1.0, 0.0, 0.0)))
    assert d1.single_valued and d2.single_valued
    assert bundles_of(u, d1) == {frozenset({"w1", "w2"})}
    assert bundles_of(u, d2) == {frozenset({"w1", "w2"})}


def test_eps_tie_widens_demand():
    u = kinked_pair_buyer()
    p = PriceVector(u.network, (1.0, 1.0 + 1e-8))
    tight = demand_set(u, p, eps_tie=1e-9)
    loose = demand_set(u, p, eps_tie=1e-6)
    assert set(tight.bundles) < set(loose.bundles)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 4), min_size=4, max_size=4))
def test_demand_never_empty_and_feasible(prices):
    u = star_intermediary()
    d = demand_set(u, PriceVector(u.network, tuple(prices)))
    assert d.bundles
    assert set(d.bundles) <= set(u.feasible_masks())
    assert d.bundles == tuple(sorted(d.bundles))


def test_nib_witness_triple_trade():
    u = triple_trade_buyer()
    n = u.network
    p = PriceVector(n, (2.0, 2.0, 2.0))
    # the singleton has nearby prices where it is uniquely demanded ...
    single = n.mask_of(["w1"])
    q = nib_witness(u, p, single)
    assert q is not None
    assert demand_set(u, q).bundles == (single,)
    assert max(abs(a - b) for a, b in zip(q.values, p.values)) < 1e-3
    # ... but the full bundle is isolated: the sqrt kink grows slower than
    # the linear singletons in every favorable direction
    full = n.mask_of(["w1", "w2", "w3"])
    assert nib_witness(u, p, full) is None


def test_nib_witness_not_demanded_raises():
    u = triple_trade_buyer()
    n = u.network
    p = PriceVector(n, (3.0, 2.0, 2.0))
    with pytest.raises(NotDemanded):
        nib_witness(u, p, n.mask_of(["w1"]))
