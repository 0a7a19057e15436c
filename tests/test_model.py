import pytest
from hypothesis import given, strategies as st

from netclear.errors import (
    BundleOutOfScope,
    DuplicateTradeId,
    NetworkMismatch,
    NetworkTooLarge,
    SelfLoop,
    UnknownFirm,
)
from netclear.model import (
    MAX_TRADES,
    PriceVector,
    build_network,
    join_meet,
    net_index,
    partition_bundle,
    terminal_roles,
)
from netclear.instances import star_network


def test_build_network_basic():
    n = star_network()
    assert n.n == 4
    assert n.firms == {"s1", "s2", "f", "x1", "x2"}
    assert n.index == {"a1": 0, "a2": 1, "b1": 2, "b2": 3}
    assert n.full_mask == 0b1111


def test_build_network_rejects_duplicates_and_self_loops():
    with pytest.raises(DuplicateTradeId):
        build_network([("t", "a", "b"), ("t", "b", "c")])
    with pytest.raises(SelfLoop):
        build_network([("t", "a", "a")])


def test_build_network_size_cap():
    spec = [(f"t{i}", "s", f"b{i}") for i in range(MAX_TRADES + 1)]
    with pytest.raises(NetworkTooLarge):
        build_network(spec)
    assert build_network(spec[:MAX_TRADES]).n == MAX_TRADES


def test_mask_roundtrip_and_unknown_id():
    n = star_network()
    mask = n.mask_of(["a1", "b2"])
    assert mask == 0b1001
    assert n.ids_of(mask) == {"a1", "b2"}
    with pytest.raises(BundleOutOfScope):
        n.mask_of(["nope"])


@given(st.sets(st.sampled_from(["a1", "a2", "b1", "b2"])))
def test_mask_roundtrip_all_subsets(ids):
    n = star_network()
    assert n.ids_of(n.mask_of(ids)) == frozenset(ids)


def test_firm_masks_against_trade_fields():
    n = star_network()
    for f in n.firms:
        buys = sum(1 << i for i, t in enumerate(n.trades) if t.buyer == f)
        sells = sum(1 << i for i, t in enumerate(n.trades) if t.seller == f)
        assert n.buys_mask(f) == buys
        assert n.sells_mask(f) == sells
        assert n.omega_mask(f) == buys | sells
    with pytest.raises(UnknownFirm):
        n.buys_mask("ghost")


def test_partition_and_net_index():
    n = star_network()
    full = n.full_mask
    up, down = partition_bundle(n, "f", full)
    assert n.ids_of(up) == {"a1", "a2"}
    assert n.ids_of(down) == {"b1", "b2"}
    assert net_index(n, "f", full) == 0
    assert net_index(n, "f", n.mask_of(["a1"])) == 1
    assert net_index(n, "s1", n.mask_of(["a1"])) == -1


def test_terminal_roles():
    n = star_network()
    roles = terminal_roles(n)
    assert roles == {
        "f": "intermediate",
        "s1": "terminal-seller",
        "s2": "terminal-seller",
        "x1": "terminal-buyer",
        "x2": "terminal-buyer",
    }


def test_price_vector_constructors():
    n = star_network()
    p = PriceVector.of(n, {"a1": 1, "a2": 2, "b1": 3, "b2": 4})
    assert p.values == (1.0, 2.0, 3.0, 4.0)
    assert p["b1"] == 3.0
    q = p.with_value("b1", -1)
    assert q["b1"] == -1.0 and p["b1"] == 3.0
    assert PriceVector.of(n, [0, 0, 0, 0]).values == (0.0,) * 4
    with pytest.raises(NetworkMismatch):
        PriceVector.of(n, {"a1": 1})
    with pytest.raises(NetworkMismatch):
        PriceVector(n, (1.0, 2.0))


@given(
    st.tuples(*[st.floats(-10, 10) for _ in range(4)]),
    st.tuples(*[st.floats(-10, 10) for _ in range(4)]),
)
def test_join_meet_componentwise(a, b):
    join, meet = join_meet(a, b)
    for x, y, j, m in zip(a, b, join, meet):
        assert j == max(x, y)
        assert m == min(x, y)
    # commutative and idempotent
    assert join_meet(b, a) == (join, meet)
    assert join_meet(a, a) == (a, a)
