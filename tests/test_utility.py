import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netclear.errors import (
    AllInfeasible,
    BundleOutOfScope,
    NonFiniteUtility,
    NonMonotoneExpr,
    NotTerminalBuyer,
    NotUnitDemand,
    UnknownFirm,
)
from netclear.expr import num, parse_expr
from netclear.instances import star_intermediary, star_market, star_network
from netclear.model import PriceVector, build_network, partition_bundle
from netclear.utility import (
    INFEASIBLE,
    FirmUtility,
    UtilityProfile,
    check_monotonicity,
    endowment_transform,
    is_unit_demand,
    make_quasilinear,
    make_unit_demand,
)
from misreports import truncate_at_outside


def test_infeasible_is_singleton_tag():
    from netclear.utility import _Infeasible

    assert _Infeasible() is INFEASIBLE
    assert repr(INFEASIBLE) == "INFEASIBLE"
    assert not isinstance(INFEASIBLE, float)


def test_absent_bundle_is_infeasible():
    u = star_intermediary()
    n = u.network
    p = (1.0, 1.0, 1.0, 1.0)
    assert u.value(n.mask_of(["a1"]), p) is INFEASIBLE
    assert u.value(n.mask_of(["a1", "b1"]), p) == 2.0
    assert u.value(0, p) == 0.0


def test_validation_errors():
    n = star_network()
    with pytest.raises(UnknownFirm):
        FirmUtility("ghost", n, {0: num(0)})
    with pytest.raises(AllInfeasible):
        FirmUtility("f", n, {})
    with pytest.raises(BundleOutOfScope):
        # b1 belongs to f and x1, not to s1
        FirmUtility("s1", n, {n.mask_of(["b1"]): num(0)})


def test_profile_requires_coverage_and_consistency():
    n = star_network()
    fu = star_intermediary(n)
    with pytest.raises(UnknownFirm):
        UtilityProfile(n, {"f": fu})
    m = star_market()
    with pytest.raises(UnknownFirm):
        UtilityProfile(n, dict(m.firms, s1=m.firms["s2"]))


def test_profile_replace():
    m = star_market()
    bumped = FirmUtility("s1", m.network,
                         {0: num(0.5), m.network.mask_of(["a1"]): num(9)})
    m2 = m.replace(s1=bumped)
    assert m2.firms["s1"] is bumped
    assert m.firms["s1"] is not bumped
    assert m2.firms["f"] is m.firms["f"]


@given(st.lists(st.floats(-4, 4), min_size=4, max_size=4))
def test_quasilinear_formula(prices):
    n = star_network()
    valuation = {0: 0.0, n.mask_of(["a1", "b1"]): 3.0, n.full_mask: 5.0}
    u = make_quasilinear("f", n, valuation)
    for mask, v in valuation.items():
        up, down = partition_bundle(n, "f", mask)
        expected = v
        for i in range(n.n):
            if down >> i & 1:
                expected += prices[i]
            elif up >> i & 1:
                expected -= prices[i]
        assert u.value(mask, tuple(prices)) == pytest.approx(expected,
                                                             abs=1e-12)


def test_unit_demand_builder():
    n = star_network()
    u = make_unit_demand("x1", n, {"b1": parse_expr("2 - p[b1]")}, outside=0.5)
    assert is_unit_demand(u)
    assert u.value(0, (0,) * 4) == 0.5
    assert u.value(n.mask_of(["b1"]), (0, 0, 1.5, 0)) == 0.5
    with pytest.raises(NotTerminalBuyer):
        make_unit_demand("f", n, {})
    with pytest.raises(NonMonotoneExpr):
        make_unit_demand("x1", n, {"b1": parse_expr("p[b1]")})
    with pytest.raises(BundleOutOfScope):
        make_unit_demand("x1", n, {"a1": parse_expr("1 - p[a1]")})
    with pytest.raises(BundleOutOfScope):
        make_unit_demand("x1", n, {"b1": parse_expr("2 - p[b2]")})


@pytest.mark.parametrize("text", ["sqrt(1 + p[b1])", "sqrt(1 - p[b1])",
                                  "1 / p[b1]", "-(p[b1] ^ 0.5)"])
def test_unit_demand_outside_its_domain_raises(text):
    with pytest.raises(NonFiniteUtility, match="b1"):
        make_unit_demand("x1", star_network(), {"b1": parse_expr(text)})


@pytest.mark.parametrize("text", ["2 - p[b1]", "p[b1]", "exp(-p[b1])", "1",
                                  "max(1 - p[b1], 0)", "-(p[b1] ^ 3)",
                                  "piecewise{ p[b1] <= 0 : -p[b1]; else : 0.5 - p[b1] }"])
def test_unit_demand_monotonicity_matches_interpreter(text):
    # the interpreted samples are the oracle for the compiled check
    from netclear.expr import eval_expr

    e = parse_expr(text)
    vals = [eval_expr(e, {"b1": s}) for s in np.linspace(-10.0, 10.0, 25)]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    try:
        make_unit_demand("x1", star_network(), {"b1": e})
        assert decreasing
    except NonMonotoneExpr:
        assert not decreasing


def test_is_unit_demand_rejects_other_shapes():
    assert not is_unit_demand(star_intermediary())


def test_truncate_at_outside():
    n = star_network()
    u = make_unit_demand("x1", n, {"b1": parse_expr("2 - p[b1]")})
    t = truncate_at_outside(u, 1.25)
    assert t.value(0, (0,) * 4) == 1.25
    assert t.value(n.mask_of(["b1"]), (0, 0, 0.5, 0)) == 1.5
    with pytest.raises(NotUnitDemand):
        truncate_at_outside(star_intermediary(), 1.0)


def test_endowment_transform_dominates_original():
    u = star_intermediary()
    n = u.network
    endowed = n.mask_of(["a1"])
    p_bar = PriceVector(n, (0.5, 0.0, 0.0, 0.0))
    t = endowment_transform(u, endowed, p_bar)
    for prices in itertools.product((-1.0, 0.0, 1.0, 2.0), repeat=2):
        p = (0.7, prices[0], prices[1], 0.3)
        for mask in u.feasible_masks():
            v0 = u.value(mask, p)
            stripped = mask & ~endowed
            v1 = t.value(stripped, p)
            assert v1 is not INFEASIBLE
            # executing the endowed add-on at p_bar is one available option
            if mask & endowed:
                pinned = list(p)
                pinned[0] = 0.5
                assert v1 >= u.value(mask, tuple(pinned)) - 1e-12
            else:
                assert v1 >= v0 - 1e-12


def test_endowment_transform_empty_endowment_is_identity():
    u = star_intermediary()
    t = endowment_transform(u, 0, PriceVector(u.network, (0,) * 4))
    assert t.feasible_masks() == u.feasible_masks()
    p = (1.0, 0.5, 2.0, 1.5)
    for mask in u.feasible_masks():
        assert t.value(mask, p) == pytest.approx(u.value(mask, p))


def test_endowment_transform_scope_check():
    u = star_intermediary()
    n = u.network
    with pytest.raises(BundleOutOfScope):
        # s1's view of a1 is fine, but f cannot be endowed with nothing
        # outside its trade set; use a foreign-looking mask
        endowment_transform(
            star_market().firms["s1"], n.mask_of(["b1"]),
            PriceVector(n, (0,) * 4))


def test_check_monotonicity_pass_and_fail():
    assert check_monotonicity(star_intermediary(), samples=50).ok
    n = star_network()
    bad = FirmUtility("s1", n, {0: num(0),
                                n.mask_of(["a1"]): parse_expr("-p[a1]")})
    report = check_monotonicity(bad, samples=10)
    assert not report.ok
    assert report.violations[0][2] == "sale"


@pytest.mark.parametrize("text, good, bad", [
    ("sqrt(p[a] - 1)", 1.5, 0.0),    # domain error
    ("(1 - p[a])^0.5", 0.0, 2.0),    # negative base, fractional power
    ("exp(1000 * p[a])", 0.0, 2.0),  # overflow
    ("1 / (p[a] - 2)", 0.0, 2.0),    # division by zero
])
def test_scalar_and_vector_values_fail_alike(text, good, bad):
    net = build_network([("a", "s", "b")])
    u = FirmUtility("b", net, {0: parse_expr("0"), 1: parse_expr(text)})
    good, bad = (good,), (bad,)
    matrix = u.value_matrix(list(np.array([good]).T))
    assert matrix.tolist() == [[0.0, u.value(1, good)]]
    with pytest.raises(NonFiniteUtility):
        u.value(1, bad)
    with pytest.raises(NonFiniteUtility) as err:
        u.value_matrix(list(np.array([good, good, bad, good]).T))
    assert err.value.row == 2
