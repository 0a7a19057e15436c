"""One compiled row per firm and mode.

A firm's scalar row (``FirmUtility.values``) and vector row
(``value_matrix``) are each one closure, compiled once and read by every
caller.  ``value`` reads the scalar row, so a bundle that is not finite
raises whichever bundle is asked for.  Z from the rows is checked against
the definition, enumerated over every trade set without the kernel's
share tables.
"""

import os

import numpy as np
import pytest

from netclear import expr as ex
from netclear.cli import load_scenario
from netclear.demand import demand_set
from netclear.equilibrium import _compiled, find_equilibria, grid_axis, surplus
from netclear.errors import NonFiniteUtility
from netclear.instances import assignment_market
from netclear.mechanisms import SearchConfig, buyer_optimal_mechanism, uplift_reports
from netclear.model import PriceVector, build_network
from netclear.properties import check_bounds
from netclear.utility import FirmUtility, UtilityProfile, make_quasilinear, make_unit_demand

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
NAMES = sorted(os.listdir(SCENARIOS))


def scenario(name):
    return load_scenario(os.path.join(SCENARIOS, name))


def seeded_points(sc, seed):
    """Grid points and off-grid points of the scenario's box."""
    rng = np.random.default_rng(seed)
    levels = grid_axis(sc.analysis.box, sc.analysis.step, 1)
    on_grid = levels[rng.integers(len(levels), size=(20, sc.network.n))]
    off_grid = rng.uniform(*sc.analysis.box, size=(20, sc.network.n))
    return [tuple(row) for row in np.vstack([on_grid, off_grid]).tolist()]


def z_by_definition(u, values):
    """min over trade sets Ψ, each firm's share in its table, of the max over
    firms of v^f(p) - u^f(Ψ, p), with every value from ``FirmUtility.value``."""
    best = {f: max(fu.value(m, values) for m in fu.table) for f, fu in u.firms.items()}
    z = None
    for psi in range(1 << u.network.n):
        if any(psi & fu.omega not in fu.table for fu in u.firms.values()):
            continue
        worst = max((best[f] - fu.value(psi & fu.omega, values)
                     for f, fu in u.firms.items()), default=0.0)
        z = worst if z is None else min(z, worst)
    return z


@pytest.mark.parametrize("name", NAMES)
def test_surplus_matches_the_definition(name):
    sc = scenario(name)
    points = seeded_points(sc, len(name))
    z, _fit, _best = _compiled(sc.profile).evaluate(points, 1e-9)
    for values, kernel_z in zip(points, z):
        want = z_by_definition(sc.profile, values)
        assert surplus(sc.profile, PriceVector(sc.network, values)) == pytest.approx(
            want, abs=1e-12)
        assert kernel_z == pytest.approx(want, abs=1e-12)


def arithmetic_only(e):
    """No exp, sqrt or power: NumPy and math then agree to the bit."""
    if isinstance(e, ex.Unary):
        return e.op == "neg" and arithmetic_only(e.arg)
    if isinstance(e, (ex.Binary, ex.Cmp)):
        return e.op != "^" and arithmetic_only(e.left) and arithmetic_only(e.right)
    if isinstance(e, ex.NAry):
        return all(map(arithmetic_only, e.args))
    if isinstance(e, ex.Piecewise):
        return all(arithmetic_only(g) and arithmetic_only(v) for g, v in e.cases) \
            and arithmetic_only(e.otherwise)
    return True


@pytest.mark.parametrize("name", NAMES)
def test_rows_agree_with_value_and_value_matrix(name):
    sc = scenario(name)
    points = seeded_points(sc, len(name))
    for f, fu in sorted(sc.profile.firms.items()):
        matrix = fu.value_matrix(list(np.array(points).T))
        exact = all(map(arithmetic_only, fu.table.values()))
        for values, vector_row in zip(points, matrix.tolist()):
            row = fu.values(values)
            assert list(row) == [fu.value(m, values) for m in fu.feasible_masks()]
            if exact:
                assert list(row) == vector_row, (f, values)
            else:
                assert row == pytest.approx(vector_row, abs=1e-12)


def test_value_raises_when_another_bundle_is_not_finite():
    net = build_network([("a", "s", "b")])
    u = FirmUtility("b", net, {0: ex.parse_expr("0"), 1: ex.parse_expr("sqrt(2 - p[a])")})
    assert u.value(0, (1.0,)) == 0.0
    for mask in (0, 1):
        with pytest.raises(NonFiniteUtility):
            u.value(mask, (3.0,))
    with pytest.raises(NonFiniteUtility):
        u.values((3.0,))


def test_bounds_read_rows_inside_the_box():
    net = build_network([("a", "s", "b")])
    u = FirmUtility("b", net, {0: ex.parse_expr("0"),
                               1: ex.parse_expr("3 - sqrt(p[a] - 1)")})
    assert check_bounds(u, "BCV", (2.0, 4.0), samples=20, K=10.0).ok
    assert not check_bounds(u, "BCV", (2.0, 4.0), samples=20, K=1.0).ok
    with pytest.raises(NonFiniteUtility):
        check_bounds(u, "BCV", (0.0, 4.0), samples=20, K=10.0)


def counting_compile(monkeypatch):
    """Replace ``expr.compile_expr`` with a wrapper that logs (row,
    vectorized) per call."""
    calls = []
    compile_expr = ex.compile_expr

    def counted(row, index, vectorized=False):
        calls.append((row, vectorized))
        return compile_expr(row, index, vectorized)

    monkeypatch.setattr(ex, "compile_expr", counted)
    return calls


def compiled_for(calls, fu):
    """The calls that compile any expression of fu, as (is fu's whole row,
    vectorized)."""
    own = list(map(fu.table.get, fu.feasible_masks()))
    out = []
    for row, vectorized in calls:
        if any(x is y for x in row for y in own):
            whole = len(row) == len(own) and all(x is y for x, y in zip(row, own))
            out.append((whole, vectorized))
    return out


def test_each_firm_compiles_one_scalar_and_one_vector_row(monkeypatch):
    u = assignment_market(2, 3, {(0, 0): 3.0, (0, 1): 2.0, (0, 2): 2.5,
                                 (1, 0): 1.0, (1, 1): 2.5, (1, 2): 1.5})
    calls = counting_compile(monkeypatch)
    seller = u.firms["s0"]
    assert len(seller.table) >= 4
    p = PriceVector(u.network, (1.0,) * u.network.n)
    seller.value(seller.feasible_masks()[-1], p.values)
    seller.values(p.values)
    demand_set(seller, p)
    seller.value_matrix(list(np.zeros((3, u.network.n)).T))
    surplus(u, p)
    find_equilibria(u, (0.0, 3.0), 0.5)
    cfg = SearchConfig((0.0, 3.0), 0.5)
    buyer_optimal_mechanism(u, cfg)
    assert sorted(compiled_for(calls, seller)) == [(True, False), (True, True)]
    for fu in u.firms.values():
        assert sorted(compiled_for(calls, fu)) == [(True, False), (True, True)]

    # a misreport compiles the coalition firm's two rows and nothing else
    buyer = u.firms["b0"]
    _name, lying = next(uplift_reports(buyer, [0.5]))
    calls.clear()
    buyer_optimal_mechanism(u.replace(b0=lying), cfg)
    lying.values(p.values)
    assert len(calls) == 2
    assert sorted(compiled_for(calls, lying)) == [(True, False), (True, True)]


def test_unit_demand_buyer_compiles_one_vector_row(monkeypatch):
    # the builder's monotonicity check reads the vector row the scan reuses
    net = build_network([("a", "s", "b"), ("c", "s", "b")])
    calls = counting_compile(monkeypatch)
    buyer = make_unit_demand("b", net, {"a": ex.parse_expr("3 - p[a]"),
                                        "c": ex.parse_expr("2 - exp(p[c] / 4)")})
    seller = make_quasilinear("s", net, {0: 0.0, 1: -0.5, 2: -0.25})
    profile = UtilityProfile(net, {"b": buyer, "s": seller})
    assert find_equilibria(profile, (0.0, 3.0), 0.5, refine=False)
    assert compiled_for(calls, buyer) == [(True, True)]
