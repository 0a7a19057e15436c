"""One compiled row per firm.

A firm's row is one NumPy closure over price columns, compiled once and
read by every caller: ``value_matrix`` over many points, ``values`` (and
``value``, which reads it) over one, the grid scan and the unit-demand
builder.  A bundle that is not finite raises whichever bundle is asked
for.  Z from the kernel is checked against the definition, enumerated over
every trade set without the kernel's share tables and read through the
interpreter ``expr.eval_expr`` rather than the compiled row.
"""

import os

import numpy as np
import pytest

from netclear import equilibrium, expr as ex
from netclear.cli import load_scenario
from netclear.demand import demand_set
from netclear.equilibrium import _compiled, find_equilibria, grid_axis, surplus
from netclear.errors import NonFiniteUtility
from netclear.instances import assignment_market
from netclear.mechanisms import SearchConfig, buyer_optimal_mechanism, manipulation_search
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


def z_by_definition(u):
    """Z as a function of a price tuple, by its definition: min over trade
    sets Ψ, each firm's share in its table, of the max over firms of
    v^f(p) - u^f(Ψ, p).  The sets Ψ are enumerated once, over every trade
    set; every value comes from the interpreter ``expr.eval_expr``, which
    shares no code with the compiled rows."""
    sets = []
    for psi in range(1 << u.network.n):
        shares = [(f, psi & fu.omega) for f, fu in u.firms.items()]
        if all(m in u.firms[f].table for f, m in shares):
            sets.append(shares)

    def z(values):
        prices = dict(zip((t.id for t in u.network.trades), values))
        rows = {f: {m: ex.eval_expr(e, prices) for m, e in fu.table.items()}
                for f, fu in u.firms.items()}
        best = {f: max(row.values()) for f, row in rows.items()}
        return min(max((best[f] - rows[f][m] for f, m in shares), default=0.0)
                   for shares in sets)

    return z


@pytest.mark.parametrize("name", NAMES)
def test_surplus_matches_the_definition(name):
    sc = scenario(name)
    points = seeded_points(sc, len(name))
    z, _fit, _best = _compiled(sc.profile).evaluate(points, 1e-9)
    want = z_by_definition(sc.profile)
    for values, kernel_z in zip(points, z):
        assert kernel_z == pytest.approx(want(values), abs=1e-12)
        # one point is a batch of one: the same bits
        assert surplus(sc.profile, PriceVector(sc.network, values)) == kernel_z


@pytest.mark.parametrize("name", NAMES)
def test_rows_agree_with_value_and_value_matrix(name):
    sc = scenario(name)
    points = seeded_points(sc, len(name))
    for f, fu in sorted(sc.profile.firms.items()):
        matrix = fu.value_matrix(list(np.array(points).T))
        for values, vector_row in zip(points, matrix.tolist()):
            row = fu.values(values)
            assert all(type(v) is float for v in row)
            assert list(row) == [fu.value(m, values) for m in fu.feasible_masks()]
            assert list(row) == vector_row, (f, values)


def test_powers_agree_with_value_matrix_bit_for_bit():
    # one point goes through NumPy scalars; powers must still take the
    # array loop's bits, which the C library's pow misses for some points
    net = build_network([("a", "s", "b"), ("c", "s", "b")])
    u = FirmUtility("b", net, {
        0: ex.parse_expr("p[a] ^ 1.5 - p[c] ^ 3"),
        1: ex.parse_expr("2.5 ^ p[a] + (p[a] + 1) ^ p[c]"),
        2: ex.parse_expr("piecewise{ p[c] > 1 : p[c] ^ 0.7; else : p[a] ^ -2.5 }")})
    points = np.random.default_rng(7).uniform(0.1, 4.0, size=(500, 2))
    matrix = u.value_matrix(list(points.T))
    for values, vector_row in zip(map(tuple, points.tolist()), matrix.tolist()):
        assert list(u.values(values)) == vector_row, values


def test_arms_not_selected_may_be_undefined(capfd):
    # at p[a] = 0 the arms 1/p[a] and sqrt(p[a] - 1) divide by zero and
    # leave the domain, but neither is selected
    net = build_network([("a", "s", "b")])
    u = FirmUtility("b", net, {
        0: ex.parse_expr("piecewise{ p[a] > 0 : 1/p[a]; else : 5 }"),
        1: ex.parse_expr("piecewise{ p[a] >= 1 : sqrt(p[a] - 1); else : 2 }")})
    assert u.values((0.0,)) == (5.0, 2.0)
    assert (u.value(0, (0.0,)), u.value(1, (0.0,))) == (5.0, 2.0)
    assert u.value_matrix([np.array([0.0, 2.0])]).tolist() == [[5.0, 2.0], [0.5, 1.0]]
    assert capfd.readouterr() == ("", "")


def test_value_raises_when_another_bundle_is_not_finite():
    net = build_network([("a", "s", "b")])
    u = FirmUtility("b", net, {0: ex.parse_expr("0"), 1: ex.parse_expr("sqrt(2 - p[a])")})
    assert u.value(0, (1.0,)) == 0.0
    for mask in (0, 1):
        with pytest.raises(NonFiniteUtility):
            u.value(mask, (3.0,))
    with pytest.raises(NonFiniteUtility, match=r"prices \(3\.0,\)") as err:
        u.values((3.0,))
    assert err.value.row is None


def test_bounds_read_rows_inside_the_box():
    net = build_network([("a", "s", "b")])
    u = FirmUtility("b", net, {0: ex.parse_expr("0"),
                               1: ex.parse_expr("3 - sqrt(p[a] - 1)")})
    assert check_bounds(u, "BCV", (2.0, 4.0), samples=20, K=10.0).ok
    assert not check_bounds(u, "BCV", (2.0, 4.0), samples=20, K=1.0).ok
    with pytest.raises(NonFiniteUtility):
        check_bounds(u, "BCV", (0.0, 4.0), samples=20, K=10.0)


def counting_compile(monkeypatch):
    """Replace ``expr.compile_expr`` with a wrapper that logs the row of
    each call."""
    calls = []
    compile_expr = ex.compile_expr

    def counted(row, index):
        calls.append(row)
        return compile_expr(row, index)

    monkeypatch.setattr(ex, "compile_expr", counted)
    return calls


def compiled_for(calls, fu):
    """For each call that compiles any expression of fu, whether it compiles
    fu's whole row."""
    own = list(map(fu.table.get, fu.feasible_masks()))
    return [len(row) == len(own) and all(x is y for x, y in zip(row, own))
            for row in calls if any(x is y for x in row for y in own)]


def test_each_firm_compiles_one_row(monkeypatch):
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
    assert len(calls) == len(u.firms)
    for fu in u.firms.values():
        assert compiled_for(calls, fu) == [True]

    # a manipulation search edits the coalition's truthful values: it
    # compiles the truthful profile's rows, one per firm, and builds one
    # compiled profile, whatever the misreports
    fresh = assignment_market(2, 3, {(0, 0): 3.0, (0, 1): 2.0, (0, 2): 2.5,
                                     (1, 0): 1.0, (1, 1): 2.5, (1, 2): 1.5})
    calls.clear()
    profiles = []
    init = equilibrium._CompiledProfile.__init__

    def counted(self, profile):
        profiles.append(profile)
        init(self, profile)

    monkeypatch.setattr(equilibrium._CompiledProfile, "__init__", counted)
    report = manipulation_search(fresh, ["b0", "b1"], cfg, (0.5, 1.5), (0.5, 1.0))
    assert report.tried == (1 + 2 + 2 * 2) ** 2 - 1
    assert len(calls) == len(fresh.firms) and profiles == [fresh]
    for fu in fresh.firms.values():
        assert compiled_for(calls, fu) == [True]


def test_unit_demand_buyer_compiles_one_row(monkeypatch):
    # the builder's monotonicity check reads the row the scan reuses
    net = build_network([("a", "s", "b"), ("c", "s", "b")])
    calls = counting_compile(monkeypatch)
    buyer = make_unit_demand("b", net, {"a": ex.parse_expr("3 - p[a]"),
                                        "c": ex.parse_expr("2 - exp(p[c] / 4)")})
    seller = make_quasilinear("s", net, {0: 0.0, 1: -0.5, 2: -0.25})
    profile = UtilityProfile(net, {"b": buyer, "s": seller})
    assert find_equilibria(profile, (0.0, 3.0), 0.5, refine=False)
    assert compiled_for(calls, buyer) == [True]
