"""Oracle tests for the firm-factored grid scan behind find_equilibria.

The scan must return exactly the grid points, in row-major order, where
the surplus by definition (read through the expression interpreter) is
within the trigger, whatever the block size.
"""

import itertools
import json
import os
import random
import time

import numpy as np
import pytest

from netclear import equilibrium, expr as ex
from netclear.cli import load_scenario, main
from netclear.equilibrium import (
    EPS_EQ,
    MAX_GRID_POINTS,
    _CompiledProfile,
    find_equilibria,
    surplus,
)
from netclear.errors import GridTooLarge, InfeasibleAllocation, NonFiniteUtility
from netclear.instances import assignment_market
from netclear.mechanisms import _utility_of
from netclear.model import PriceVector, build_network
from netclear.utility import FirmUtility, UtilityProfile, make_quasilinear
from test_rows import z_by_definition

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def grid(box, step):
    lo, hi = box
    return np.round(np.arange(lo, hi + step / 2, step), 12)


def oracle_hits(u, axis, threshold):
    z = z_by_definition(u)
    return [p for p in itertools.product(axis.tolist(), repeat=u.network.n)
            if z(p) <= threshold]


def scan_points(cp, axis, trigger):
    """The points of a plain ``_CompiledProfile.scan``, in order, as tuples."""
    return [tuple(p) for *_, points in cp.scan(axis, trigger) for p in points.tolist()]


def assert_matches_oracle(profile, axis, trigger):
    cp = _CompiledProfile(profile)
    expected = oracle_hits(profile, axis, trigger + 1e-15)
    levels, n = len(axis), profile.network.n
    # the largest firm sub-grid as the block size makes the scan narrow the
    # axes whenever the grid spans more than one block
    largest = max(levels ** len(fu.price_axes) for fu in profile.firms.values())
    narrowing = (largest,) if largest < levels ** n else ()
    with pytest.MonkeyPatch.context() as mp:
        for batch in (1, 7, levels ** (n - 1) + 1, 1 << 17) + narrowing:
            mp.setattr(equilibrium, "BATCH", batch)
            assert scan_points(cp, axis, trigger) == expected, batch
    return expected


def table(network, firm, entries):
    return FirmUtility(firm, network, {
        network.mask_of(bundle): ex.parse_expr(text)
        for bundle, text in entries.items()})


@pytest.mark.parametrize("name", sorted(os.listdir(SCENARIOS)))
def test_bundled_scenarios_match_scalar_oracle(name):
    sc = load_scenario(os.path.join(SCENARIOS, name))
    step = sc.analysis.step if sc.network.n <= 3 else 2 * sc.analysis.step
    axis = grid(sc.analysis.box, step)
    hits = assert_matches_oracle(sc.profile, axis, step / 2)
    assert hits
    assert_matches_oracle(sc.profile, axis, EPS_EQ)


@pytest.mark.parametrize("seed", range(6))
def test_random_assignment_markets_match_scalar_oracle(seed):
    rng = random.Random(seed)
    sellers, buyers = rng.choice([(2, 2), (2, 3), (3, 2)])
    values = {(i, j): rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
              for i in range(sellers) for j in range(buyers)
              if rng.random() < 0.85}
    costs = {i: rng.choice([0.0, 0.5]) for i in range(sellers)}
    u = assignment_market(sellers, buyers, values, costs)
    axis = grid((0.0, 3.0), 0.5 if u.network.n <= 4 else 1.0)
    assert_matches_oracle(u, axis, EPS_EQ)
    assert_matches_oracle(u, axis, 0.25)


def test_firm_reading_a_price_outside_its_trades():
    net = build_network([("a", "s", "b"), ("c", "s2", "b2")])
    u = UtilityProfile(net, {
        "s": table(net, "s", {(): "0", ("a",): "p[a] - 1"}),
        "s2": table(net, "s2", {(): "0", ("c",): "p[c] - 0.5"}),
        "b": table(net, "b", {(): "0", ("a",): "3 - p[a] - p[c]"}),
        "b2": table(net, "b2", {(): "0", ("c",): "2 - p[c]"}),
    })
    assert u.firms["b"].price_axes == (0, 1)
    assert u.firms["s"].price_axes == (0,)
    axis = grid((0.0, 3.0), 0.25)
    hits = assert_matches_oracle(u, axis, EPS_EQ)
    # b buys a iff p[a] + p[c] <= 3, so the hits are not a product set
    assert (2.0, 1.0) in hits and (1.0, 1.5) in hits
    assert (2.0, 1.5) not in hits


def test_constant_only_table():
    net = build_network([("a", "s", "b")])
    u = UtilityProfile(net, {
        "s": table(net, "s", {(): "0", ("a",): "1"}),
        "b": table(net, "b", {(): "0", ("a",): "2 - p[a]"}),
    })
    assert u.firms["s"].price_axes == ()
    hits = assert_matches_oracle(u, grid((0.0, 3.0), 0.25), EPS_EQ)
    # s always sells (a constant 1 beats 0), b buys while p[a] <= 2
    assert hits == [(p,) for p in grid((0.0, 2.0), 0.25).tolist()]


def test_vectorized_nan_raises(monkeypatch):
    net = build_network([("x", "s", "b")])
    u = UtilityProfile(net, {
        "s": table(net, "s", {(): "0", ("x",): "p[x]"}),
        "b": table(net, "b", {(): "0", ("x",): "sqrt(p[x] - 1)"}),
    })
    cp = _CompiledProfile(u)
    # sqrt is undefined below 1: the scan raises the kernel's error and
    # names the first grid point outside the domain
    for batch in (1, 3, 64):
        monkeypatch.setattr(equilibrium, "BATCH", batch)
        with pytest.raises(NonFiniteUtility, match=r"prices \(0\.0,\)"):
            scan_points(cp, grid((0.0, 3.0), 0.5), 0.25)
    with pytest.raises(NonFiniteUtility):
        surplus(u, PriceVector(net, (0.5,)))
    with pytest.raises(NonFiniteUtility):
        cp.evaluate([[0.5]], EPS_EQ)
    # inside the domain it still decides as the definition does
    axis = grid((1.0, 3.0), 0.5)
    expected = oracle_hits(u, axis, 0.25 + 1e-15)
    monkeypatch.setattr(equilibrium, "BATCH", 3)
    assert scan_points(cp, axis, 0.25) == expected
    assert expected


def spy_narrow(monkeypatch):
    """Record the level count per axis that each narrowing keeps."""
    kept = []
    narrow = equilibrium._narrow

    def spy(tables, axes, axis):
        values = narrow(tables, axes, axis)
        kept.append(None if values is None else [len(v) for v in values])
        return values

    monkeypatch.setattr(equilibrium, "_narrow", spy)
    return kept


def test_non_finite_utility_raises_where_the_scan_narrows(monkeypatch):
    net = build_network([("x", "s", "b"), ("y", "s2", "b2")])

    def market():
        return UtilityProfile(net, {
            "s": table(net, "s", {(): "0", ("x",): "p[x] - 0.5"}),
            "b": table(net, "b", {(): "0", ("x",): "2 - p[x]"}),
            "s2": table(net, "s2", {(): "0", ("y",): "p[y]"}),
            # undefined above p[y] = 2
            "b2": table(net, "b2", {(): "0", ("y",): "sqrt(2 - p[y])"}),
        })

    kept = spy_narrow(monkeypatch)
    # 49 points, sub-grids of 7: at a block size of 7 the scan narrows
    monkeypatch.setattr(equilibrium, "BATCH", 7)
    inside = grid((-1.0, 2.0), 0.5)
    hits = scan_points(_CompiledProfile(market()), inside, 0.25)
    assert hits == oracle_hits(market(), inside, 0.25 + 1e-15)
    assert kept and kept[-1] is not None and sum(kept[-1]) < 2 * len(inside)
    # the first grid point outside the domain in row-major order is named,
    # narrowing or not
    for batch in (7, 1, 3, 1 << 17):
        monkeypatch.setattr(equilibrium, "BATCH", batch)
        with pytest.raises(NonFiniteUtility, match=r"prices \(0\.0, 2\.5\)"):
            scan_points(_CompiledProfile(market()), grid((0.0, 3.0), 0.5), 0.25)


def planted_market(seed):
    """A 2x3 market on 11^6 grid points or a 3x2 market less one pair on
    18^5, with unit-supply sellers at random costs and unit-demand linear
    buyers, planted so that one grid point is a strict equilibrium with
    random margins below half a step.  Returns the market, the grid axis,
    its step and the planted point."""
    rng = random.Random(f"planted:{seed}")
    sellers, buyers, missing, box, step = (
        (2, 3, None, (-0.5, 4.5), 0.5), (3, 2, (2, 1), (-0.5, 3.75), 0.25))[seed % 2]
    axis = grid(box, step)
    pairs = [(s, b) for s in range(sellers) for b in range(buyers) if (s, b) != missing]
    while True:
        match = list(zip(rng.sample(range(sellers), sellers),
                         rng.sample(range(buyers), buyers)))
        if all(m in pairs for m in match):
            break
    mid = [v for v in axis.tolist() if 1.0 <= v <= 2.5]

    def margin():
        return round(rng.uniform(0.05, 0.45 * step), 4)

    price, costs, values = {}, {}, {}
    partner = dict(match)
    for s in range(sellers):
        top = rng.choice(mid)
        for p in pairs:
            if p[0] == s:
                # a matched seller strictly prefers its trade to the others
                price[p] = top if partner.get(s) == p[1] else round(top - step, 12)
        costs[s] = round(top - margin() if s in partner else top + margin(), 4)
    buyer_of = {b: s for s, b in match}
    for b in range(buyers):
        best = margin() if b in buyer_of else 0.0
        for p in pairs:
            if p[1] == b:
                target = best if buyer_of.get(b) == p[0] else best - margin()
                values[p] = round(target + price[p], 4)
    return (assignment_market(sellers, buyers, values, costs), axis, step,
            tuple(price[p] for p in pairs))


@pytest.mark.parametrize("seed", range(4))
def test_narrowed_scan_matches_the_dense_scan_on_planted_markets(seed, monkeypatch):
    kept = spy_narrow(monkeypatch)
    u, axis, step, planted = planted_market(seed)
    n, levels = u.network.n, len(axis)
    assert n in (5, 6) and levels ** n > equilibrium.BATCH
    for trigger in (EPS_EQ, step / 2):
        hits = scan_points(_CompiledProfile(planted_market(seed)[0]), axis, trigger)
        # narrowing ran and dropped levels
        assert kept[-1] is not None and sum(kept[-1]) < n * levels
        # the dense scan: every point in one block, no narrowing
        with monkeypatch.context() as mp:
            mp.setattr(equilibrium, "BATCH", levels ** n)
            count = len(kept)
            assert scan_points(_CompiledProfile(u), axis, trigger) == hits
            assert len(kept) == count
        assert planted in hits
    assert len(kept) == 2


def test_find_equilibria_is_independent_of_batch(monkeypatch):
    sc = load_scenario(os.path.join(SCENARIOS, "three-supplier.json"))
    base = find_equilibria(sc.profile, sc.analysis.box, sc.analysis.step)
    levels = len(grid(sc.analysis.box, sc.analysis.step))
    for batch in (1, 7, levels ** 2 + 1):
        monkeypatch.setattr(equilibrium, "BATCH", batch)
        assert find_equilibria(sc.profile, sc.analysis.box, sc.analysis.step) == base


# -- global-set chunks ----------------------------------------------------------

def matrix_market(values, costs):
    return assignment_market(len(values), len(values[0]), {
        (i, j): v for i, row in enumerate(values) for j, v in enumerate(row)}, costs)


# a 3x4 assignment market has 73 feasible global sets: a chunk of 64 and one
# of 9.  Per market: are there hits that pass only in global sets of the
# first chunk, and hits that pass only in sets of the second?
TWO_CHUNKS = {
    "second-chunk": ([[2.5, 2.0, 1.5, 1.5], [1.5, 1.0, 2.5, 1.5], [0.5, 0.5, 1.0, 2.0]],
                     {0: 0.5, 1: 0.5, 2: 0.5}, (False, True)),
    "both-chunks": ([[1.5, 0.5, 0.5, 1.5], [0.5, 0.5, 2.5, 1.0], [1.0, 1.5, 2.0, 1.5]],
                    {0: 0.5, 1: 0.0, 2: 0.5}, (True, True)),
}


@pytest.mark.parametrize("values,costs,decided", TWO_CHUNKS.values(), ids=TWO_CHUNKS)
def test_global_sets_across_the_chunk_boundary(values, costs, decided):
    u = matrix_market(values, costs)
    cp = _CompiledProfile(u)
    assert len(cp.feasible_globals) == 73
    assert [bits[0].dtype for bits in cp.share_bits] == [np.uint64, np.uint16]
    axis = np.array([1.0, 2.0])
    only_first = only_second = False
    for trigger in (EPS_EQ, 0.5):
        hits = assert_matches_oracle(u, axis, trigger)
        _z, fit, _best = cp.evaluate(hits, trigger + 1e-15)
        first, second = fit[:, :64].any(1), fit[:, 64:].any(1)
        only_first |= bool((first & ~second).any())
        only_second |= bool((second & ~first).any())
    assert (only_first, only_second) == decided


def test_global_sets_in_one_uint8_chunk():
    # one seller, seven buyers: no sale or one of seven, 8 global sets
    u = matrix_market([[1.0 + 0.25 * j for j in range(7)]], {0: 0.5})
    cp = _CompiledProfile(u)
    assert len(cp.feasible_globals) == 8
    assert [bits[0].dtype for bits in cp.share_bits] == [np.uint8]
    axis = grid((1.5, 2.5), 0.5)
    assert assert_matches_oracle(u, axis, EPS_EQ)
    assert assert_matches_oracle(u, axis, 0.25)


# -- grid guard ----------------------------------------------------------------

def four_by_four():
    return assignment_market(4, 4, {(i, j): 1.0 + i + 0.5 * j
                                    for i in range(4) for j in range(4)})


def test_grid_guard_raises_before_scanning():
    u = four_by_four()
    start = time.perf_counter()
    with pytest.raises(GridTooLarge) as err:
        find_equilibria(u, (0.0, 4.0), 0.25)
    assert time.perf_counter() - start < 1.0
    assert err.value.points == 17 ** 16 > MAX_GRID_POINTS


def test_grid_guard_in_cli(tmp_path, capsys):
    raw = {"version": 1, "kind": "network",
           "trades": [{"id": f"t{i}{j}", "seller": f"s{i}", "buyer": f"b{j}"}
                      for i in range(4) for j in range(4)],
           "utilities": {}, "analysis": {"box": [0, 4], "step": 0.25}}
    for i in range(4):
        raw["utilities"][f"s{i}"] = [{"bundle": [], "expr": "0"}] + [
            {"bundle": [f"t{i}{j}"], "expr": f"p[t{i}{j}]"} for j in range(4)]
    for j in range(4):
        raw["utilities"][f"b{j}"] = [{"bundle": [], "expr": "0"}] + [
            {"bundle": [f"t{i}{j}"], "expr": f"{1.0 + i + 0.5 * j} - p[t{i}{j}]"}
            for i in range(4)]
    path = tmp_path / "four-by-four.json"
    path.write_text(json.dumps(raw))
    start = time.perf_counter()
    code = main(["solve", str(path)])
    err = capsys.readouterr().err
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error:") and "grid points" in err
    assert "Traceback" not in err


# -- typed errors in place of asserts -------------------------------------------

def test_utility_of_bundle_outside_table_is_typed():
    net = build_network([("a", "s", "b")])
    fu = make_quasilinear("b", net, {0: 0.0})
    p = PriceVector(net, (1.0,))
    assert _utility_of(fu, 0, p) == 0.0
    with pytest.raises(InfeasibleAllocation):
        _utility_of(fu, net.mask_of(["a"]), p)


def test_non_finite_scalar_utility_is_typed():
    net = build_network([("a", "s", "b")])
    u = UtilityProfile(net, {
        "s": table(net, "s", {(): "0", ("a",): "p[a]"}),
        "b": table(net, "b", {(): "10^300 * 10^300 - p[a]", ("a",): "1 - p[a]"}),
    })
    with pytest.raises(NonFiniteUtility):
        surplus(u, PriceVector(net, (0.5,)))
