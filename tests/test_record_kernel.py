"""Oracle tests for the batched record kernel (``_CompiledProfile.evaluate``)
and for the verifiers and CLI paths built on it.

The kernel must give, row by row, the surplus by definition (read through
the expression interpreter), the supports that the per-firm demand sets
admit, and the indirect utilities, whatever the block size.  The descent
of ``find_equilibria``, one kernel call per round for all its starts, must
give the bits of a descent run one start and one trial at a time, and its
deduplication the greedy loop's rows.  The extremal ranking and the
``lattice`` command must agree with their per-record and per-pair forms,
the array-backed ``EquilibriumSet`` and the mechanism with the list of
records they replace, and the profiles' cached tables and scan codes with
fresh compilation; the scan codes are reused where the levels and the
threshold repeat, and are freed with their profile.
"""

import csv
import dataclasses
import gc
import itertools
import json
import os
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from netclear import cli, equilibrium, expr as ex, mechanisms
from netclear.cli import load_scenario, main
from netclear.demand import EPS_TIE, demand_set, indirect_utility
from netclear.equilibrium import (
    DESCENT_STOP,
    DESCENT_SWEEPS,
    EPS_EQ,
    EquilibriumRecord,
    EquilibriumSet,
    ExtremalReport,
    _compiled,
    _coordinate_descent,
    _CompiledProfile,
    _joint_sets,
    extremal_equilibria,
    find_equilibria,
    is_equilibrium,
    lattice_pairs,
    rural_pairs,
    verify_lattice_pair,
    verify_rural_hospitals_pair,
)
from netclear.errors import NonFiniteUtility, NotAnEquilibriumInput
from netclear.instances import assignment_market, star_market
from netclear.mechanisms import SearchConfig, buyer_optimal_mechanism
from netclear.model import (
    PriceVector,
    build_network,
    join_meet,
    net_index,
    terminal_roles,
)
from netclear.utility import (
    FirmUtility,
    UtilityProfile,
    make_quasilinear,
)
from misreports import truncate_at_outside
from test_rows import z_by_definition
from test_scan_kernel import scan_points

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SUPPORT_TIE = max(EPS_TIE, 10 * EPS_EQ)


def grid(box, step):
    lo, hi = box
    return np.round(np.arange(lo, hi + step / 2, step), 12)


def table(network, firm, entries):
    return FirmUtility(firm, network, {
        network.mask_of(bundle): ex.parse_expr(text)
        for bundle, text in entries.items()})


def random_market(seed):
    rng = random.Random(seed)
    sellers, buyers = rng.choice([(2, 2), (2, 3), (3, 2)])
    values = {(i, j): rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
              for i in range(sellers) for j in range(buyers)
              if rng.random() < 0.85}
    costs = {i: rng.choice([0.0, 0.5]) for i in range(sellers)}
    return assignment_market(sellers, buyers, values, costs)


def cross_price_market():
    net = build_network([("a", "s", "b"), ("c", "s2", "b2")])
    return UtilityProfile(net, {
        "s": table(net, "s", {(): "0", ("a",): "p[a] - 1"}),
        "s2": table(net, "s2", {(): "0", ("c",): "p[c] - 0.5"}),
        "b": table(net, "b", {(): "0", ("a",): "3 - p[a] - p[c]"}),
        "b2": table(net, "b2", {(): "0", ("c",): "2 - p[c]"}),
    })


def constant_market():
    net = build_network([("a", "s", "b")])
    return UtilityProfile(net, {
        "s": table(net, "s", {(): "0", ("a",): "1"}),
        "b": table(net, "b", {(): "0", ("a",): "2 - p[a]"}),
    })


def exp_buyer_market():
    net = build_network([("a", "s", "b"), ("c", "s", "b2")])
    return UtilityProfile(net, {
        "s": table(net, "s", {(): "0", ("a",): "p[a]", ("c",): "p[c]",
                              ("a", "c"): "p[a] + p[c] - 0.5"}),
        "b": table(net, "b", {(): "1", ("a",): "exp(1 - p[a]) + 0.5"}),
        "b2": table(net, "b2", {(): "0", ("c",): "2 - p[c]"}),
    })


def profiles():
    """(name, profile, box, step) for every case the kernel is checked on."""
    out = []
    for name in sorted(os.listdir(SCENARIOS)):
        sc = load_scenario(os.path.join(SCENARIOS, name))
        step = sc.analysis.step if sc.network.n <= 3 else 2 * sc.analysis.step
        out.append((name, sc.profile, sc.analysis.box, step))
    for seed in range(6):
        u = random_market(seed)
        out.append((f"assignment-{seed}", u, (0.0, 3.0),
                    0.5 if u.network.n <= 4 else 1.0))
    out.append(("cross-price", cross_price_market(), (0.0, 3.0), 0.25))
    out.append(("constant", constant_market(), (0.0, 3.0), 0.25))
    out.append(("exp-buyer", exp_buyer_market(), (-1.0, 3.0), 0.25))
    return out


PROFILES = profiles()


def sample_points(u, box, step, seed):
    """Seeded uniform points in the box plus every scan candidate."""
    cp = _CompiledProfile(u)
    rng = np.random.default_rng(seed)
    lo, hi = box
    uniform = rng.uniform(lo, hi, size=(40, u.network.n))
    hits = scan_points(cp, grid(box, step), step / 2)
    assert hits
    return np.vstack([uniform, np.array(hits, dtype=float)])


def kernel_supports(cp, fit):
    return [tuple(g for g, ok in zip(cp.feasible_globals, row) if ok) for row in fit]


def _compatible_supports(network, per_firm):
    """Global bundles whose restriction to each firm lies in that firm's set."""
    return _joint_sets([(network.omega_mask(f), per_firm[f]) for f in sorted(per_firm)])


def scalar_supports(u, values, tie):
    p = PriceVector(u.network, values)
    return tuple(_compatible_supports(u.network, {
        f: demand_set(u.firms[f], p, tie).bundles for f in sorted(u.firms)}))


@pytest.mark.parametrize("name,u,box,step", PROFILES,
                         ids=[case[0] for case in PROFILES])
def test_kernel_matches_scalar_oracle(name, u, box, step):
    cp = _CompiledProfile(u)
    points = sample_points(u, box, step, seed=len(name))
    z, fit, best = cp.evaluate(points, SUPPORT_TIE)
    supports = kernel_supports(cp, fit)
    assert len(z) == len(supports) == len(best) == len(points)
    want = z_by_definition(u)
    for row, values in enumerate(map(tuple, points.tolist())):
        assert z[row] == pytest.approx(want(values), abs=1e-12)
        assert supports[row] == scalar_supports(u, values, SUPPORT_TIE)
        p = PriceVector(u.network, values)
        for k, f in enumerate(cp.firms):
            assert best[row, k] == pytest.approx(
                indirect_utility(u.firms[f], p), abs=1e-12)
    assert any(supports)
    # other ties; at 0.5, grid-aligned values land exactly on the boundary
    for tie in (EPS_TIE, 0.5):
        other = kernel_supports(cp, cp.evaluate(points, tie)[1])
        for row, values in enumerate(map(tuple, points.tolist())):
            assert other[row] == scalar_supports(u, values, tie), tie


@pytest.mark.parametrize("name,u,box,step", PROFILES,
                         ids=[case[0] for case in PROFILES])
def test_kernel_is_independent_of_block_size(name, u, box, step, monkeypatch):
    cp = _CompiledProfile(u)
    points = sample_points(u, box, step, seed=1)
    globals_ = len(cp.feasible_globals)
    z, fit, best = cp.evaluate(points, SUPPORT_TIE)
    for batch in (1, 3, globals_, 3 * globals_ + 1):
        monkeypatch.setattr(equilibrium, "BATCH", batch)
        zb, fb, bb = cp.evaluate(points, SUPPORT_TIE)
        assert np.array_equal(zb, z) and np.array_equal(fb, fit), batch
        assert np.array_equal(bb, best), batch


def test_kernel_on_no_points():
    cp = _CompiledProfile(star_market())
    z, fit, best = cp.evaluate([], SUPPORT_TIE)
    assert z.shape == (0,) and fit.shape == (0, len(cp.feasible_globals))
    assert best.shape == (0, len(cp.firms))


def test_overflowing_row_raises(monkeypatch):
    net = build_network([("a", "s", "b")])
    u = UtilityProfile(net, {
        "s": table(net, "s", {(): "0", ("a",): "p[a]"}),
        "b": table(net, "b", {(): "0", ("a",): "exp(p[a]) - p[a]"}),
    })
    cp = _CompiledProfile(u)
    z, _fit, _best = cp.evaluate([[0.5], [2.0]], SUPPORT_TIE)
    assert len(z) == 2
    for batch in (1, 1 << 17):
        monkeypatch.setattr(equilibrium, "BATCH", batch)
        with pytest.raises(NonFiniteUtility):
            cp.evaluate([[0.5], [1000.0], [2.0]], SUPPORT_TIE)
    with pytest.raises(NonFiniteUtility):
        is_equilibrium(u, PriceVector(net, (1000.0,)))


def test_is_equilibrium_is_a_batch_of_one():
    u = star_market()
    cp = _CompiledProfile(u)
    for values in [(1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 2.0, 2.0),
                   (1.0, 1.0, 2.0, 2.0), (0.5, 0.25, 1.5, 1.75)]:
        p = PriceVector(u.network, values)
        rec = is_equilibrium(u, p, eps_tie=SUPPORT_TIE)
        supports = scalar_supports(u, values, SUPPORT_TIE)
        if not supports:
            assert rec is None
            continue
        assert rec.prices is p and rec.supports == supports
        assert rec.surplus == pytest.approx(z_by_definition(u)(values), abs=1e-12)


def one_trade_market(price):
    net = build_network([("a", "s", "b")])
    return UtilityProfile(net, {
        "s": table(net, "s", {(): "0", ("a",): f"p[a] - {price}"}),
        "b": table(net, "b", {(): "0", ("a",): f"{price} - p[a]"}),
    })


def test_is_equilibrium_accepts_every_found_record():
    # descent stops at Z = 5.96e-9 beside the equilibrium at 1.1: the record
    # keeps both bundles, and is_equilibrium must tie them at the same rule
    u = one_trade_market(1.1)
    (rec,) = find_equilibria(u, (0.0, 2.0), 0.25)
    assert 0 < rec.surplus <= EPS_EQ and rec.supports == (0, 1)
    cases = [(u, EPS_EQ, EPS_TIE, [rec])]
    for name in sorted(os.listdir(SCENARIOS)):
        sc = load_scenario(os.path.join(SCENARIOS, name))
        a = sc.analysis
        cases.append((sc.profile, a.eps_eq, a.eps_tie,
                      find_equilibria(sc.profile, a.box, a.step,
                                      eps_eq=a.eps_eq, eps_tie=a.eps_tie)))
    for u, eps_eq, eps_tie, records in cases:
        assert records
        for rec in records:
            again = is_equilibrium(u, rec.prices, eps_eq, eps_tie)
            assert again is not None and again.supports == rec.supports


def test_compiled_caches_follow_the_profile_object():
    u = star_market()
    cp = _compiled(u)
    assert _compiled(u) is cp
    # an equal but distinct profile object gets caches of its own
    twin = u.replace()
    assert twin == u and _compiled(twin) is not cp
    # kept on the profile, without a cycle back to it: both go by refcount
    assert u._compiled is cp
    gc.disable()
    try:
        ref = weakref.ref(cp)
        del u, twin, cp
        assert ref() is None
    finally:
        gc.enable()


# -- extremal ranking -----------------------------------------------------------

def extremal_oracle(u, found):
    """The per-record form: scalar indirect utilities and an O(R^2 n)
    coordinatewise scan."""
    roles = terminal_roles(u.network)
    sellers = [f for f, r in roles.items() if r == "terminal-seller"]
    buyers = [f for f, r in roles.items() if r == "terminal-buyer"]

    def dominant(group):
        per_record = [(rec, tuple(indirect_utility(u.firms[f], rec.prices)
                                  for f in group))
                      for rec in sorted(found, key=lambda r: r.prices.values)]
        ceilings = [max(vals[i] for _, vals in per_record)
                    for i in range(len(group))]
        for rec, vals in per_record:
            if all(v >= c - 1e-9 for v, c in zip(vals, ceilings)):
                return rec
        return None

    seller_opt, buyer_opt = dominant(sellers), dominant(buyers)
    prices = [rec.prices.values for rec in found]
    cmax = any(all(all(a >= b - 1e-12 for a, b in zip(p, q)) for q in prices)
               for p in prices)
    cmin = any(all(all(a <= b + 1e-12 for a, b in zip(p, q)) for q in prices)
               for p in prices)
    return ExtremalReport(seller_opt, buyer_opt, seller_opt is not None,
                          buyer_opt is not None, cmax, cmin)


def assert_same_report(u, found):
    got, want = extremal_equilibria(u, found), extremal_oracle(u, found)
    assert got == want
    assert got.seller_optimal is want.seller_optimal
    assert got.buyer_optimal is want.buyer_optimal


@pytest.mark.parametrize("seed", range(4))
def test_extremal_matches_oracle_on_tied_record_sets(seed):
    rng = random.Random(seed)
    sellers, buyers = rng.choice([(2, 2), (2, 3), (3, 2)])
    # few distinct integer values: tied utilities across many records
    u = assignment_market(sellers, buyers,
                          {(i, j): rng.choice([1.0, 2.0, 3.0])
                           for i in range(sellers) for j in range(buyers)})
    records = find_equilibria(u, (0.0, 3.0), 0.5, refine=False)
    assert len(records) > 3
    assert_same_report(u, records)
    for _ in range(5):
        subset = rng.sample(records, rng.randint(1, len(records)))
        # an equal copy: the stable price-order tie-break keeps whichever
        # of the two comes first
        subset.append(dataclasses.replace(subset[0]))
        rng.shuffle(subset)
        assert_same_report(u, subset)


def test_extremal_matches_oracle_on_bundled_scenarios():
    for name in ("star.json", "three-supplier.json", "kinked-pair.json"):
        sc = load_scenario(os.path.join(SCENARIOS, name))
        records = find_equilibria(sc.profile, sc.analysis.box, sc.analysis.step)
        assert_same_report(sc.profile, records)


def test_extremal_single_record():
    u = star_market()
    rec = is_equilibrium(u, PriceVector(u.network, (1.0, 1.0, 1.0, 1.0)))
    assert_same_report(u, [rec])
    report = extremal_equilibria(u, [rec])
    assert report.seller_optimal is rec and report.buyer_optimal is rec
    assert report.coordinatewise_max and report.coordinatewise_min


def test_extremal_with_empty_seller_group():
    # two firms trading in a cycle: each both buys and sells, so neither
    # is a terminal seller (or buyer)
    net = build_network([("x", "A", "B"), ("y", "B", "A")])
    both = net.mask_of(["x", "y"])
    u = UtilityProfile(net, {
        "A": make_quasilinear("A", net, {0: 0.0, both: 1.0}),
        "B": make_quasilinear("B", net, {0: 0.0, both: 1.0}),
    })
    assert set(terminal_roles(net).values()) == {"intermediate"}
    records = find_equilibria(u, (0.0, 2.0), 0.5, refine=False)
    assert len(records) > 1
    assert_same_report(u, records)
    report = extremal_equilibria(u, records)
    first = min(records, key=lambda r: r.prices.values)
    assert report.seller_optimal is first and report.buyer_optimal is first


# -- CLI: lattice and solve --csv ------------------------------------------------

def tied_scenario(tmp_path):
    raw = {"version": 1, "kind": "network",
           "trades": [{"id": f"t{s}{b}", "seller": f"s{s}", "buyer": f"b{b}"}
                      for s in range(2) for b in range(2)],
           "utilities": {}, "analysis": {"box": [0, 3], "step": 0.5}}
    for s in range(2):
        raw["utilities"][f"s{s}"] = [{"bundle": [], "expr": "0"}] + [
            {"bundle": [f"t{s}{b}"], "expr": f"p[t{s}{b}]"} for b in range(2)]
    for b in range(2):
        raw["utilities"][f"b{b}"] = [{"bundle": [], "expr": "0"}] + [
            {"bundle": [f"t{s}{b}"], "expr": f"2 - p[t{s}{b}]"} for s in range(2)]
    path = tmp_path / "tied-2x2.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("scenario", ["star", "kinked-pair", "tied"])
def test_lattice_report_matches_per_pair_loop(scenario, tmp_path, capsys):
    path = (tied_scenario(tmp_path) if scenario == "tied"
            else os.path.join(SCENARIOS, f"{scenario}.json"))
    out = tmp_path / "out"
    code = main(["lattice", path, "--out", str(out)])
    capsys.readouterr()
    stem = os.path.splitext(os.path.basename(path))[0]
    with open(out / f"{stem}-lattice.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    sc = load_scenario(path)
    records = find_equilibria(sc.profile, sc.analysis.box, sc.analysis.step,
                              eps_eq=sc.analysis.eps_eq,
                              eps_tie=sc.analysis.eps_tie)
    expected = []
    for e, e2 in itertools.combinations(records, 2):
        rep = verify_lattice_pair(sc.profile, e, e2, sc.analysis.eps_eq,
                                  sc.analysis.eps_tie)
        expected.append({
            "p": list(e.prices.values), "p2": list(e2.prices.values),
            "join": list(rep.join_prices), "meet": list(rep.meet_prices),
            "join_equilibrium": rep.join_record is not None,
            "meet_equilibrium": rep.meet_record is not None})
    assert len(records) > 1
    assert payload == {"pairs": expected}
    failing = sum(1 for entry in expected
                  if not (entry["join_equilibrium"] and entry["meet_equilibrium"]))
    assert code == (0 if failing == 0 else 2)


def lattice_text(sc, records):
    """The lattice report as the per-pair loop wrote it: one f-string with
    two fresh lists per failing pair."""
    lines = []
    for e, e2, join, meet, join_eq, meet_eq in lattice_pairs(
            sc.profile, records, sc.analysis.eps_eq, sc.analysis.eps_tie):
        if not (join_eq and meet_eq):
            lines.append(f"lattice failure: join {list(join)} equilibrium: "
                         f"{join_eq}, meet {list(meet)} equilibrium: {meet_eq}")
    return (f"lattice check over {len(records)} equilibria: "
            f"{len(lines)} failing pair(s)\n" + "\n".join(lines) + "\n")


def first_difference(got: str, want: str):
    """None for equal texts, else the first line where they differ: a
    report this long is too slow for pytest's own diff."""
    lines = itertools.zip_longest(got.split("\n"), want.split("\n"))
    return next(((k, a, b) for k, (a, b) in enumerate(lines) if a != b), None)


BUNDLED = sorted(name[:-5] for name in os.listdir(SCENARIOS) if name.endswith(".json"))


@pytest.mark.parametrize("scenario", BUNDLED + ["tied-edge-floats"])
def test_lattice_text_matches_per_pair_formatting(scenario, tmp_path, capsys, monkeypatch):
    if scenario == "tied-edge-floats":
        path = tied_scenario(tmp_path)
        sc = load_scenario(path)
        base = find_equilibria(sc.profile, sc.analysis.box, sc.analysis.step)[0]
        levels = (-0.0, 0.0, 1e-05, 1e16, 1.0)
        records = [dataclasses.replace(base, prices=PriceVector(sc.network, values))
                   for values in list(itertools.product(levels, repeat=4))[::37]]
        monkeypatch.setattr(cli, "_solve", lambda sc, args: records)
    else:
        path = os.path.join(SCENARIOS, f"{scenario}.json")
        sc = load_scenario(path)
        records = find_equilibria(sc.profile, sc.analysis.box, sc.analysis.step,
                                  eps_eq=sc.analysis.eps_eq, eps_tie=sc.analysis.eps_tie)
    out = tmp_path / "out"
    code = main(["lattice", path, "--out", str(out)])
    want = lattice_text(sc, records)
    assert first_difference(capsys.readouterr().out, want) is None
    stem = os.path.splitext(os.path.basename(path))[0]
    assert first_difference((out / f"{stem}-lattice.txt").read_text(encoding="utf-8"),
                            want) is None
    assert code == (2 if "lattice failure" in want else 0)
    if scenario == "tied-edge-floats":
        assert all(text in want for text in ("-0.0", " 0.0", "1e-05", "1e+16"))


def test_lattice_pairs_carry_their_records():
    sc = load_scenario(os.path.join(SCENARIOS, "star.json"))
    u = sc.profile
    records = find_equilibria(u, sc.analysis.box, sc.analysis.step)
    pairs = lattice_pairs(u, records)
    assert len(pairs) == len(records) * (len(records) - 1) // 2 > 0
    for (e, e2), got in zip(itertools.combinations(records, 2), pairs):
        assert got[0] is e and got[1] is e2
        rep = verify_lattice_pair(u, e, e2)
        assert got[2:] == (rep.join_prices, rep.meet_prices,
                           rep.join_record is not None,
                           rep.meet_record is not None)
        for prices, rec in ((rep.join_prices, rep.join_record),
                            (rep.meet_prices, rep.meet_record)):
            assert rec == is_equilibrium(u, PriceVector(u.network, prices),
                                         eps_tie=SUPPORT_TIE)


def test_lattice_pairs_keep_each_float_and_share_points():
    u = star_market()
    base = is_equilibrium(u, PriceVector(u.network, (1.0, 1.0, 1.0, 1.0)))
    records = [dataclasses.replace(base, prices=PriceVector(u.network, values))
               for values in ((0.0, 1.0, -0.0, 2.0), (-0.0, 1.0, 0.0, 1.0),
                              (0.0, 0.5, -0.0, 2.0), (-0.0, 0.5, 0.0, 1.0))]
    pairs = lattice_pairs(u, records)
    points = {}
    for (e, e2), got in zip(itertools.combinations(records, 2), pairs):
        for want, point in zip(join_meet(e.prices.values, e2.prices.values), got[2:4]):
            # Python's max and min, sign of zero included
            assert list(map(repr, point)) == list(map(repr, want))
            # one tuple per distinct bit pattern
            assert points.setdefault(tuple(map(repr, point)), point) is point
    # 0.0 and -0.0 stay apart, though their tuples compare equal
    assert len(points) > len(set(points.values()))
    # the one-pair check takes join and meet by the same rule
    for (e, e2), got in zip(itertools.combinations(records, 2), pairs):
        rep = verify_lattice_pair(u, e, e2)
        assert [list(map(repr, point)) for point in (rep.join_prices, rep.meet_prices)] \
            == [list(map(repr, point)) for point in got[2:4]]
        assert (rep.join_record is not None, rep.meet_record is not None) == got[4:]


def test_verify_lattice_pair_makes_one_kernel_call(monkeypatch):
    sc = load_scenario(os.path.join(SCENARIOS, "star.json"))
    records = find_equilibria(sc.profile, sc.analysis.box, sc.analysis.step)
    assert len(records) > 1
    calls = count_kernel_calls(monkeypatch)
    for e, e2 in itertools.combinations(records, 2):
        calls.clear()
        verify_lattice_pair(sc.profile, e, e2)
        # join and meet go through the kernel together
        assert calls == [2]


def test_pair_verifiers_on_no_trades():
    u = UtilityProfile(build_network([]), {})
    (rec,) = find_equilibria(u, (0.0, 1.0))
    assert lattice_pairs(u, [rec] * 3) == [(rec, rec, (), (), True, True)] * 3
    assert list(rural_pairs(u, [rec] * 3)) == [(rec, rec, ())] * 3


def test_verifiers_reject_the_same_inputs():
    u = star_market()
    good = is_equilibrium(u, PriceVector(u.network, (1.0, 1.0, 1.0, 1.0)))
    for bad in (dataclasses.replace(good, surplus=1e-5),
                dataclasses.replace(good, supports=())):
        with pytest.raises(NotAnEquilibriumInput):
            lattice_pairs(u, [good, bad])
        with pytest.raises(NotAnEquilibriumInput):
            verify_lattice_pair(u, good, bad)
        with pytest.raises(NotAnEquilibriumInput):
            verify_rural_hospitals_pair(u, bad, good)
    # 10 * EPS_EQ is still accepted
    edge = dataclasses.replace(good, surplus=10 * EPS_EQ)
    assert lattice_pairs(u, [good, edge])[0][4:] == (True, True)


def test_solve_csv_matches_scalar_surplus(tmp_path, capsys):
    path = os.path.join(SCENARIOS, "kinked-pair.json")
    assert main(["solve", path, "--csv", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "kinked-pair-solve.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    sc = load_scenario(path)
    assert rows[0] == ["trade:" + t.id for t in sc.network.trades] + ["Z"]
    points = list(itertools.product(grid(sc.analysis.box, sc.analysis.step).tolist(),
                                    repeat=sc.network.n))
    assert len(rows) == len(points) + 1
    want = z_by_definition(sc.profile)
    for row, point in zip(rows[1:], points):
        assert tuple(map(float, row[:-1])) == point
        assert float(row[-1]) == pytest.approx(want(point), abs=1e-12)


def test_solve_csv_streams_kernel_blocks(tmp_path, capsys):
    """solve --csv writes the grid one kernel block at a time: on star's
    17^4 = 83,521 points (four blocks) the traced peak stays under 16 MiB
    (29 MiB when every row was held before the file was written), and the
    rows keep row-major order and the whole-grid Z across the blocks."""
    path = os.path.join(SCENARIOS, "star.json")
    tracemalloc.start()
    try:
        assert main(["solve", path, "--csv", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    with open(tmp_path / "star-solve.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    sc = load_scenario(path)
    points = list(itertools.product(grid(sc.analysis.box, sc.analysis.step).tolist(),
                                    repeat=sc.network.n))
    assert [tuple(map(float, row[:-1])) for row in rows] == points
    z, _fit, _best = _compiled(sc.profile).evaluate(points, EPS_TIE)
    assert [float(row[-1]) for row in rows] == z.tolist()
    assert peak < 16 * 2 ** 20


# -- array-backed equilibrium sets and the mechanism on them ----------------------

def descent_one_start(cp, start, step):
    """Cyclic coordinate descent on Z from one start, each trial a kernel
    call of one point: up trial, then down trial, each taken when it lowers
    Z by more than 1e-15; the step halves after a sweep with no gain."""
    x = list(start)
    (z,), _fit, _best = cp.evaluate([x], SUPPORT_TIE)
    sweeps = 0
    while step >= DESCENT_STOP and z > EPS_EQ * 0.1 and sweeps < DESCENT_SWEEPS:
        improved = False
        for i in range(len(x)):
            for cand in (x[i] + step, x[i] - step):
                trial = list(x)
                trial[i] = cand
                (zt,), _fit, _best = cp.evaluate([trial], SUPPORT_TIE)
                if zt < z - 1e-15:
                    x, z, improved = trial, zt, True
        if not improved:
            step *= 0.5
        sweeps += 1
    return tuple(x), z


def near_kept(point, kept):
    """Whether point is within 1e-6 at infinity distance of a kept point."""
    return any(max(abs(a - b) for a, b in zip(point, q)) <= 1e-6 for q in kept)


def record_list(u, box, step, refine):
    """The list form of ``find_equilibria``: every kept point becomes a
    record at once, each through its own kernel call on an uncached
    compiled profile, and each start descends on its own."""
    cp = _CompiledProfile(u)
    records, kept = [], []
    for cand in scan_points(cp, grid(box, step), step / 2 if refine else EPS_EQ):
        point, (z,) = cand, cp.evaluate([cand], SUPPORT_TIE)[0]
        if z > EPS_EQ:
            if not refine:
                continue
            point, z = descent_one_start(cp, cand, step / 2)
            if z > EPS_EQ:
                continue
        if near_kept(point, kept):
            continue
        kept.append(point)
        (z,), (fit,), _ = cp.evaluate([point], SUPPORT_TIE)
        rec = cp.record(PriceVector(u.network, point), fit, z)
        if rec is not None:
            records.append(rec)
    return records


def tied_market(seed):
    rng = random.Random(seed)
    sellers, buyers = rng.choice([(2, 2), (2, 3), (3, 2)])
    return assignment_market(sellers, buyers,
                             {(i, j): rng.choice([1.0, 2.0, 3.0])
                              for i in range(sellers) for j in range(buyers)})


SET_CASES = PROFILES + [(f"tied-{seed}", tied_market(seed), (0.0, 3.0), 0.5)
                        for seed in range(3)]


@pytest.mark.parametrize("name,u,box,step", SET_CASES,
                         ids=[case[0] for case in SET_CASES])
def test_equilibrium_set_equals_record_list(name, u, box, step):
    for refine in (False, True):
        found = find_equilibria(u, box, step, refine=refine)
        want = record_list(u, box, step, refine)
        assert isinstance(found, EquilibriumSet) and len(found) == len(want)
        for i, rec in enumerate(want):
            assert found[i] == rec and found[i] is found[i]
        assert found == want and list(found) == want
        # the arrays are the kernel's rows at the records' prices
        assert found.prices.tolist() == [list(rec.prices.values) for rec in want]
        z, fit, best = _CompiledProfile(u).evaluate(found.prices, SUPPORT_TIE)
        assert found.z.tolist() == z.tolist() and np.array_equal(found.fit, fit)
        assert np.array_equal(found.best, best)


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def net_vector(u, mask):
    return tuple(net_index(u.network, f, mask) for f in sorted(u.firms))


def unmatched_loop(u, e, e2):
    """Supports of e whose net-index vector no support of e2 has, from
    ``net_index`` directly."""
    other = {net_vector(u, m) for m in e2.supports}
    return tuple(m for m in e.supports if net_vector(u, m) not in other)


def rural_cases():
    out = []
    for name in sorted(os.listdir(SCENARIOS)):
        sc = load_scenario(os.path.join(SCENARIOS, name))
        step = 0.5 if name == "three-supplier.json" else sc.analysis.step
        out.append((name, sc.profile, sc.analysis.box, step))
    return out + [(f"tied-{seed}", tied_market(seed), (0.0, 3.0), 0.5)
                  for seed in range(4)]


RURAL_CASES = rural_cases()


def ridge_market():
    # the buyer wants the trade at |p[a] - 1.5| >= 0.25 and the seller at
    # p[a] >= 1, so Z peaks at 0.25 at the grid point 1.5 between two
    # equilibrium intervals: both trials of the start there lower Z to 0
    net = build_network([("a", "s", "b")])
    return UtilityProfile(net, {
        "s": table(net, "s", {(): "0", ("a",): "p[a] - 1"}),
        "b": table(net, "b", {(): "0", ("a",): "max(p[a] - 1.5, 1.5 - p[a]) - 0.25"}),
    })


def slope_market(order):
    """Trade a clears at 2.9 only, where ``Z = 6e-8 * |2.9 - p[a]|``, and trade
    b at any price in [0, 2]; ``order`` gives the trades' coordinate order.
    From the grid of step 0.5, each sweep's gain on a lowers Z by 1.5e-8,
    until Z falls to 9e-9 at 2.75, below eps_eq / 10 with the step still
    able to gain: after a, that is mid-sweep; after b, every gain is on a
    sweep's last coordinate, which keeps the step for the next sweep."""
    net = build_network([{"a": ("a", "sa", "ba"), "b": ("b", "sb", "bb")}[t] for t in order])
    return UtilityProfile(net, {
        "sa": table(net, "sa", {(): "0", ("a",): "p[a] - 2.9"}),
        "ba": table(net, "ba", {(): "0", ("a",): "0.00000006 * (2.9 - p[a])"}),
        "sb": table(net, "sb", {(): "0", ("b",): "p[b]"}),
        "bb": table(net, "bb", {(): "0", ("b",): "2 - p[b]"}),
    })


def climb_market():
    """One trade with ``Z = 0.001 * (100 - p[a])`` below 60: each sweep from a
    grid point of [0, 1] gains one step of 0.25, so every start runs all
    DESCENT_SWEEPS sweeps."""
    net = build_network([("a", "s", "b")])
    return UtilityProfile(net, {
        "s": table(net, "s", {(): "0", ("a",): "p[a] - 60"}),
        "b": table(net, "b", {(): "0", ("a",): "0.001 * (100 - p[a])"}),
    })


THREE_SUPPLIER = load_scenario(os.path.join(SCENARIOS, "three-supplier.json"))

# the rural cases hold the other bundled scenarios at their own step
DESCENT_CASES = [(f"profile-{case[0]}", *case[1:]) for case in PROFILES] + \
    [(f"rural-{case[0]}", *case[1:]) for case in RURAL_CASES] + \
    [("ridge", ridge_market(), (0.0, 3.0), 0.5),
     ("own-step-three-supplier.json", THREE_SUPPLIER.profile, THREE_SUPPLIER.analysis.box,
      THREE_SUPPLIER.analysis.step),
     ("mid-sweep", slope_market("ab"), (0.0, 2.0), 0.5),
     ("last-coordinate", slope_market("ba"), (0.0, 2.0), 0.5),
     ("sweeps", climb_market(), (0.0, 1.0), 0.5)]


@pytest.mark.parametrize("name,u,box,step", DESCENT_CASES,
                         ids=[case[0] for case in DESCENT_CASES])
def test_lockstep_descent_matches_one_start_at_a_time(name, u, box, step):
    # every start, kept or not, ends where it ends when it descends alone
    cp = _CompiledProfile(u)
    hits = scan_points(cp, grid(box, step), step / 2)
    z, _fit, _best = cp.evaluate(hits, SUPPORT_TIE)
    rows = [i for i, zi in enumerate(z) if zi > EPS_EQ]
    starts = np.array(hits, dtype=float).reshape(len(hits), u.network.n)[rows]
    ends, zr = _coordinate_descent(cp, starts, z[rows], step / 2, EPS_EQ)
    alone = [descent_one_start(cp, start, step / 2) for start in starts.tolist()]
    assert bits(ends) == bits([end for end, _z in alone])
    assert bits(zr) == bits([ze for _end, ze in alone])

    found = find_equilibria(u, box, step, refine=True)
    want = record_list(u, box, step, True)
    assert bits(found.prices) == bits([rec.prices.values for rec in want])
    assert bits(found.z) == bits([rec.surplus for rec in want])
    assert [found[i].supports for i in range(len(found))] == [rec.supports for rec in want]


def test_descent_cases_refine_off_the_grid():
    # the cases above hold refined points, not only grid hits
    refined = 0
    for _name, u, box, step in DESCENT_CASES:
        found = find_equilibria(u, box, step, refine=True)
        on_grid = np.isin(found.prices, grid(box, step)).all(1)
        refined += int((~on_grid).sum())
    assert refined >= 10


def descent_starts(u, box, step):
    """The compiled profile, and the scan hits that start a descent with their Z."""
    cp = _CompiledProfile(u)
    hits = np.array(scan_points(cp, grid(box, step), step / 2), dtype=float)
    z = cp.evaluate(hits, SUPPORT_TIE)[0]
    return cp, hits[z > EPS_EQ], z[z > EPS_EQ]


def test_descent_cases_bind_their_stop_rules():
    # every start climbs one step per sweep until DESCENT_SWEEPS stops it
    cp, starts, z = descent_starts(climb_market(), (0.0, 1.0), 0.5)
    ends, _zr = _coordinate_descent(cp, starts, z, 0.25, EPS_EQ)
    assert len(starts) == 3 and ends.tolist() == (starts + DESCENT_SWEEPS * 0.25).tolist()
    # Z falls below eps_eq / 10 and stops there, short of 0
    for order in ("ab", "ba"):
        cp, starts, z = descent_starts(slope_market(order), (0.0, 2.0), 0.5)
        _ends, zr = _coordinate_descent(cp, starts, z, 0.25, EPS_EQ)
        assert len(starts) == 15 and ((zr > 0) & (zr <= EPS_EQ * 0.1)).all()


@pytest.mark.parametrize("rows", [1, 4, 24, 60])
def test_descent_rounds_fit_one_kernel_block(rows, monkeypatch):
    # a round's trials fill at most one block of the record kernel, or one
    # position per running start; the ends stay those of one start at a time
    for u, box, step in ((load_scenario(os.path.join(SCENARIOS, "kinked-pair.json")).profile,
                          (0.0, 3.0), 0.25),
                         (slope_market("ba"), (0.0, 2.0), 0.5)):
        cp, starts, z = descent_starts(u, box, step)
        alone = [descent_one_start(cp, start, step / 2) for start in starts.tolist()]
        monkeypatch.setattr(equilibrium, "BATCH", rows * len(cp.feasible_globals))
        calls = count_kernel_calls(monkeypatch)
        ends, zr = _coordinate_descent(cp, starts, z, step / 2, EPS_EQ)
        monkeypatch.undo()
        assert bits(ends) == bits([end for end, _z in alone])
        assert bits(zr) == bits([ze for _end, ze in alone])
        assert calls and max(calls) <= max(rows, 2 * len(starts))


def test_descent_makes_one_kernel_call_per_round(monkeypatch):
    # one call per coordinate and sweep made 125, 100 and 88
    limits = {"star.json": 8, "triple-trade.json": 10, "kinked-pair.json": 24}
    calls = count_kernel_calls(monkeypatch)
    for name, limit in limits.items():
        sc = load_scenario(os.path.join(SCENARIOS, name))
        calls.clear()
        find_equilibria(sc.profile, sc.analysis.box, sc.analysis.step, refine=True)
        assert len(calls) <= limit, name


def domain_market(order, domain):
    """Trade a clears at 0.25 only and trade b at any price in [0, 2], in
    coordinate ``order``; a's seller adds ``0 * sqrt(domain)`` to its empty
    bundle, which leaves Z alone where domain >= 0 and is NaN elsewhere."""
    net = build_network([{"a": ("a", "sa", "ba"), "b": ("b", "sb", "bb")}[t] for t in order])
    return UtilityProfile(net, {
        "sa": table(net, "sa", {(): f"0 * sqrt({domain})", ("a",): "p[a] - 0.25"}),
        "ba": table(net, "ba", {(): "0", ("a",): "0.25 - p[a]"}),
        "sb": table(net, "sb", {(): "0", ("b",): "p[b]"}),
        "bb": table(net, "bb", {(): "0", ("b",): "2 - p[b]"}),
    })


def raised_kernel_calls(monkeypatch) -> list[int]:
    """Log the point count of every ``_CompiledProfile.evaluate`` call that raises."""
    raised = []
    evaluate = _CompiledProfile.evaluate

    def logged(cp, points, *args):
        try:
            return evaluate(cp, points, *args)
        except NonFiniteUtility:
            raised.append(len(points))
            raise

    monkeypatch.setattr(_CompiledProfile, "evaluate", logged)
    return raised


def test_speculative_trials_outside_the_domain_do_not_raise(monkeypatch):
    # the start (0, 0) gains at a; its next position from (0, 0) would try
    # (0, -0.25), where a + 2b + 0.25 < 0, but the descent goes on from
    # (0.25, 0), and every trial it makes stays in the domain
    u = domain_market("ab", "p[a] + 2 * p[b] + 0.25")
    want = record_list(u, (0.0, 2.0), 0.5, True)
    raised = raised_kernel_calls(monkeypatch)
    found = find_equilibria(u, (0.0, 2.0), 0.5)
    assert raised and found == want
    assert [rec.prices.values for rec in want] == [(0.25, b) for b in (0.0, 0.5, 1.0, 1.5, 2.0)]


@pytest.mark.parametrize("order,domain", [("ab", "p[a] + 2 * p[b]"), ("ba", "p[a]")])
def test_descent_trials_outside_the_domain_raise(order, domain):
    # (0, 0) tries a = -0.25 at its first position ("ab"), or after b ("ba")
    u = domain_market(order, domain)
    for search in (record_list, find_equilibria):
        with pytest.raises(NonFiniteUtility, match="not finite at prices"):
            search(u, (0.0, 2.0), 0.5, True)


TOL = equilibrium.DEDUP_TOL
# offsets of a moved point from a grid point, exact distances of DEDUP_TOL included
OFFSETS = st.sampled_from([0.0, TOL, -TOL, TOL / 2, -TOL / 2, 1.5 * TOL, 2 * TOL, 3e-7])


@st.composite
def dedupe_inputs(draw):
    """Points of a grid of step 0.25, each either a distinct grid point or
    loose (a grid point plus offsets), the rows kept by Z, the loose mask
    and a block size; on a tiny grid (the step at most 2 * DEDUP_TOL, any
    points) every row is loose."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 40))
    tiny = draw(st.booleans())
    cell = TOL / 2 if tiny else 0.25
    points = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                                    min_size=count, max_size=count)), dtype=float) * cell
    loose = np.array(draw(st.lists(st.booleans(), min_size=count, max_size=count))) | tiny
    # the rows that are not loose are distinct grid points
    _, first = np.unique(points, axis=0, return_index=True)
    fixed = np.zeros(count, dtype=bool)
    fixed[first] = True
    loose |= ~fixed
    for r in np.flatnonzero(loose & ~tiny):
        points[r] += [draw(OFFSETS) for _ in range(n)]
    rows = np.flatnonzero(draw(st.lists(st.booleans(), min_size=count, max_size=count)))
    return points, rows, loose, draw(st.sampled_from([1, 2, 5, 1 << 17]))


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(dedupe_inputs())
def test_dedupe_matches_greedy_loop(case):
    points, rows, loose, batch = case
    kept = []
    for r in rows.tolist():
        if not near_kept(points[r].tolist(), [points[k].tolist() for k in kept]):
            kept.append(r)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium, "BATCH", batch)
        got = equilibrium._dedupe(points, rows, loose)
    assert got.tolist() == kept


def test_tiny_step_without_refine_dedupes_the_grid():
    # grid levels 1e-6 apart, every one an equilibrium: whether neighbours
    # lie within DEDUP_TOL turns on each level's rounding, so the greedy
    # keeps an irregular subset (7 of 11 and 16 of 21 levels)
    u = constant_market()
    for box in ((1.0, 1.00001), (0.5, 0.50002)):
        found = find_equilibria(u, box, 1e-6, refine=False)
        want = record_list(u, box, 1e-6, False)
        assert len(want) > 4 and found == want


@pytest.mark.parametrize("name,u,box,step", RURAL_CASES,
                         ids=[case[0] for case in RURAL_CASES])
def test_rural_pairs_match_per_pair_loop(name, u, box, step):
    records = find_equilibria(u, box, step)
    # an equal copy and a reversed order add pairs with shared and swapped records
    records = list(records) + [dataclasses.replace(records[0])]
    for order in (records, records[::-1]):
        got = list(rural_pairs(u, order))
        assert len(got) == len(order) * (len(order) - 1) // 2
        for (e, e2), (ge, ge2, unmatched) in zip(itertools.combinations(order, 2), got):
            assert ge is e and ge2 is e2
            assert unmatched == unmatched_loop(u, e, e2)
            rep = verify_rural_hospitals_pair(u, e, e2)
            assert rep.unmatched == unmatched
            # each matched support pairs with the largest mask of e2 with its vector
            assert rep.matched == tuple(
                (m, max(m2 for m2 in e2.supports
                        if net_vector(u, m2) == net_vector(u, m)))
                for m in e.supports if m not in unmatched)


def test_rural_pairs_checks_its_inputs_when_called():
    u = star_market()
    good = is_equilibrium(u, PriceVector(u.network, (1.0, 1.0, 1.0, 1.0)))
    bad = dataclasses.replace(good, supports=())
    with pytest.raises(NotAnEquilibriumInput):
        rural_pairs(u, [good, bad])
    assert list(rural_pairs(u, [good])) == []


def complementary_seller():
    """A seller who sells both trades or neither: each buyer prefers the
    record where it pays 0, so no record is best for both."""
    net = build_network([("a", "s", "b1"), ("c", "s", "b2")])
    return UtilityProfile(net, {
        "s": make_quasilinear("s", net, {0: 0.0, net.mask_of(["a", "c"]): -2.0}),
        "b1": make_quasilinear("b1", net, {0: 0.0, net.mask_of(["a"]): 2.0}),
        "b2": make_quasilinear("b2", net, {0: 0.0, net.mask_of(["c"]): 2.0}),
    })


MECHANISM_CASES = [(f"assignment-{seed}", random_market(seed), (0.0, 3.0), 0.5)
                   for seed in range(4)] + [
    ("tied-0", tied_market(0), (0.0, 3.0), 0.5),
    ("complementary", complementary_seller(), (0.0, 3.0), 0.5),
    ("kinked-pair", load_scenario(os.path.join(SCENARIOS, "kinked-pair.json")).profile,
     (0.0, 3.0), 0.25),
    ("star", star_market(), (-1.0, 3.0), 0.5),
]


@pytest.mark.parametrize("name,u,box,step", MECHANISM_CASES,
                         ids=[case[0] for case in MECHANISM_CASES])
def test_mechanism_matches_record_list(name, u, box, step):
    found = record_list(u, box, step, False)
    rec = extremal_oracle(u, found).buyer_optimal
    rule = "buyer-optimal"
    if rec is None:
        rec = min(found, key=lambda r: r.prices.values)
        rule = "buyer-optimal/fallback-lex-min"
    out = buyer_optimal_mechanism(u, SearchConfig(box, step))
    assert (out.rule, out.record) == (rule, rec)
    assert out.prices == rec.prices and out.bundle == rec.designated_support
    if name == "complementary":
        assert rule.endswith("fallback-lex-min") and rec.prices.values == (0.0, 2.0)


def test_mechanism_builds_one_record(monkeypatch):
    u = assignment_market(1, 1, {(0, 0): 2.0})
    report = extremal_equilibria(u, find_equilibria(u, (0.0, 3.0), 0.5, refine=False))
    # the seller-optimal record is at p = 2, the buyer-optimal one at p = 0
    assert report.seller_optimal.prices.values == (2.0,)
    assert report.buyer_optimal.prices.values == (0.0,)
    built, record = [], _CompiledProfile.record

    def counted(cp, p, *args):
        built.append(p.values)
        return record(cp, p, *args)

    def extremal(*args):
        raise AssertionError("the mechanism ranks the set itself")

    monkeypatch.setattr(_CompiledProfile, "record", counted)
    monkeypatch.setattr(equilibrium, "extremal_equilibria", extremal)
    monkeypatch.setattr(mechanisms, "extremal_equilibria", extremal, raising=False)
    out = buyer_optimal_mechanism(u, SearchConfig((0.0, 3.0), 0.5))
    assert out.prices.values == (0.0,) and built == [(0.0,)]


def test_mechanism_on_no_trades():
    net = build_network([])
    out = buyer_optimal_mechanism(UtilityProfile(net, {}), SearchConfig((0.0, 1.0)))
    assert out.rule == "buyer-optimal" and out.bundle == 0
    assert out.record == EquilibriumRecord(PriceVector(net, ()), (0,), {}, 0.0)


def count_kernel_calls(monkeypatch) -> list[int]:
    """Log the point count of every ``_CompiledProfile.evaluate`` call."""
    calls = []
    evaluate = _CompiledProfile.evaluate

    def counted(cp, points, *args):
        calls.append(len(points))
        return evaluate(cp, points, *args)

    monkeypatch.setattr(_CompiledProfile, "evaluate", counted)
    return calls


def test_mechanism_makes_one_kernel_call(monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    for u in (random_market(0), complementary_seller()):
        calls.clear()
        buyer_optimal_mechanism(u, SearchConfig((0.0, 3.0), 0.5))
        # the scan candidates only: no call on refined points, none for the ranking
        assert len(calls) == 1 and calls[0] > 0


def test_no_candidates_make_no_kernel_call(monkeypatch):
    evaluate = _CompiledProfile.evaluate
    calls = count_kernel_calls(monkeypatch)
    for u in (star_market(), random_market(0), constant_market()):
        calls.clear()
        for refine in (False, True):
            # far above every value: no grid point comes near Z = 0
            found = find_equilibria(u, (5.0, 6.0), 0.5, refine=refine)
            assert calls == [] and len(found) == 0 and list(found) == []
            z, fit, best = evaluate(_CompiledProfile(u), np.empty((0, u.network.n)),
                                    SUPPORT_TIE)
            assert found.prices.shape == (0, u.network.n)
            assert (found.fit.shape, found.fit.dtype) == (fit.shape, fit.dtype)
            assert (found.best.shape, found.best.dtype) == (best.shape, best.dtype)
            assert found.z.shape == np.array(z).shape == (0,)


# -- scan codes kept on the compiled profile ----------------------------------------

def test_changed_feasible_masks_get_fresh_globals():
    u = random_market(1)
    cp = _compiled(u)
    # dropping a bundle changes the masks of b0
    fu = u.firms["b0"]
    dropped = max(fu.table)
    narrow = u.replace(b0=FirmUtility("b0", u.network, {
        m: e for m, e in fu.table.items() if m != dropped}))
    got = _compiled(narrow)
    want = _compatible_supports(u.network, {f: narrow.firms[f].feasible_masks()
                                            for f in narrow.firms})
    assert list(got.feasible_globals) == want != list(cp.feasible_globals)
    for f, share in zip(got.firms, got.shares):
        masks, omega = narrow.firms[f].feasible_masks(), narrow.firms[f].omega
        assert share.tolist() == [masks.index(g & omega) for g in want]
    assert find_equilibria(narrow, (0.0, 3.0), 0.5) == record_list(narrow, (0.0, 3.0),
                                                                    0.5, True)


def oracle_hits(u, axis, threshold):
    z = z_by_definition(u)
    return [p for p in itertools.product(axis.tolist(), repeat=u.network.n)
            if z(p) <= threshold]


def count_code_rows(monkeypatch, u) -> dict[str, int]:
    """Per firm of u, a count of the row calls that compute scan codes: the
    calls on grid columns (one axis each, so more than one dimension when
    there are two trades or more), not the kernel's flat columns."""
    calls = dict.fromkeys(u.firms, 0)
    for f, fu in u.firms.items():
        def counted(columns, f=f, row=fu._row):
            calls[f] += isinstance(columns, list) and columns[0].ndim > 1
            return row(columns)

        monkeypatch.setitem(fu.__dict__, "_row", counted)
    return calls


def test_search_computes_the_other_firms_codes_once(monkeypatch):
    # the option scan reads the truthful scan's codes for every firm outside
    # the coalition (same threshold, same grid); each member computes its
    # codes once more, for all its options at once
    u = assignment_market(2, 3, {(0, 0): 3.0, (0, 1): 2.0, (1, 1): 2.5, (1, 2): 1.5})
    cfg = SearchConfig((0.0, 3.0), 0.5)
    for coalition in (["b0"], ["b1", "b2"]):
        calls = count_code_rows(monkeypatch, u)
        report = mechanisms.manipulation_search(u, coalition, cfg, (0.5, 1.5), (0.5,))
        monkeypatch.undo()
        assert report.tried > report.skipped
        assert calls == {f: 1 + (f in coalition) for f in u.firms}
        # a fresh profile for the next coalition
        u = u.replace()


def test_a_repeated_scan_computes_no_codes(monkeypatch):
    u = random_market(2)
    box, cp = (0.0, 3.0), _compiled(u)
    calls = count_code_rows(monkeypatch, u)
    found = find_equilibria(u, box, 0.5, refine=False)
    assert set(calls.values()) == {1}
    calls.update(dict.fromkeys(calls, 0))
    assert find_equilibria(u, box, 0.5, refine=False) == found
    assert set(calls.values()) == {0}
    # another step reads other levels at the same threshold: fresh codes,
    # which a scan at that step then reuses
    find_equilibria(u, box, 0.75, refine=False)
    assert set(calls.values()) == {1}
    axis = grid(box, 0.75)
    assert scan_points(cp, axis, EPS_EQ) == oracle_hits(u, axis, EPS_EQ + 1e-15)
    assert set(calls.values()) == {1}


def test_scan_codes_are_keyed_by_the_threshold():
    # one profile and one grid at two thresholds, the first one again last
    u = random_market(3)
    cp, axis = _compiled(u), grid((0.0, 3.0), 0.5)
    hits = [scan_points(cp, axis, trigger) for trigger in (0.5, EPS_EQ, 0.5)]
    assert hits == [oracle_hits(u, axis, trigger + 1e-15) for trigger in (0.5, EPS_EQ, 0.5)]
    assert hits[0] != hits[1]


def test_profiles_sharing_a_firm_keep_their_own_codes():
    u = assignment_market(2, 2, {(0, 0): 3.0, (0, 1): 2.0, (1, 0): 1.0, (1, 1): 2.5})
    axis, trigger = grid((0.0, 3.0), 0.5), 0.25
    # b0 keeps its expressions but can no longer buy from s0 (other global
    # sets), or reports another outside option (the same global sets)
    fu = u.firms["b0"]
    t00 = u.network.mask_of(["t00"])
    narrow = u.replace(b0=FirmUtility("b0", u.network, {
        m: e for m, e in fu.table.items() if m != t00}))
    lying = u.replace(b0=truncate_at_outside(fu, 2.0))
    assert narrow.firms["s0"] is lying.firms["s0"] is u.firms["s0"]
    hits = [scan_points(_compiled(v), axis, trigger) for v in (u, narrow, lying)]
    assert hits == [oracle_hits(v, axis, trigger + 1e-15) for v in (u, narrow, lying)]
    assert hits[0] != hits[1] and hits[0] != hits[2]


def test_scan_codes_are_freed_with_their_profile():
    u = random_market(2)
    for step in (0.5, 0.75):
        find_equilibria(u, (0.0, 3.0), step)
    # one code set per firm: the last one it computed
    cp = _compiled(u)
    assert sorted(cp._codes) == list(range(len(cp.firms)))
    assert all(len(codes) == len(cp.share_bits) for _key, codes in cp._codes.values())
    refs = weakref.ref(cp._codes[0][1][0]), weakref.ref(cp)
    del u, cp
    gc.collect()
    assert all(ref() is None for ref in refs)
