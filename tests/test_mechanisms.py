import itertools
import random

import numpy as np
import pytest

from misreports import loop_search, reported_options, truncate_at_outside
from netclear import equilibrium, expr as ex, mechanisms
from netclear.errors import (
    NoEquilibriumFound,
    NotTerminalBuyers,
    NotUnitDemand,
    RepeatedCoalitionMember,
)
from netclear.instances import assignment_market, star_intermediary
from netclear.mechanisms import (
    SearchConfig,
    buyer_optimal_mechanism,
    manipulation_search,
    truncation_reports,
    uplift_reports,
)
from netclear.model import build_network
from netclear.utility import UtilityProfile, make_quasilinear, make_unit_demand

CFG = SearchConfig(box=(-0.5, 4.5), step=0.5)


def two_by_two():
    return assignment_market(2, 2, {(0, 0): 3, (0, 1): 2, (1, 0): 1, (1, 1): 4})


def test_buyer_optimal_outcome():
    u = two_by_two()
    out = buyer_optimal_mechanism(u, CFG)
    assert out.rule == "buyer-optimal"
    assert sorted(u.network.ids_of(out.bundle)) == ["t00", "t11"]
    # buyer-optimal means zero prices on the efficient assignment
    assert out.allocation_prices == {"t00": 0.0, "t11": 0.0}
    assert out.utilities["b0"] == pytest.approx(3.0)
    assert out.utilities["b1"] == pytest.approx(4.0)
    assert out.utilities["s0"] == pytest.approx(0.0)
    assert out.utilities["s1"] == pytest.approx(0.0)


def test_outcome_utilities_are_computed_when_read(monkeypatch):
    calls = []
    utility_of = mechanisms._utility_of

    def spy(fu, bundle, p):
        calls.append(fu.firm)
        return utility_of(fu, bundle, p)

    monkeypatch.setattr(mechanisms, "_utility_of", spy)
    u = two_by_two()
    out = buyer_optimal_mechanism(u, CFG)
    assert calls == []
    assert out.utilities == {f: utility_of(u.firms[f], out.bundle, out.prices)
                             for f in sorted(u.firms)}
    assert out.utilities is out.utilities and calls == sorted(u.firms)


def test_mechanism_outcome_is_equilibrium_record():
    u = two_by_two()
    out = buyer_optimal_mechanism(u, CFG)
    assert out.record.surplus <= 1e-7
    assert out.bundle in out.record.supports


def test_no_equilibrium_in_box_raises():
    u = two_by_two()
    with pytest.raises(NoEquilibriumFound):
        buyer_optimal_mechanism(u, SearchConfig(box=(-5.0, -4.0), step=0.5))


def test_truncation_reports():
    u = two_by_two().firms["b0"]
    # the empty bundle's value set in place, as truncate_at_outside sets it
    assert list(truncation_reports(u, [0.5, 1])) == [
        ("truncate@0.5", 0, True, 0.5), ("truncate@1", 0, True, 1.0)]
    with pytest.raises(NotUnitDemand):
        list(truncation_reports(star_intermediary(), [1.0]))


def test_uplift_reports():
    fu = two_by_two().firms["b0"]
    reports = list(uplift_reports(fu, [1.0, 0.5]))
    # b0 buys t00 and t10: one uplift per upstream trade per amount, each
    # added to that trade's own bundle
    net = fu.network
    assert reports == [
        ("uplift[t00]+1.0", net.mask_of(["t00"]), False, 1.0),
        ("uplift[t00]+0.5", net.mask_of(["t00"]), False, 0.5),
        ("uplift[t10]+1.0", net.mask_of(["t10"]), False, 1.0),
        ("uplift[t10]+0.5", net.mask_of(["t10"]), False, 0.5)]


def test_manipulation_search_truthful_baseline():
    u = two_by_two()
    rep = manipulation_search(u, ["b0"], CFG,
                              truncation_levels=(0.5, 1.5),
                              uplift_amounts=(0.5,))
    # options: 2 truncations + 2 uplifts (one per upstream trade)
    assert rep.tried == 4
    assert rep.ok
    assert rep.all_gain is None


def test_manipulation_search_coalition_of_two():
    u = two_by_two()
    rep = manipulation_search(u, ["b0", "b1"], CFG,
                              truncation_levels=(1.0,),
                              uplift_amounts=(1.0,))
    # 4 options per member, minus the all-truthful combination
    assert rep.tried == 15
    assert rep.ok


def test_manipulation_search_rejects_non_buyers():
    u = two_by_two()
    with pytest.raises(NotTerminalBuyers):
        manipulation_search(u, ["s0"], CFG)
    with pytest.raises(NotTerminalBuyers):
        manipulation_search(u, ["b0", "s1"], CFG)


def test_manipulation_search_empty_coalition():
    u = two_by_two()
    rep = manipulation_search(u, [], CFG)
    assert rep.ok and rep.tried == 0
    assert rep.skipped == rep.fallbacks == 0


def rerun_misreports(u, coalition, cfg, levels, uplifts):
    """(misreports with no equilibrium, outcomes from the fallback rule,
    the truthful one included), by running the mechanism on each."""
    options = [list(reported_options(u.firms[f], levels, uplifts)) for f in coalition]
    skipped, fallbacks = 0, 0
    for combo in itertools.product(*options):
        try:
            out = buyer_optimal_mechanism(
                u.replace(**{f: fu for f, (_, fu) in zip(coalition, combo)}), cfg)
        except NoEquilibriumFound:
            skipped += 1
            continue
        fallbacks += out.rule == "buyer-optimal/fallback-lex-min"
    return skipped, fallbacks


def test_manipulation_search_counts_skipped_misreports():
    # two buyers of equal value: on the integer grid some joint uplifts
    # have no equilibrium
    u = assignment_market(1, 2, {(0, 0): 5, (0, 1): 5})
    cfg = SearchConfig(box=(0.0, 6.0), step=1.0)
    levels, uplifts = (0.25, 0.75, 1.25, 2.0, 3.0), (0.25, 0.5, 1.0, 1.5, 2.0)
    rep = manipulation_search(u, ["b0", "b1"], cfg, levels, uplifts)
    assert rep.ok and rep.tried == 120
    assert (rep.skipped, rep.fallbacks) == rerun_misreports(
        u, ["b0", "b1"], cfg, levels, uplifts) == (13, 0)
    assert rep == loop_search(u, ["b0", "b1"], cfg, levels, uplifts)


def test_manipulation_search_counts_fallbacks():
    # the seller sells both trades or neither: no record is best for both
    # buyers, so the truthful outcome takes the lex-min fallback
    net = build_network([("a", "s", "b1"), ("c", "s", "b2")])
    u = UtilityProfile(net, {
        "s": make_quasilinear("s", net, {0: 0.0, net.mask_of(["a", "c"]): -2.0}),
        "b1": make_quasilinear("b1", net, {0: 0.0, net.mask_of(["a"]): 2.0}),
        "b2": make_quasilinear("b2", net, {0: 0.0, net.mask_of(["c"]): 2.0}),
    })
    cfg = SearchConfig(box=(0.0, 3.0), step=0.5)
    levels, uplifts = (0.5, 1.5), (0.5,)
    rep = manipulation_search(u, ["b1"], cfg, levels, uplifts)
    skipped, fallbacks = rerun_misreports(u, ["b1"], cfg, levels, uplifts)
    assert (rep.tried, rep.skipped, rep.fallbacks) == (3, skipped, fallbacks)
    assert fallbacks > 0
    assert rep == loop_search(u, ["b1"], cfg, levels, uplifts)


def test_truncation_cannot_help_single_buyer():
    # direct spot-check of the mechanism under one truncated report
    u = two_by_two()
    truthful = buyer_optimal_mechanism(u, CFG)
    lying = u.replace(b0=truncate_at_outside(u.firms["b0"], 2.0))
    outcome = buyer_optimal_mechanism(lying, CFG)
    from netclear.mechanisms import _utility_of

    true_u = _utility_of(u.firms["b0"], outcome.bundle, outcome.prices)
    base = _utility_of(u.firms["b0"], truthful.bundle, truthful.prices)
    assert true_u <= base + 1e-9


def test_manipulation_search_rejects_a_repeated_member():
    u = two_by_two()
    for coalition in (["b0", "b0"], ["b0", "b1", "b0"]):
        with pytest.raises(RepeatedCoalitionMember):
            manipulation_search(u, coalition, CFG, (1.0,), (1.0,))
    # still a NotTerminalBuyers, for the handlers that catch that
    with pytest.raises(NotTerminalBuyers):
        manipulation_search(u, ["b1", "b1"], CFG)


# -- the batched search against the per-misreport loop -------------------------

LEVELS, AMOUNTS = (0.5, 1.5, 2.5), (0.25, 1.0)


def seeded_assignment(rng):
    """1-3 sellers and buyers, each pair trading with probability 0.6 at a
    non-integer value, at most five trades."""
    while True:
        sellers, buyers = rng.randint(1, 3), rng.randint(1, 3)
        values = {(i, j): round(rng.uniform(0.3, 4.0), 2)
                  for i in range(sellers) for j in range(buyers) if rng.random() < 0.6}
        if 0 < len(values) <= 5:
            return assignment_market(sellers, buyers, values)


def complementary_seller(rng):
    """One seller who sells both of two trades or neither (sometimes only
    the first): outside the theorem, where misreports can pay."""
    net = build_network([("a", "s", "b1"), ("c", "s", "b2")])
    table = {0: 0.0, net.mask_of(["a", "c"]): -round(rng.uniform(0, 4), 2)}
    if rng.random() < 0.5:
        table[net.mask_of(["a"])] = -round(rng.uniform(0, 4), 2)
    return UtilityProfile(net, {
        "s": make_quasilinear("s", net, table),
        **{b: make_quasilinear(b, net, {0: 0.0, net.mask_of([t]): round(rng.uniform(0, 4), 2)})
           for b, t in (("b1", "a"), ("b2", "c"))}})


def coalitions(u, most=3):
    buyers = sorted(f for f in u.firms if f.startswith("b"))
    return [list(c) for r in range(1, min(most, len(buyers)) + 1)
            for c in itertools.combinations(buyers, r)]


def assert_same_report(u, coalition, cfg, levels=LEVELS, amounts=AMOUNTS):
    """The batched report equals the loop's, or both raise the same error;
    returns the report (None on an error)."""
    try:
        want = loop_search(u, coalition, cfg, levels, amounts)
    except NoEquilibriumFound:
        with pytest.raises(NoEquilibriumFound):
            manipulation_search(u, coalition, cfg, levels, amounts)
        return None
    got = manipulation_search(u, coalition, cfg, levels, amounts)
    assert got == want, (coalition, cfg)
    return got


def test_search_matches_the_loop_on_seeded_assignment_markets():
    rng = random.Random(26)
    reports = []
    for case in range(24):
        u = seeded_assignment(rng)
        cfg = SearchConfig((0.0, 4.0), (0.5, 0.75)[case % 2])
        for coalition in coalitions(u):
            reports.append(assert_same_report(u, coalition, cfg))
    reports = [r for r in reports if r is not None]
    # the cases reach records, skipped misreports and pair and triple coalitions
    assert sum(r.tried - r.skipped for r in reports) > 500
    assert any(r.skipped for r in reports)
    assert {len(r.coalition) for r in reports} == {1, 2, 3}


def test_search_matches_the_loop_where_misreports_pay():
    rng = random.Random(5)
    reports = []
    for case in range(16):
        u = complementary_seller(rng)
        cfg = SearchConfig((0.0, 4.0), (0.25, 0.5, 0.75)[case % 3])
        for coalition in coalitions(u):
            reports.append(assert_same_report(u, coalition, cfg, (0.5, 1.5, 2.5),
                                              (0.25, 0.5, 1.0)))
    reports = [r for r in reports if r is not None]
    # searches that stop at a gain for all before their last misreport, and
    # searches that keep the first ten of more gains for some, with fallbacks
    assert sum(r.all_gain is not None for r in reports) >= 5
    assert any(len(r.some_gain) == 10 and r.fallbacks > 10 for r in reports)


def test_search_matches_the_loop_for_a_nonlinear_buyer():
    net = build_network([("t00", "s0", "b0"), ("t10", "s1", "b0"), ("t01", "s0", "b1")])
    u = UtilityProfile(net, {
        "s0": make_quasilinear("s0", net, {0: 0.0, 1: -0.5, 4: -0.5}),
        "s1": make_quasilinear("s1", net, {0: 0.0, 2: -1.0}),
        "b0": make_unit_demand("b0", net, {"t00": ex.parse_expr("3 * exp(-p[t00] / 4)"),
                                           "t10": ex.parse_expr("2.5 - p[t10]")}),
        "b1": make_quasilinear("b1", net, {0: 0.0, 4: 1.75}),
    })
    for step in (0.25, 0.5):
        cfg = SearchConfig((0.0, 3.0), step)
        # the product order follows the coalition's order
        for coalition in coalitions(u) + [["b1", "b0"]]:
            rep = assert_same_report(u, coalition, cfg, (0.5, 1.5, 2.5), (0.25, 0.5, 1.0))
            assert rep is not None and rep.tried > rep.skipped


def test_search_without_misreports():
    u = two_by_two()
    for levels, amounts in (((), ()), ((1.0,), ()), ((), (0.5,))):
        for coalition in (["b0"], ["b0", "b1"]):
            rep = assert_same_report(u, coalition, CFG, levels, amounts)
            assert rep.tried == (1 + len(levels) + 2 * len(amounts)) ** len(coalition) - 1


@pytest.mark.parametrize("batch", [7, 64, 700])
def test_search_matches_the_loop_across_blocks(monkeypatch, batch):
    # blocks of one combination's part of the grid, of one whole combination,
    # and of several combinations (with the scan narrowing in the loop)
    monkeypatch.setattr(equilibrium, "BATCH", batch)
    rng = random.Random(batch)
    for case in range(4):
        u = seeded_assignment(rng)
        cfg = SearchConfig((0.0, 3.0), 0.75)
        for coalition in coalitions(u, 2):
            assert_same_report(u, coalition, cfg, (0.5, 1.5), (0.5,))
    # searches that stop at a gain for all in a later block
    stopped = 0
    for case in range(6):
        u = complementary_seller(rng)
        for coalition in coalitions(u):
            rep = assert_same_report(u, coalition, SearchConfig((0.0, 4.0), 0.5),
                                     (0.5, 1.5, 2.5), (0.25, 0.5, 1.0))
            stopped += rep is not None and rep.all_gain is not None
    assert stopped


def test_search_matches_the_loop_on_a_grid_beyond_one_block():
    u = assignment_market(1, 3, {(0, 0): 2.3, (0, 1): 1.7, (0, 2): 3.1})
    cfg = SearchConfig((0.0, 5.0), 0.1)
    assert len(equilibrium.grid_axis(cfg.box, cfg.step, u.network.n)) ** 3 > equilibrium.BATCH
    rep = assert_same_report(u, ["b0", "b2"], cfg, (0.5,), (0.5,))
    assert rep.tried == 8 and rep.tried > rep.skipped
