import itertools

import pytest

from netclear import mechanisms
from netclear.errors import NoEquilibriumFound, NotTerminalBuyers
from netclear.instances import assignment_market
from netclear.mechanisms import (
    SearchConfig,
    buyer_optimal_mechanism,
    manipulation_search,
    truncation_reports,
    uplift_reports,
)
from netclear.model import build_network
from netclear.utility import UtilityProfile, make_quasilinear, truncate_at_outside

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
    reports = list(truncation_reports(u, [0.5, 1.0]))
    assert [name for name, _ in reports] == ["truncate@0.5", "truncate@1.0"]
    for (name, fu), lvl in zip(reports, [0.5, 1.0]):
        assert fu.value(0, (0.0,) * 4) == lvl


def test_uplift_reports():
    fu = two_by_two().firms["b0"]
    reports = list(uplift_reports(fu, [1.0]))
    # b0 buys t00 and t10: one uplift per upstream trade per amount
    assert len(reports) == 2
    for name, lifted in reports:
        assert name.startswith("uplift[")
        tid = name[len("uplift["):name.index("]")]
        mask = fu.network.mask_of([tid])
        p0 = (0.0,) * 4
        assert lifted.value(mask, p0) == pytest.approx(fu.value(mask, p0) + 1.0)


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
    options = [[("truthful", u.firms[f])]
               + list(truncation_reports(u.firms[f], levels))
               + list(uplift_reports(u.firms[f], uplifts)) for f in coalition]
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
