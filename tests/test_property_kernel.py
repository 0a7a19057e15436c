"""The batched property checkers against the per-pair loop they replace.

``old_run_pairs`` below is that loop: scalar ``demand_set`` at p and p' of
each pair, a side classification per pair, and Python clause functions per
(bundle, witness).  The batched checkers must give the same reports, with
the same violations in the same order, the same stop after 25 violations
and the same errors, whatever the block size.
"""

import itertools
import random

import numpy as np
import pytest

from netclear import properties
from netclear.demand import EPS_TIE, demand_set
from netclear.errors import NonFiniteUtility, PatternViolation
from netclear.expr import parse_expr
from netclear.instances import (
    assignment_market,
    kinked_pair_buyer,
    star_intermediary,
    three_supplier_buyer,
    triple_trade_buyer,
)
from netclear.model import PriceVector, build_network, net_index, partition_bundle
from netclear.properties import (
    check_aggregate_law,
    check_cross_side,
    check_full_substitutability,
    check_monotone_substitutability,
    check_same_side,
    check_single_improvement,
    exhaustive_pattern_pairs,
    grid_pattern_pairs,
)
from netclear.utility import FirmUtility

# -- the per-pair loop (oracle) ---------------------------------------------


def old_pair_side(u, p, p2):
    buys = u.network.buys_mask(u.firm)
    sells = u.network.sells_mask(u.firm)
    purch_equal = purch_up = sale_equal = sale_down = True
    for i in range(u.network.n):
        bit = 1 << i
        a, b = p.values[i], p2.values[i]
        if buys & bit:
            purch_equal &= a == b
            purch_up &= a <= b
        elif sells & bit:
            sale_equal &= a == b
            sale_down &= a >= b
    if sale_equal and purch_up:
        return "purchase-raise"
    if purch_equal and sale_down:
        return "sale-lower"
    raise PatternViolation(
        f"pair {p.values} -> {p2.values} matches no one-sided pattern")


def old_sss(u, side, p, p2, psi, psi2):
    net = u.network
    part = 0 if side == "purchase-raise" else 1
    own = partition_bundle(net, u.firm, psi)[part]
    own2 = partition_bundle(net, u.firm, psi2)[part]
    kept = 0
    for i in range(net.n):
        if own >> i & 1 and p.values[i] == p2.values[i]:
            kept |= 1 << i
    return kept & ~own2 == 0


def old_csc(u, side, p, p2, psi, psi2):
    up, down = partition_bundle(u.network, u.firm, psi)
    up2, down2 = partition_bundle(u.network, u.firm, psi2)
    if side == "purchase-raise":
        return down2 & ~down == 0
    return up2 & ~up == 0


def old_lad(u, side, p, p2, psi, psi2):
    a = net_index(u.network, u.firm, psi)
    b = net_index(u.network, u.firm, psi2)
    return a >= b if side == "purchase-raise" else a <= b


def old_si(u, side, p, p2, psi, psi2):
    up, down = partition_bundle(u.network, u.firm, psi)
    up2, down2 = partition_bundle(u.network, u.firm, psi2)
    return ((up & ~up2).bit_count() + (down2 & ~down).bit_count() <= 1
            and (up2 & ~up).bit_count() + (down & ~down2).bit_count() <= 1)


def old_run_pairs(u, name, variant, pairs, clauses, single_only=False,
                  contraction=False, side=None, eps_tie=EPS_TIE):
    """(report fields, pairs decided) of the per-pair loop."""
    violations = []
    tested = decided = 0
    for p, p2 in pairs:
        pair_side = old_pair_side(u, p, p2)
        if side is not None and pair_side != side:
            continue
        tested += 1
        d = demand_set(u, p, eps_tie)
        d2 = demand_set(u, p2, eps_tie)
        if single_only and not (d.single_valued and d2.single_valued):
            continue
        decided += 1
        targets, witnesses = ((d.bundles, d2.bundles) if contraction
                              else (d2.bundles, d.bundles))
        for target in targets:
            ok = False
            for witness in witnesses:
                psi, psi2 = (target, witness) if contraction else (witness, target)
                if all(cl(u, pair_side, p, p2, psi, psi2) for cl in clauses):
                    ok = True
                    break
            if not ok:
                violations.append(properties.Violation(
                    p.values, p2.values, target,
                    f"{name}/{variant}: no witness for bundle "
                    f"{sorted(u.network.ids_of(target))} on side {pair_side}"))
        if len(violations) >= 25:
            break
    return (name, variant, tested, tuple(violations)), decided


def old_check(kind, variant, u, pairs, eps_tie=EPS_TIE):
    weak, contraction = variant == "weak", variant == "contraction"
    if kind == "sss":
        return old_run_pairs(u, "same-side-substitutability", variant, pairs,
                             [old_sss], weak, contraction, eps_tie=eps_tie)
    if kind == "csc":
        return old_run_pairs(u, "cross-side-complementarity", variant, pairs,
                             [old_csc], weak, contraction, eps_tie=eps_tie)
    if kind == "fs":
        return old_run_pairs(u, "full-substitutability", variant, pairs,
                             [old_sss, old_csc], weak, contraction, eps_tie=eps_tie)
    if kind in ("lad", "las"):
        law, side = (("demand", "purchase-raise") if kind == "lad"
                     else ("supply", "sale-lower"))
        return old_run_pairs(u, f"aggregate-law-of-{law}", variant, pairs,
                             [old_lad], weak, side=side, eps_tie=eps_tie)
    if kind == "monotone":
        return old_run_pairs(u, "monotone-substitutability", "strong", pairs,
                             [old_sss, old_csc, old_lad], eps_tie=eps_tie)
    for p, p2 in pairs:
        if sum(a != b for a, b in zip(p.values, p2.values)) > 1:
            raise PatternViolation("single-improvement pairs move one coordinate")
    return old_run_pairs(u, "single-improvement", "strong", pairs, [old_si],
                         eps_tie=eps_tie)


def new_check(kind, variant, u, pairs, eps_tie=EPS_TIE):
    if kind == "sss":
        return check_same_side(u, variant, pairs, eps_tie)
    if kind == "csc":
        return check_cross_side(u, variant, pairs, eps_tie)
    if kind == "fs":
        return check_full_substitutability(u, variant, pairs, eps_tie)
    if kind == "lad":
        return check_aggregate_law(u, "demand", variant, pairs, eps_tie)
    if kind == "las":
        return check_aggregate_law(u, "supply", variant, pairs, eps_tie)
    if kind == "monotone":
        return check_monotone_substitutability(u, pairs, eps_tie)
    return check_single_improvement(u, pairs, eps_tie)


CHECKS = [(kind, variant) for kind in ("sss", "csc", "fs")
          for variant in ("weak", "expansion", "contraction")] + [
    (kind, variant) for kind in ("lad", "las") for variant in ("weak", "strong")
] + [("monotone", "strong"), ("si", "strong")]


def assert_same(kind, variant, u, pairs, eps_tie=EPS_TIE):
    (name, var, tested, violations), decided = old_check(kind, variant, u, pairs,
                                                         eps_tie)
    report = new_check(kind, variant, u, iter(pairs), eps_tie)
    assert (report.name, report.variant, report.pairs_tested) == (name, var, tested)
    assert report.violations == violations
    assert report.pairs_decided == decided
    return report


# -- subjects and their pairs -----------------------------------------------


def one_move_pairs(u, box, step, count, seed):
    """Grid pairs moving one of the firm's prices: purchases up, sales down."""
    rng = np.random.default_rng(seed)
    levels = np.round(np.arange(box[0], box[1] + step / 2, step), 12)
    buys = u.network.buys_mask(u.firm)
    own = [i for i in range(u.network.n) if u.omega >> i & 1]
    pairs = []
    while len(pairs) < count:
        base = [float(levels[rng.integers(len(levels))]) for _ in range(u.network.n)]
        other = list(base)
        i = own[rng.integers(len(own))]
        k = int(rng.integers(1, 4))
        other[i] = float(min(levels[-1], base[i] + k * step) if buys >> i & 1
                         else max(levels[0], base[i] - k * step))
        if other != base:
            pairs.append((PriceVector(u.network, tuple(base)),
                          PriceVector(u.network, tuple(other))))
    return pairs


def assignment_firm(seed):
    rng = random.Random(f"property-kernel:{seed}")
    sellers, buyers = rng.choice(((2, 2), (3, 1), (1, 3), (2, 3)))
    values = {(s, b): rng.randint(0, 4) for s in range(sellers) for b in range(buyers)}
    profile = assignment_market(sellers, buyers, values)
    return profile.firms[rng.choice(sorted(profile.firms))]


def buy_or_sell():
    """An intermediary that buys a or sells b, never both: a rise in p[a]
    can swap its purchase for a sale."""
    net = build_network([("a", "s", "f"), ("b", "f", "x")])
    exprs = {(): "0", ("a",): "2 - p[a]", ("b",): "p[b]"}
    return FirmUtility("f", net, {net.mask_of(ids): parse_expr(text)
                                  for ids, text in exprs.items()})


SUBJECTS = {
    "star": (star_intermediary, (-1.0, 3.0), 0.25),
    "three-supplier": (three_supplier_buyer, (-1.0, 2.0), 0.25),
    "triple-trade": (triple_trade_buyer, (0.0, 4.0), 0.25),
    "kinked-pair": (kinked_pair_buyer, (0.0, 3.0), 0.25),
    "buy-or-sell": (buy_or_sell, (0.0, 3.0), 0.25),
    **{f"assignment-{s}": (lambda s=s: assignment_firm(s), (-0.5, 4.5), 0.5)
       for s in range(3)},
}


def subject_pairs(name):
    build, box, step = SUBJECTS[name]
    u = build()
    pairs = []
    for side, mask in (("purchase-raise", u.network.buys_mask(u.firm)),
                       ("sale-lower", u.network.sells_mask(u.firm))):
        if mask:
            pairs += grid_pattern_pairs(u, box, step, side, 200, seed=42)
            pairs += itertools.islice(exhaustive_pattern_pairs(u, box, step, side), 60)
    random.Random(name).shuffle(pairs)  # blocks mix both sides
    return u, pairs, one_move_pairs(u, box, step, 80, seed=6)


@pytest.fixture(params=[1, 7, None], ids=["block1", "block7", "default"])
def block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(properties, "PAIR_BLOCK", request.param)
    return request.param


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_checks_match_per_pair_loop(name, block):
    u, pairs, moves = subject_pairs(name)
    reports = [assert_same(kind, variant, u, moves if kind == "si" else pairs)
               for kind, variant in CHECKS]
    if name in ("kinked-pair", "buy-or-sell"):  # reports with violations
        assert not all(report.ok for report in reports)


@pytest.mark.parametrize("eps_tie", [0.0, 0.5])
@pytest.mark.parametrize("name", ["kinked-pair", "assignment-0", "assignment-1"])
def test_ties_on_the_tolerance_boundary(name, eps_tie):
    # the linear bundles of these firms take values on the price grid, so
    # with these tolerances some bundles sit exactly on the demand set's edge
    u, pairs, moves = subject_pairs(name)
    reports = [assert_same(kind, variant, u, moves if kind == "si" else pairs, eps_tie)
               for kind, variant in CHECKS]
    assert any(report.pairs_decided < report.pairs_tested for report in reports)


def violating_pairs(u, pulled=None):
    """An endless source: a pair breaking the strong law of aggregate demand
    on the kinked-pair buyer, then a pair that breaks nothing, repeated.
    ``pulled[0]`` counts the pairs read; a check that never stops fails
    after 10,000 instead of hanging."""
    n = u.network
    bad = (PriceVector(n, (1.0, 2.0)), PriceVector(n, (2.0, 2.0)))
    good = (PriceVector(n, (0.0, 0.0)), PriceVector(n, (0.0, 0.5)))
    for i, pair in enumerate(itertools.cycle((bad, good))):
        assert i < 10_000, "the check did not stop"
        if pulled is not None:
            pulled[0] += 1
        yield pair


def test_endless_source_stops_at_25_violations(block):
    u = kinked_pair_buyer()
    pulled = [0]
    report = check_aggregate_law(u, "demand", "strong", violating_pairs(u, pulled))
    prefix = list(itertools.islice(violating_pairs(u), 200))
    (_, _, tested, violations), _ = old_check("lad", "strong", u, prefix)
    assert len(report.violations) == len(violations) == 25
    assert report.violations == violations
    assert report.pairs_tested == tested == 49
    # the source is read to the end of the block holding the stop, no further
    size = properties.PAIR_BLOCK
    assert pulled[0] == -(-49 // size) * size


def test_mixed_pair_after_stop_does_not_raise(block):
    u = kinked_pair_buyer()
    n = u.network
    pairs = list(itertools.islice(violating_pairs(u), 49))
    mixed = (PriceVector(n, (1.0, 2.0)), PriceVector(n, (2.0, 1.0)))
    report = check_aggregate_law(u, "demand", "strong", pairs + [mixed])
    assert len(report.violations) == 25 and report.pairs_tested == 49
    with pytest.raises(PatternViolation, match="no one-sided pattern"):
        check_aggregate_law(u, "demand", "strong", pairs[:47] + [mixed])
    with pytest.raises(PatternViolation):
        old_check("lad", "strong", u, pairs[:47] + [mixed])


def sqrt_buyer():
    net = build_network([("a", "s", "b")])
    table = {0: parse_expr("0"), net.mask_of(["a"]): parse_expr("sqrt(p[a] - 1)")}
    return FirmUtility("b", net, table)


def test_non_finite_utility_is_typed_and_only_when_reached(block):
    u = sqrt_buyer()
    n = u.network
    fine = (PriceVector(n, (1.0,)), PriceVector(n, (2.0,)))
    broken = (PriceVector(n, (0.0,)), PriceVector(n, (0.5,)))
    for kind, variant in CHECKS:
        if kind == "las":  # the buyer makes no sales; checked below
            continue
        with pytest.raises(NonFiniteUtility):
            new_check(kind, variant, u, [fine, broken])
        with pytest.raises(NonFiniteUtility):
            old_check(kind, variant, u, [fine, broken])
    # a broken pair on the side the law skips is never evaluated
    assert check_aggregate_law(u, "supply", "strong", [broken]).pairs_tested == 0


def test_non_finite_pair_after_stop_does_not_raise(block):
    kinked = kinked_pair_buyer()
    n = kinked.network
    # 0 * sqrt(2 - p[w2]) leaves the kinked buyer's values alone on the
    # violating pairs and leaves its domain for p[w2] > 2
    table = dict(kinked.table)
    table[n.mask_of(["w1"])] = parse_expr("3 - p[w1] + 0 * sqrt(2 - p[w2])")
    u = FirmUtility("f", n, table)
    pairs = list(itertools.islice(violating_pairs(u), 49))
    broken = (PriceVector(n, (0.0, 3.0)), PriceVector(n, (0.5, 3.0)))
    report = check_aggregate_law(u, "demand", "strong", pairs + [broken])
    assert report.violations == old_check("lad", "strong", u, pairs + [broken])[0][3]
    assert report.pairs_tested == 49
    for source in (pairs[:47] + [broken], pairs[:47] + [broken] + pairs[47:]):
        with pytest.raises(NonFiniteUtility):
            check_aggregate_law(u, "demand", "strong", source)
        with pytest.raises(NonFiniteUtility):
            old_check("lad", "strong", u, source)


def test_empty_pairs(block):
    u = star_intermediary()
    for kind, variant in CHECKS:
        report = new_check(kind, variant, u, [])
        assert (report.pairs_tested, report.pairs_decided, report.violations) == (0, 0, ())
        assert report.verdict == "pass-on-sample"
