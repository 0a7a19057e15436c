import itertools
import os
import subprocess
import sys

import pytest

from netclear.errors import NetclearError, PatternViolation, UnknownBoundKind
from netclear.instances import (
    assignment_market,
    kinked_pair_buyer,
    star_intermediary,
    three_supplier_buyer,
    triple_trade_buyer,
)
from netclear.model import PriceVector
from netclear.properties import (
    check_aggregate_law,
    check_bounds,
    check_cross_side,
    check_full_substitutability,
    check_monotone_substitutability,
    check_nib,
    check_same_side,
    check_single_improvement,
    exhaustive_pattern_pairs,
    grid_pattern_pairs,
)


def pairs_for(u, box, step, limit=1500):
    out = []
    for side in ("purchase-raise", "sale-lower"):
        out.extend(itertools.islice(
            exhaustive_pattern_pairs(u, box, step, side), limit))
    return out


def test_grid_pattern_pairs_follow_pattern():
    u = star_intermediary()
    buys = u.network.buys_mask(u.firm)
    sells = u.network.sells_mask(u.firm)
    for p, p2 in grid_pattern_pairs(u, (-1, 3), 0.5, "purchase-raise", 50):
        moved = False
        for i in range(u.network.n):
            a, b = p.values[i], p2.values[i]
            if buys >> i & 1:
                assert b >= a
                moved = moved or b > a
            else:
                assert a == b
        assert moved
    for p, p2 in grid_pattern_pairs(u, (-1, 3), 0.5, "sale-lower", 50):
        for i in range(u.network.n):
            a, b = p.values[i], p2.values[i]
            if sells >> i & 1:
                assert b <= a
            else:
                assert a == b


def test_grid_pattern_pairs_deterministic():
    u = star_intermediary()
    a = grid_pattern_pairs(u, (-1, 3), 0.5, "purchase-raise", 20, seed=7)
    b = grid_pattern_pairs(u, (-1, 3), 0.5, "purchase-raise", 20, seed=7)
    assert [(p.values, q.values) for p, q in a] == \
        [(p.values, q.values) for p, q in b]


def test_one_level_axis_has_no_pairs():
    # a search for a pair that cannot exist never ends, so it runs in a
    # child process that the timeout kills
    code = ("from netclear.instances import star_intermediary\n"
            "from netclear.properties import exhaustive_pattern_pairs, grid_pattern_pairs\n"
            "u = star_intermediary()\n"
            "for side in ('purchase-raise', 'sale-lower'):\n"
            "    print(len(grid_pattern_pairs(u, (0, 1), 5, side, 10)),\n"
            "          len(list(exhaustive_pattern_pairs(u, (0, 1), 5, side))))\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 0\n0 0\n", "")


def test_star_verdicts():
    u = star_intermediary()
    pairs = pairs_for(u, (-1, 3), 1.0)
    assert check_same_side(u, "weak", pairs).verdict == "pass-on-sample"
    assert check_cross_side(u, "weak", pairs).verdict == "pass-on-sample"
    # the exp friction couples the two sides: cross-side fails in the
    # multi-valued (expansion) sense while the weak version survives
    report = check_cross_side(u, "expansion", pairs)
    assert report.verdict == "violated"
    assert check_full_substitutability(u, "expansion", pairs).verdict == \
        "violated"
    assert check_monotone_substitutability(u, pairs).verdict == "violated"


def test_three_supplier_verdicts():
    u = three_supplier_buyer()
    pairs = pairs_for(u, (-1, 2), 0.5)
    for variant in ("weak", "expansion", "contraction"):
        assert check_same_side(u, variant, pairs).ok
        assert check_cross_side(u, variant, pairs).ok
        assert check_full_substitutability(u, variant, pairs).ok
    assert check_aggregate_law(u, "supply", "strong", pairs).ok
    # a purchase-price rise can flip demand from the pair to the triple:
    # the logistic bundle loses less value than the linear pair
    n = u.network
    p = PriceVector(n, (0.5, 0.5, -1.0))
    p2 = PriceVector(n, (1.5, 0.5, -1.0))
    assert not check_aggregate_law(u, "demand", "strong", [(p, p2)]).ok
    assert not check_aggregate_law(u, "demand", "weak", [(p, p2)]).ok


def test_triple_trade_verdicts():
    u = triple_trade_buyer()
    n = u.network
    pairs = pairs_for(u, (0, 4), 1.0)
    assert check_full_substitutability(u, "expansion", pairs).ok
    assert check_same_side(u, "contraction", pairs).ok
    # raising prices toward (2,2,2) pulls the isolated full bundle into
    # demand, breaking the strong aggregate law (and hence monotonicity)
    isolation = [(PriceVector(n, (0.0, 0.0, 1.0)), PriceVector(n, (2.0, 2.0, 2.0)))]
    assert not check_aggregate_law(u, "demand", "strong", isolation).ok
    assert check_aggregate_law(u, "demand", "weak", pairs).ok
    assert not check_monotone_substitutability(u, pairs).ok


def test_kinked_pair_documented_lad_pattern():
    u = kinked_pair_buyer()
    n = u.network
    pair = [(PriceVector(n, (1.0, 2.0)), PriceVector(n, (2.0, 2.0)))]
    strong = check_aggregate_law(u, "demand", "strong", pair)
    assert strong.verdict == "violated"
    assert strong.violations[0].bundle == n.mask_of(["w1", "w2"])
    # demand at (2,2) is multi-valued, so the weak law is vacuous here
    weak = check_aggregate_law(u, "demand", "weak", pair)
    assert weak.verdict == "pass-on-sample"


def test_quasilinear_assignment_passes_everything():
    u = assignment_market(2, 2, {(0, 0): 3, (0, 1): 2, (1, 0): 1, (1, 1): 4})
    buyer = u.firms["b0"]
    seller = u.firms["s0"]
    for fu, box in ((buyer, (-0.5, 4.5)), (seller, (-0.5, 4.5))):
        pairs = pairs_for(fu, box, 1.0)
        assert check_full_substitutability(fu, "expansion", pairs).ok
        assert check_monotone_substitutability(fu, pairs).ok
        assert check_aggregate_law(fu, "demand", "strong", pairs).ok
        assert check_aggregate_law(fu, "supply", "strong", pairs).ok


def test_single_improvement():
    # quasi-linear unit-demand: one price move changes at most one trade
    u = assignment_market(2, 2, {(0, 0): 3, (0, 1): 2, (1, 0): 1, (1, 1): 4})
    fu = u.firms["b0"]
    n = fu.network
    pairs = []
    for base in itertools.product((0.0, 1.0, 2.0), repeat=n.n):
        p = PriceVector(n, base)
        for i in range(n.n):
            pairs.append((p, p.with_value(n.trades[i].id, base[i] + 1.0)))
    assert check_single_improvement(fu, pairs).ok

    # the isolated triple enters demand two trades at a time
    t = triple_trade_buyer()
    tn = t.network
    jump = [(PriceVector(tn, (1.0, 2.0, 2.0)), PriceVector(tn, (2.0, 2.0, 2.0)))]
    assert not check_single_improvement(t, jump).ok
    with pytest.raises(PatternViolation):
        check_single_improvement(
            t, [(PriceVector(tn, (1, 1, 1)), PriceVector(tn, (2, 2, 1)))])


def test_nib_finds_witnesses_on_kinked_pair():
    u = kinked_pair_buyer()
    n = u.network
    grid = [PriceVector(n, (a, b))
            for a in (0.5, 1.5, 2.0) for b in (0.5, 1.5, 2.0)]
    assert check_nib(u, grid).ok


def test_bounds_checks():
    u = assignment_market(1, 1, {(0, 0): 3})
    buyer = u.firms["b0"]
    assert check_bounds(buyer, "BCV", (-1, 4), samples=50, K=10.0).ok
    assert check_bounds(buyer, "BWP", (-1, 4), samples=50, K=10.0).ok
    # with a tiny K, demanded purchases above K violate the price bound
    assert not check_bounds(buyer, "BWP", (1, 2.5), samples=50, K=0.5).ok
    with pytest.raises(ValueError):
        check_bounds(buyer, "XXX", (-1, 4), samples=1, K=1.0)


@pytest.mark.parametrize("samples", [0, 1])
def test_bounds_reject_an_unknown_kind_before_sampling(samples):
    # the kind is checked even when no sample is drawn
    buyer = assignment_market(1, 1, {(0, 0): 3}).firms["b0"]
    with pytest.raises(UnknownBoundKind, match="'XYZ'") as raised:
        check_bounds(buyer, "XYZ", (-1, 4), samples=samples, K=1.0)
    assert isinstance(raised.value, NetclearError)


def test_exhaustive_pairs_respect_pattern():
    u = kinked_pair_buyer()
    for p, p2 in itertools.islice(
            exhaustive_pattern_pairs(u, (0, 1), 0.5, "purchase-raise"), 200):
        assert all(b >= a for a, b in zip(p.values, p2.values))
        assert p.values != p2.values


def test_single_improvement_reads_an_iterator():
    # validating the pairs must not exhaust an iterator before they are tested
    u = kinked_pair_buyer()
    n = u.network
    levels = [0.25 * k for k in range(13)]
    pairs = [(PriceVector(n, (a, b)),
              PriceVector(n, (a + 0.25 * (i == 0), b + 0.25 * (i == 1))))
             for a, b in itertools.product(levels, repeat=2) for i in (0, 1)][:300]
    listed = check_single_improvement(u, pairs)
    streamed = check_single_improvement(u, iter(pairs))
    assert listed.pairs_tested == streamed.pairs_tested == 300
    assert streamed == listed


def test_weak_variant_counts_decided_pairs():
    # the pairs of `netclear check` on the star intermediary
    u = star_intermediary()
    pairs = []
    for side in ("purchase-raise", "sale-lower"):
        pairs += grid_pattern_pairs(u, (-1, 3), 0.25, side, count=200, seed=42)
    weak = check_same_side(u, "weak", pairs)
    assert (weak.pairs_tested, weak.pairs_decided) == (400, 333)
    strong = check_same_side(u, "expansion", pairs)
    assert strong.pairs_tested == strong.pairs_decided == 400
