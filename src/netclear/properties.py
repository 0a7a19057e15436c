"""Sampled checkers for substitutability and monotonicity conditions.

All checkers consume explicit (p, p') pairs from a pair source and return a
PropertyReport.  A pair compares prices on one side only: from p to p',
either purchase prices weakly rise (sales exactly equal) or sale prices
weakly fall (purchases exactly equal).  Pair sources emit grid-aligned
vectors so the exact-equality clauses in the definitions are bit-exact.

Verdicts are "pass-on-sample" or "violated": these are samplers, not proofs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator

import numpy as np

from .demand import EPS_TIE, demand_set, nib_witness
from .equilibrium import grid_axis
from .errors import NonFiniteUtility, PatternViolation, UnknownBoundKind
from .model import PriceVector
from .utility import FirmUtility

Pair = tuple[PriceVector, PriceVector]


@dataclass(frozen=True)
class Violation:
    p: tuple[float, ...]
    p2: tuple[float, ...]
    bundle: int
    detail: str


@dataclass(frozen=True)
class PropertyReport:
    name: str
    variant: str
    pairs_tested: int
    violations: tuple[Violation, ...]
    # pairs not skipped as vacuous by a weak variant
    pairs_decided: int

    @property
    def verdict(self) -> str:
        return "violated" if self.violations else "pass-on-sample"

    @property
    def ok(self) -> bool:
        return not self.violations


def grid_pattern_pairs(u: FirmUtility, box: tuple[float, float],
                       step: float, side: str, count: int,
                       seed: int = 42) -> list[Pair]:
    """Random grid-aligned pairs following one side's comparison pattern.

    From p to p': on side 'purchase-raise', some purchase prices move up by
    whole grid steps (sales frozen); on 'sale-lower', some sale prices move
    down.  Coordinates that stay are copied bit-exactly.  The levels come
    from ``grid_axis`` as one axis, which raises ``EmptyBox`` for a bad box
    or step and ``GridTooLarge`` for too many levels.  On a one-level axis
    there is no pair, and the list is empty.
    """
    rng = np.random.default_rng(seed)
    levels = grid_axis(box, step, 1)
    n = u.network.n
    buys = u.network.buys_mask(u.firm)
    sells = u.network.sells_mask(u.firm)
    movable = [i for i in range(n)
               if (buys if side == "purchase-raise" else sells) >> i & 1]
    if not movable or len(levels) == 1:
        return []
    pairs: list[Pair] = []
    while len(pairs) < count:
        base = [float(levels[rng.integers(len(levels))]) for _ in range(n)]
        other = list(base)
        moved = False
        for i in movable:
            if rng.random() < 0.6:
                k = int(rng.integers(0, 4))
                if side == "purchase-raise":
                    other[i] = float(min(levels[-1], other[i] + k * step))
                else:
                    other[i] = float(max(levels[0], other[i] - k * step))
                moved = moved or other[i] != base[i]
        if not moved:
            continue
        pairs.append((PriceVector(u.network, tuple(base)),
                      PriceVector(u.network, tuple(other))))
    return pairs


def exhaustive_pattern_pairs(u: FirmUtility, box: tuple[float, float],
                             step: float, side: str) -> Iterator[Pair]:
    """All grid pairs following the side's pattern (small grids only), on
    the levels of ``grid_axis`` as one axis."""
    levels = grid_axis(box, step, 1).tolist()
    n = u.network.n
    buys = u.network.buys_mask(u.firm)
    sells = u.network.sells_mask(u.firm)
    movable = buys if side == "purchase-raise" else sells
    per_coord = []
    for i in range(n):
        if movable >> i & 1:
            if side == "purchase-raise":
                per_coord.append([(a, b) for a in levels for b in levels if a <= b])
            else:
                per_coord.append([(a, b) for a in levels for b in levels if a >= b])
        else:
            per_coord.append([(a, a) for a in levels])
    for combo in itertools.product(*per_coord):
        base = tuple(c[0] for c in combo)
        other = tuple(c[1] for c in combo)
        if base != other:
            yield (PriceVector(u.network, base), PriceVector(u.network, other))


# -- clauses ------------------------------------------------------------------
#
# Every clause has one signature: (raising, equal, up, down) -> a boolean
# array that broadcasts to [pairs, bundles, bundles].  Axis 1 is the bundle
# psi demanded at p, axis 2 the bundle psi' demanded at p'.  ``raising[k]``
# says pair k is purchase-raise (else sale-lower), ``equal[k]`` is the
# bitmask of trades priced alike at p and p', and ``up`` / ``down`` hold each
# feasible bundle's purchases / sales as bitmasks.

def _same_side(raising, equal, up, down):
    """Same-side inclusion: the witness's trades on the moving side whose
    prices stayed put are kept by the bundle at p'."""
    own = np.where(raising[:, None], up, down)
    return (own & equal[:, None])[:, :, None] & ~own[:, None, :] == 0


def _cross_side(raising, equal, up, down):
    """Cross-side inclusion: the bundle at p' does nothing on the other side
    that the witness at p does not."""
    other = np.where(raising[:, None], down, up)
    return other[:, None, :] & ~other[:, :, None] == 0


def _aggregate_law(raising, equal, up, down):
    """Net-trade index |purchases| - |sales| weakly falls from p to p' on a
    purchase-raise, weakly rises on a sale-lower."""
    net = np.bitwise_count(up).astype(np.intp) - np.bitwise_count(down)
    gap = net[:, None] - net[None, :]
    return np.where(raising[:, None, None], gap >= 0, gap <= 0)


def _single_improvement(raising, equal, up, down):
    """From the witness at p to the bundle at p': at most one purchase
    dropped or sale added, and at most one purchase added or sale dropped,
    whatever the side of the pair."""
    count = np.bitwise_count
    a, a2, d, d2 = up[:, None], up[None, :], down[:, None], down[None, :]
    return ((count(a & ~a2) + count(d2 & ~d) <= 1)
            & (count(a2 & ~a) + count(d & ~d2) <= 1))[None]


# -- generic quantifier engine ----------------------------------------------

# pairs read from the pair source per block; the clause arrays of a block
# hold PAIR_BLOCK * bundles^2 entries
PAIR_BLOCK = 256
# a check stops after the pair that brings its violations to this count
MAX_VIOLATIONS = 25


def _run_pairs(u: FirmUtility, name: str, variant: str, pairs: Iterable[Pair],
               eps_tie: float, clauses, single_only: bool = False,
               contraction: bool = False, side: str | None = None,
               one_move: bool = False) -> PropertyReport:
    """Run 'for all bundles on one side there exists a witness on the other
    side satisfying every clause' over all pairs, both movement directions.

    Expansion quantifies over D(p') with witness in D(p); contraction swaps
    the roles.  Weak variants set single_only: pairs with multi-valued
    demand at either point are skipped (vacuous pass).  With ``side`` only
    that side's pairs are tested; with ``one_move`` a pair moving more than
    one price raises ``PatternViolation``.

    Pairs go in blocks of ``PAIR_BLOCK``: the demand sets of a block come
    from one value matrix over its stacked p and p' rows, and each clause is
    one array expression over all its pairs.  A pair matching no one-sided
    pattern, or with a utility that is not finite, raises once every pair
    before it is tested, unless the check stopped before it.
    """
    net = u.network
    masks = u.feasible_masks()
    buys, sells = net.buys_mask(u.firm), net.sells_mask(u.firm)
    up = np.array([m & buys for m in masks], dtype=np.int64)
    down = np.array([m & sells for m in masks], dtype=np.int64)
    bit = np.int64(1) << np.arange(net.n, dtype=np.int64)
    bought, sold = (buys & bit) != 0, (sells & bit) != 0
    violations: list[Violation] = []
    tested = decided = 0
    source = iter(pairs)
    while len(violations) < MAX_VIOLATIONS and (
            block := list(itertools.islice(source, PAIR_BLOCK))):
        # prices[k] stacks the p and p' rows of pair k
        prices = np.fromiter(itertools.chain.from_iterable(
            a.values + b.values for a, b in block), float).reshape(-1, 2, net.n)
        p, q = prices[:, 0], prices[:, 1]
        if one_move and ((p != q).sum(1) > 1).any():
            raise PatternViolation("single-improvement pairs move one coordinate")
        equal = p == q
        raising = ((equal | ~sold) & ((p <= q) | ~bought)).all(1)
        lowering = ((equal | ~bought) & ((p >= q) | ~sold)).all(1)
        mixed = ~(raising | lowering)
        end, error = len(block), None
        if mixed.any():
            end = int(mixed.argmax())
            error = PatternViolation(
                f"pair {block[end][0].values} -> {block[end][1].values} "
                "matches no one-sided pattern")
        rows = np.arange(end)
        if side is not None:
            rows = rows[raising[:end] == (side == "purchase-raise")]
        points = prices[rows].reshape(-1, net.n)
        try:
            v = u.value_matrix(list(points.T))
        except NonFiniteUtility as err:
            rows, error = rows[:err.row // 2], err
            v = u.value_matrix(list(points[:2 * len(rows)].T))
        demand = v >= v.max(1, keepdims=True) - eps_tie
        demand = demand.reshape(len(rows), 2, len(masks))
        at_p, at_q = demand[:, 0], demand[:, 1]
        ok = reduce(np.logical_and,
                    (cl(raising[rows], equal[rows] @ bit, up, down)
                     for cl in clauses))
        if contraction:
            fail = at_p & ~(ok & at_q[:, None, :]).any(2)
        else:
            fail = at_q & ~(ok & at_p[:, :, None]).any(1)
        counted = np.ones(len(rows), dtype=bool)
        if single_only:
            counted = (at_p.sum(1) == 1) & (at_q.sum(1) == 1)
            fail &= counted[:, None]
        total = len(violations) + np.cumsum(fail.sum(1))
        if (total >= MAX_VIOLATIONS).any():
            rows = rows[:int((total >= MAX_VIOLATIONS).argmax()) + 1]
            error = None
        tested += len(rows)
        decided += int(counted[:len(rows)].sum())
        for k, j in np.argwhere(fail[:len(rows)]).tolist():
            a, b = block[rows[k]]
            violations.append(Violation(
                a.values, b.values, masks[j],
                f"{name}/{variant}: no witness for bundle "
                f"{sorted(net.ids_of(masks[j]))} on side "
                f"{'purchase-raise' if raising[rows[k]] else 'sale-lower'}"))
        if error is not None:
            raise error
    return PropertyReport(name, variant, tested, tuple(violations), decided)


def check_same_side(u: FirmUtility, variant: str, pairs: Iterable[Pair],
                    eps_tie: float = EPS_TIE) -> PropertyReport:
    return _run_pairs(u, "same-side-substitutability", variant, pairs, eps_tie,
                      [_same_side], single_only=variant == "weak",
                      contraction=variant == "contraction")


def check_cross_side(u: FirmUtility, variant: str, pairs: Iterable[Pair],
                     eps_tie: float = EPS_TIE) -> PropertyReport:
    return _run_pairs(u, "cross-side-complementarity", variant, pairs, eps_tie,
                      [_cross_side], single_only=variant == "weak",
                      contraction=variant == "contraction")


def check_aggregate_law(u: FirmUtility, law: str, variant: str,
                        pairs: Iterable[Pair],
                        eps_tie: float = EPS_TIE) -> PropertyReport:
    """Law of aggregate demand ('demand') or supply ('supply').

    The demand law constrains pairs that move purchase prices; the supply
    law constrains sale-price moves.  Pairs from the other side are skipped.
    """
    return _run_pairs(u, f"aggregate-law-of-{law}", variant, pairs, eps_tie,
                      [_aggregate_law], single_only=variant == "weak",
                      side="purchase-raise" if law == "demand" else "sale-lower")


def check_full_substitutability(u: FirmUtility, variant: str,
                                pairs: Iterable[Pair],
                                eps_tie: float = EPS_TIE) -> PropertyReport:
    """Same-side and cross-side clauses with a shared witness per bundle."""
    return _run_pairs(u, "full-substitutability", variant, pairs, eps_tie,
                      [_same_side, _cross_side], single_only=variant == "weak",
                      contraction=variant == "contraction")


def check_monotone_substitutability(u: FirmUtility, pairs: Iterable[Pair],
                                    eps_tie: float = EPS_TIE) -> PropertyReport:
    """One witness satisfying same-side, cross-side, and the aggregate-law
    inequality simultaneously."""
    return _run_pairs(u, "monotone-substitutability", "strong", pairs, eps_tie,
                      [_same_side, _cross_side, _aggregate_law])


def check_single_improvement(u: FirmUtility, pairs: Iterable[Pair],
                             eps_tie: float = EPS_TIE) -> PropertyReport:
    """Every newly demanded bundle is reachable from an old one by adding at
    most one trade on each side and dropping at most one on each side.
    Each block of pairs is checked to move one coordinate before it runs."""
    return _run_pairs(u, "single-improvement", "strong", pairs, eps_tie,
                      [_single_improvement], one_move=True)


def check_nib(u: FirmUtility, grid: Iterable[PriceVector],
              eps_tie: float = EPS_TIE) -> PropertyReport:
    """No isolated bundles: every demanded bundle is uniquely demanded at
    some nearby price vector."""
    violations = []
    tested = 0
    for p in grid:
        tested += 1
        for bundle in demand_set(u, p, eps_tie).bundles:
            q = nib_witness(u, p, bundle, eps_tie=eps_tie)
            if q is None:
                violations.append(Violation(
                    p.values, p.values, bundle,
                    f"no isolation witness for "
                    f"{sorted(u.network.ids_of(bundle))}"))
    return PropertyReport("no-isolated-bundles", "sampled", tested,
                          tuple(violations), tested)


def check_bounds(u: FirmUtility, kind: str, box: tuple[float, float],
                 samples: int, K: float, seed: int = 42,
                 eps_tie: float = EPS_TIE) -> PropertyReport:
    """Sampled boundedness checks (necessary conditions only).

    BCV: whenever a bundle beats the empty-handed utility at the same
    prices, its net transfer (receipts minus payments) stays above -K;
    each sample reads the firm's row once.  BWP: at sampled
    prices, demanded purchases are priced below K and sales above -K.
    """
    if kind not in ("BCV", "BWP"):
        raise UnknownBoundKind(f"unknown bound kind {kind!r}")
    rng = np.random.default_rng(seed)
    lo, hi = box
    n = u.network.n
    buys = u.network.buys_mask(u.firm)
    sells = u.network.sells_mask(u.firm)
    violations = []
    for _ in range(samples):
        p = tuple(rng.uniform(lo, hi, size=n).tolist())
        if kind == "BCV":
            row = u.values(p)
            # masks ascend, so the empty bundle comes first; an infeasible
            # one is worth minus infinity
            outside = row[0] if 0 in u.table else -np.inf
            for mask, v in zip(u.feasible_masks(), row):
                if mask == 0 or not v > outside:
                    continue
                transfer = sum(
                    (p[i] if sells >> i & 1 else -p[i])
                    for i in range(n) if mask >> i & 1)
                if transfer <= -K:
                    violations.append(Violation(
                        p, p, mask,
                        f"net transfer {transfer:.3f} below -K"))
        else:
            pv = PriceVector(u.network, p)
            for mask in demand_set(u, pv, eps_tie).bundles:
                for i in range(n):
                    if not mask >> i & 1:
                        continue
                    if buys >> i & 1 and not p[i] < K:
                        violations.append(Violation(p, p, mask,
                                                    "purchase price >= K"))
                    if sells >> i & 1 and not p[i] > -K:
                        violations.append(Violation(p, p, mask,
                                                    "sale price <= -K"))
        if len(violations) > 20:
            break
    return PropertyReport(f"bounded-{kind.lower()}", "sampled", samples,
                          tuple(violations), samples)
