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
from typing import Iterable, Iterator

import numpy as np

from .demand import EPS_TIE, demand_set
from .errors import PatternViolation
from .model import PriceVector, net_index, partition_bundle
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

    @property
    def verdict(self) -> str:
        return "violated" if self.violations else "pass-on-sample"

    @property
    def ok(self) -> bool:
        return not self.violations


def _pair_side(u: FirmUtility, p: PriceVector, p2: PriceVector) -> str:
    """Classify a pair as 'purchase-raise' or 'sale-lower' from p to p'."""
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


def grid_pattern_pairs(u: FirmUtility, box: tuple[float, float],
                       step: float, side: str, count: int,
                       seed: int = 42) -> list[Pair]:
    """Random grid-aligned pairs following one side's comparison pattern.

    From p to p': on side 'purchase-raise', some purchase prices move up by
    whole grid steps (sales frozen); on 'sale-lower', some sale prices move
    down.  Coordinates that stay are copied bit-exactly.
    """
    rng = np.random.default_rng(seed)
    lo, hi = box
    levels = np.round(np.arange(lo, hi + step / 2, step), 12)
    n = u.network.n
    buys = u.network.buys_mask(u.firm)
    sells = u.network.sells_mask(u.firm)
    movable = [i for i in range(n)
               if (buys if side == "purchase-raise" else sells) >> i & 1]
    if not movable:
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
                             step: float, side: str,
                             limit: int | None = None) -> Iterator[Pair]:
    """All grid pairs following the side's pattern (small grids only)."""
    lo, hi = box
    levels = [float(v) for v in np.round(np.arange(lo, hi + step / 2, step), 12)]
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
    emitted = 0
    for combo in itertools.product(*per_coord):
        base = tuple(c[0] for c in combo)
        other = tuple(c[1] for c in combo)
        if base == other:
            continue
        yield (PriceVector(u.network, base), PriceVector(u.network, other))
        emitted += 1
        if limit is not None and emitted >= limit:
            return


# -- clause primitives -------------------------------------------------------

def _sss_clause(u: FirmUtility, side: str, p: PriceVector, p2: PriceVector,
                psi: int, psi2: int) -> bool:
    """Same-side inclusion for witness psi in D(p) against psi2 in D(p')."""
    net = u.network
    if side == "purchase-raise":
        up, _ = partition_bundle(net, u.firm, psi)
        up2, _ = partition_bundle(net, u.firm, psi2)
        kept = 0
        for i in range(net.n):
            if up >> i & 1 and p.values[i] == p2.values[i]:
                kept |= 1 << i
        return kept & ~up2 == 0
    _, down = partition_bundle(net, u.firm, psi)
    _, down2 = partition_bundle(net, u.firm, psi2)
    kept = 0
    for i in range(net.n):
        if down >> i & 1 and p.values[i] == p2.values[i]:
            kept |= 1 << i
    return kept & ~down2 == 0


def _csc_clause(u: FirmUtility, side: str, psi: int, psi2: int) -> bool:
    """Cross-side inclusion: the p'-bundle keeps doing at least as much on
    the other side as the witness at p."""
    net = u.network
    _, down = partition_bundle(net, u.firm, psi)
    up, _ = partition_bundle(net, u.firm, psi)
    _, down2 = partition_bundle(net, u.firm, psi2)
    up2, _ = partition_bundle(net, u.firm, psi2)
    if side == "purchase-raise":
        return down2 & ~down == 0
    return up2 & ~up == 0


def _lad_clause(u: FirmUtility, side: str, psi: int, psi2: int) -> bool:
    """Aggregate-law inequality between witness at p and bundle at p'."""
    a = net_index(u.network, u.firm, psi)
    b = net_index(u.network, u.firm, psi2)
    return a >= b if side == "purchase-raise" else a <= b


# -- generic quantifier engine ----------------------------------------------

def _run_pairs(u: FirmUtility, name: str, variant: str, pairs: Iterable[Pair],
               eps_tie: float, clauses, single_only: bool,
               contraction: bool) -> PropertyReport:
    """Run 'for all bundles on one side there exists a witness on the other
    side satisfying every clause' over all pairs, both movement directions.

    Expansion quantifies over D(p') with witness in D(p); contraction swaps
    the roles.  Weak variants set single_only: pairs with multi-valued
    demand at either point are skipped (vacuous pass).
    """
    violations = []
    tested = 0
    for p, p2 in pairs:
        side = _pair_side(u, p, p2)
        tested += 1
        d = demand_set(u, p, eps_tie)
        d2 = demand_set(u, p2, eps_tie)
        if single_only and not (d.single_valued and d2.single_valued):
            continue
        if contraction:
            targets, witnesses = d.bundles, d2.bundles
        else:
            targets, witnesses = d2.bundles, d.bundles
        for target in targets:
            ok = False
            for witness in witnesses:
                if contraction:
                    psi, psi2 = target, witness
                else:
                    psi, psi2 = witness, target
                if all(cl(u, side, p, p2, psi, psi2) for cl in clauses):
                    ok = True
                    break
            if not ok:
                violations.append(Violation(
                    p.values, p2.values, target,
                    f"{name}/{variant}: no witness for bundle "
                    f"{sorted(u.network.ids_of(target))} on side {side}"))
        if len(violations) >= 25:
            break
    return PropertyReport(name, variant, tested, tuple(violations))


def _wrap(fn):
    return lambda u, side, p, p2, psi, psi2: fn(u, side, psi, psi2)


_SSS = [lambda u, side, p, p2, psi, psi2: _sss_clause(u, side, p, p2, psi, psi2)]
_CSC = [_wrap(_csc_clause)]
_LAD = [_wrap(_lad_clause)]


def check_same_side(u: FirmUtility, variant: str, pairs: Iterable[Pair],
                    eps_tie: float = EPS_TIE) -> PropertyReport:
    return _run_pairs(u, "same-side-substitutability", variant, pairs, eps_tie,
                      _SSS, single_only=variant == "weak",
                      contraction=variant == "contraction")


def check_cross_side(u: FirmUtility, variant: str, pairs: Iterable[Pair],
                     eps_tie: float = EPS_TIE) -> PropertyReport:
    return _run_pairs(u, "cross-side-complementarity", variant, pairs, eps_tie,
                      _CSC, single_only=variant == "weak",
                      contraction=variant == "contraction")


def check_aggregate_law(u: FirmUtility, law: str, variant: str,
                        pairs: Iterable[Pair],
                        eps_tie: float = EPS_TIE) -> PropertyReport:
    """Law of aggregate demand ('demand') or supply ('supply').

    The demand law constrains pairs that move purchase prices; the supply
    law constrains sale-price moves.  Pairs from the other side are skipped.
    """
    relevant = "purchase-raise" if law == "demand" else "sale-lower"

    def filtered():
        for p, p2 in pairs:
            if _pair_side(u, p, p2) == relevant:
                yield p, p2

    return _run_pairs(u, f"aggregate-law-of-{law}", variant, filtered(),
                      eps_tie, _LAD, single_only=variant == "weak",
                      contraction=False)


def check_full_substitutability(u: FirmUtility, variant: str,
                                pairs: Iterable[Pair],
                                eps_tie: float = EPS_TIE) -> PropertyReport:
    """Same-side and cross-side clauses with a shared witness per bundle."""
    report = _run_pairs(u, "full-substitutability", variant, pairs, eps_tie,
                        _SSS + _CSC, single_only=variant == "weak",
                        contraction=variant == "contraction")
    return report


def check_monotone_substitutability(u: FirmUtility, pairs: Iterable[Pair],
                                    eps_tie: float = EPS_TIE) -> PropertyReport:
    """One witness satisfying same-side, cross-side, and the aggregate-law
    inequality simultaneously."""
    return _run_pairs(u, "monotone-substitutability", "strong", pairs, eps_tie,
                      _SSS + _CSC + _LAD, single_only=False, contraction=False)


def check_single_improvement(u: FirmUtility, pairs: Iterable[Pair],
                             eps_tie: float = EPS_TIE) -> PropertyReport:
    """Every newly demanded bundle is reachable from an old one by adding at
    most one trade on each side and dropping at most one on each side."""
    def clause(u, side, p, p2, psi, psi2):
        net = u.network
        up, down = partition_bundle(net, u.firm, psi)
        up2, down2 = partition_bundle(net, u.firm, psi2)
        return ((up & ~up2).bit_count() + (down2 & ~down).bit_count() <= 1
                and (up2 & ~up).bit_count() + (down & ~down2).bit_count() <= 1)

    for p, p2 in pairs:
        diff = sum(1 for a, b in zip(p.values, p2.values) if a != b)
        if diff > 1:
            raise PatternViolation("single-improvement pairs move one coordinate")
    return _run_pairs(u, "single-improvement", "strong", pairs, eps_tie,
                      [clause], single_only=False, contraction=False)


def check_nib(u: FirmUtility, grid: Iterable[PriceVector],
              eps: float = 1e-3, attempts: int = 40,
              eps_tie: float = EPS_TIE) -> PropertyReport:
    """No isolated bundles: every demanded bundle is uniquely demanded at
    some nearby price vector."""
    from .demand import nib_witness

    violations = []
    tested = 0
    for p in grid:
        tested += 1
        for bundle in demand_set(u, p, eps_tie).bundles:
            q = nib_witness(u, p, bundle, eps=eps, attempts=attempts,
                            eps_tie=eps_tie)
            if q is None:
                violations.append(Violation(
                    p.values, p.values, bundle,
                    f"no isolation witness for "
                    f"{sorted(u.network.ids_of(bundle))}"))
    return PropertyReport("no-isolated-bundles", "sampled", tested,
                          tuple(violations))


def check_bounds(u: FirmUtility, kind: str, box: tuple[float, float],
                 samples: int, K: float, seed: int = 42,
                 eps_tie: float = EPS_TIE) -> PropertyReport:
    """Sampled boundedness checks (necessary conditions only).

    BCV: whenever a bundle beats the best empty-handed utility, its net
    transfer (receipts minus payments) stays above -K.  BWP: at sampled
    prices, demanded purchases are priced below K and sales above -K.
    """
    rng = np.random.default_rng(seed)
    lo, hi = box
    n = u.network.n
    buys = u.network.buys_mask(u.firm)
    sells = u.network.sells_mask(u.firm)
    violations = []
    outside = u.value(0, tuple([0.0] * n)) if 0 in u.table else None
    for _ in range(samples):
        p = tuple(rng.uniform(lo, hi, size=n).tolist())
        if kind == "BCV":
            for mask in u.feasible_masks():
                if mask == 0:
                    continue
                if outside is not None and not u.value(mask, p) > outside:
                    continue
                transfer = sum(
                    (p[i] if sells >> i & 1 else -p[i])
                    for i in range(n) if mask >> i & 1)
                if transfer <= -K:
                    violations.append(Violation(
                        p, p, mask,
                        f"net transfer {transfer:.3f} below -K"))
        elif kind == "BWP":
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
        else:
            raise ValueError(f"unknown bound kind {kind!r}")
        if len(violations) > 20:
            break
    return PropertyReport(f"bounded-{kind.lower()}", "sampled", samples,
                          tuple(violations))
