"""Buyer-optimal mechanism selection and group-strategy-proofness search.

The mechanism ranks the found set by ``equilibrium.dominant``, the one
dominance rule of the extremal check, and builds only the record it picks.
The manipulation search ranks every joint misreport by the same rule, from
one scan and one record-kernel call per block of misreports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .demand import EPS_TIE
from .equilibrium import (
    DEDUP_TOL,
    EPS_EQ,
    EquilibriumRecord,
    _compiled,
    _dedupe,
    _support_tie,
    dominant,
    find_equilibria,
    grid_axis,
)
from .errors import (
    InfeasibleAllocation,
    NoEquilibriumFound,
    NotTerminalBuyers,
    NotUnitDemand,
    RepeatedCoalitionMember,
)
from .model import PriceVector, terminal_roles
from .utility import INFEASIBLE, FirmUtility, UtilityProfile, is_unit_demand

GAIN_TOL = 1e-9  # a member gains when their true utility rises by more


@dataclass(frozen=True)
class SearchConfig:
    box: tuple[float, float]
    step: float = 0.25
    eps_eq: float = EPS_EQ
    eps_tie: float = EPS_TIE


@dataclass(frozen=True)
class MechanismOutcome:
    bundle: int  # designated global support
    prices: PriceVector
    allocation_prices: dict[str, float]  # realized trades only
    rule: str
    record: EquilibriumRecord
    reported: UtilityProfile = field(compare=False, repr=False)

    @cached_property
    def utilities(self) -> dict[str, float]:
        """Per firm, its utility for its share of the bundle at the prices
        under the reported profile; computed when first read."""
        return {f: _utility_of(self.reported.firms[f], self.bundle, self.prices)
                for f in sorted(self.reported.firms)}


def buyer_optimal_mechanism(u: UtilityProfile,
                            search: SearchConfig) -> MechanismOutcome:
    """Pick the equilibrium every terminal buyer weakly prefers.

    The grid is scanned without descent.  Falls back to the
    lexicographically smallest price vector if no record dominates for all
    buyers (hypothesis failure; flagged by rule suffix).  Designated support
    is the lowest bundle in bitset order.  Both choices read the found
    set's arrays; only the chosen record is built, and the outcome's
    ``utilities`` only when read.
    """
    found = find_equilibria(u, search.box, search.step, refine=False,
                            eps_eq=search.eps_eq, eps_tie=search.eps_tie)
    if not found:
        raise NoEquilibriumFound("no equilibrium on the search grid")
    buyers = found._cp.of_role("terminal-buyer")
    (row,), (some,) = dominant(found.prices, found.best[:, buyers])
    rule = "buyer-optimal" if some else "buyer-optimal/fallback-lex-min"
    rec = found[int(row)]
    bundle = rec.designated_support
    alloc = {t.id: rec.prices.values[i]
             for i, t in enumerate(u.network.trades) if bundle >> i & 1}
    return MechanismOutcome(bundle, rec.prices, alloc, rule, rec, u)


def _utility_of(fu: FirmUtility, global_bundle: int, p: PriceVector) -> float:
    v = fu.value(global_bundle & fu.omega, p.values)
    if v is INFEASIBLE:
        raise InfeasibleAllocation(
            f"allocation {fu.network.ids_of(global_bundle & fu.omega)} is "
            f"infeasible for firm {fu.firm}")
    return v


# -- misreport families ------------------------------------------------------

def truncation_reports(fu: FirmUtility, levels: Iterable[float]):
    """Unit-demand outside-option truncations, as table edits: (name, the
    empty bundle, set in place, the level)."""
    if not is_unit_demand(fu):
        raise NotUnitDemand(fu.firm)
    for lvl in levels:
        yield f"truncate@{lvl}", 0, True, float(lvl)


def uplift_reports(fu: FirmUtility, amounts: Iterable[float]):
    """Raise the reported value of one upstream trade by a constant, as table
    edits: (name, the trade's bundle, not set but added, the amount)."""
    buys = fu.network.buys_mask(fu.firm)
    for i, t in enumerate(fu.network.trades):
        mask = 1 << i
        if not (buys & mask) or mask not in fu.table:
            continue
        for a in amounts:
            yield f"uplift[{t.id}]+{a}", mask, False, float(a)


@dataclass(frozen=True)
class Deviation:
    descriptors: tuple[str, ...]
    deltas: dict[str, float]  # true-utility change per coalition member


@dataclass(frozen=True)
class ManipulationReport:
    coalition: tuple[str, ...]
    tried: int
    all_gain: Deviation | None  # every member strictly better off
    some_gain: tuple[Deviation, ...]  # diagnostics: at least one member gains
    skipped: int = 0  # misreports dropped because they had no equilibrium
    fallbacks: int = 0  # outcomes, truthful included, from the lex-min fallback

    @property
    def ok(self) -> bool:
        return self.all_gain is None


def manipulation_search(u_true: UtilityProfile, coalition: Sequence[str],
                        search: SearchConfig,
                        truncation_levels: Sequence[float] = (),
                        uplift_amounts: Sequence[float] = (),
                        mech=buyer_optimal_mechanism) -> ManipulationReport:
    """Scan joint misreports drawn from the truncation and single-trade
    uplift families; a violation needs EVERY coalition member to strictly
    gain under their true utilities.  ``mech`` gives only the truthful
    outcome, which gains are measured from.

    A misreport edits one column of a member's truthful values, so the
    members' options (truthful, truncations, uplifts) combine, in product
    order, over the truthful profile's tables: one scan for all
    (``option_hits``), then per block one record-kernel call with the
    columns edited per row, and each combination ranked as the mechanism
    ranks its found set.  One without a record counts in ``skipped``; the
    search stops at the first in which every member gains.
    """
    roles = terminal_roles(u_true.network)
    for f in coalition:
        if roles.get(f) != "terminal-buyer" or not is_unit_demand(u_true.firms[f]):
            raise NotTerminalBuyers(f)
    if len(set(coalition)) < len(coalition):
        raise RepeatedCoalitionMember(f"coalition {list(coalition)} names a firm twice")
    if not coalition:
        return ManipulationReport((), 0, None, ())

    truthful = mech(u_true, search)
    base = [_utility_of(u_true.firms[f], truthful.bundle, truthful.prices) for f in coalition]
    fallbacks = int(truthful.rule.endswith("fallback-lex-min"))
    cp = _compiled(u_true)
    names, options = [], {}
    for f in coalition:
        fu = u_true.firms[f]
        opts = [("truthful", None, False, 0.0), *truncation_reports(fu, truncation_levels),
                *uplift_reports(fu, uplift_amounts)]
        names.append([name for name, *_ in opts])
        # per option the edited column of the firm's row (-1: none), as _edit reads it
        options[cp.firms.index(f)] = tuple(map(np.array, zip(*(
            (-1 if mask is None else fu.feasible_masks().index(mask), put, c)
            for _name, mask, put, c in opts))))
    sizes = list(map(len, names))

    def deviation(i: int) -> Deviation:
        report = np.unravel_index(done[i], sizes)
        return Deviation(tuple(n[o] for n, o in zip(names, report)),
                         dict(zip(coalition, deltas[i].tolist())))

    tie = _support_tie(search.eps_eq, search.eps_tie)
    buyers = cp.of_role("terminal-buyer")
    axis = grid_axis(search.box, search.step, u_true.network.n)
    tried = skipped = 0
    all_gain, some_gain = None, []
    start = 1  # combination 0 is the truthful report
    for stop, combo, points in cp.option_hits(axis, search.eps_eq + 1e-15, options):
        later = np.searchsorted(combo, start)
        combo, points = combo[later:], points[later:]
        z, fit, best = cp.evaluate(points, tie, {
            cp.firms[k]: tuple(e[o] for e in options[k])
            for k, o in zip(options, np.unravel_index(combo, sizes))})
        # each combination's found set, as find_equilibria gives it without descent
        rows = np.flatnonzero(np.array(z) <= search.eps_eq)
        if search.step <= 2 * DEDUP_TOL:
            segments = np.split(rows, np.flatnonzero(np.diff(combo[rows])) + 1)
            rows = np.concatenate([_dedupe(points, r, np.ones(len(points), dtype=bool))
                                   for r in segments])
        rows = rows[fit[rows].any(1)]
        picked, some = dominant(points[rows], best[rows][:, buyers], combo[rows])
        picked = rows[picked]
        done, support = combo[picked], fit[picked].argmax(1)
        at = list(points[picked].T)
        deltas = np.stack([cp.utilities[cp.firms[k]].value_matrix(at)[
            np.arange(len(picked)), cp.shares[k][support]] for k in options], 1) - base
        gain = deltas > GAIN_TOL
        every = np.flatnonzero(gain.all(1))
        end = done[every[0]] + 1 if len(every) else stop
        seen = done < end
        tried += end - start
        skipped += end - start - int(seen.sum())
        fallbacks += int((~some[seen]).sum())
        gained = np.flatnonzero(seen & gain.any(1) & ~gain.all(1))
        some_gain += map(deviation, gained[:10 - len(some_gain)])
        if len(every):
            all_gain = deviation(every[0])
            break
        start = stop
    return ManipulationReport(tuple(coalition), int(tried), all_gain, tuple(some_gain),
                              int(skipped), fallbacks)
