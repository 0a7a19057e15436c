"""Buyer-optimal mechanism selection and group-strategy-proofness search.

The mechanism ranks the found set by ``equilibrium.dominant``, the one
dominance rule of the extremal check, and builds only the record it picks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import itertools

from . import expr as ex
from .demand import EPS_TIE
from .equilibrium import (
    EPS_EQ,
    EquilibriumRecord,
    dominant,
    find_equilibria,
    lex_first,
)
from .errors import InfeasibleAllocation, NoEquilibriumFound, NotTerminalBuyers
from .model import PriceVector, terminal_roles
from .utility import (
    INFEASIBLE,
    FirmUtility,
    UtilityProfile,
    is_unit_demand,
    truncate_at_outside,
)

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
    row = dominant(found, "terminal-buyer")
    rule = "buyer-optimal"
    if row is None:
        row = lex_first(found.prices)
        rule = "buyer-optimal/fallback-lex-min"
    rec = found[row]
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
    """Unit-demand outside-option truncations."""
    for lvl in levels:
        yield f"truncate@{lvl}", truncate_at_outside(fu, lvl)


def uplift_reports(fu: FirmUtility, amounts: Iterable[float]):
    """Raise the reported value of one upstream trade by a constant."""
    buys = fu.network.buys_mask(fu.firm)
    for i, t in enumerate(fu.network.trades):
        mask = 1 << i
        if not (buys & mask) or mask not in fu.table:
            continue
        for a in amounts:
            table = dict(fu.table)
            table[mask] = ex.add(table[mask], ex.num(a))
            yield f"uplift[{t.id}]+{a}", FirmUtility(fu.firm, fu.network, table)


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
    gain under their true utilities.  Firms outside the coalition are the
    same objects in every misreport profile, so their compiled tables are
    reused.  Misreports without an equilibrium are counted in ``skipped``.
    """
    roles = terminal_roles(u_true.network)
    for f in coalition:
        if roles.get(f) != "terminal-buyer" or not is_unit_demand(u_true.firms[f]):
            raise NotTerminalBuyers(f)
    if not coalition:
        return ManipulationReport((), 0, None, ())

    truthful = mech(u_true, search)
    base = {f: _utility_of(u_true.firms[f], truthful.bundle, truthful.prices)
            for f in coalition}
    fallbacks = int(truthful.rule.endswith("fallback-lex-min"))

    def member_options(f: str):
        fu = u_true.firms[f]
        opts = [("truthful", fu)]
        opts.extend(truncation_reports(fu, truncation_levels))
        opts.extend(uplift_reports(fu, uplift_amounts))
        return opts

    tried = skipped = 0
    all_gain = None
    some_gain = []
    for combo in itertools.product(*(member_options(f) for f in coalition)):
        if all(name == "truthful" for name, _ in combo):
            continue
        tried += 1
        reported = u_true.replace(**{
            f: fu for f, (_name, fu) in zip(coalition, combo)})
        try:
            outcome = mech(reported, search)
        except NoEquilibriumFound:
            skipped += 1
            continue
        fallbacks += outcome.rule.endswith("fallback-lex-min")
        deltas = {
            f: _utility_of(u_true.firms[f], outcome.bundle, outcome.prices)
            - base[f]
            for f in coalition}
        dev = Deviation(tuple(name for name, _ in combo), deltas)
        if all(d > GAIN_TOL for d in deltas.values()):
            all_gain = dev
            break
        if any(d > GAIN_TOL for d in deltas.values()) and len(some_gain) < 10:
            some_gain.append(dev)
    return ManipulationReport(tuple(coalition), tried, all_gain,
                              tuple(some_gain), skipped, fallbacks)
