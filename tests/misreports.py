"""The per-misreport manipulation search, the oracle of the batched
``mechanisms.manipulation_search``.

Each joint misreport builds its reported profile, a truncated outside
option (``truncate_at_outside``) or an uplifted trade value (a table entry
``e + a``) as a new ``FirmUtility``, and runs ``buyer_optimal_mechanism``
on it, as the search did one misreport at a time."""

import itertools

from netclear import expr as ex
from netclear.errors import NoEquilibriumFound, NotTerminalBuyers, NotUnitDemand
from netclear.mechanisms import (
    GAIN_TOL,
    Deviation,
    ManipulationReport,
    _utility_of,
    buyer_optimal_mechanism,
)
from netclear.model import terminal_roles
from netclear.utility import FirmUtility, is_unit_demand


def truncate_at_outside(u: FirmUtility, new_outside: float) -> FirmUtility:
    """Replace a unit-demand buyer's outside-option value."""
    if not is_unit_demand(u):
        raise NotUnitDemand(u.firm)
    table = dict(u.table)
    table[0] = ex.num(new_outside)
    return FirmUtility(u.firm, u.network, table)


def reported_options(fu: FirmUtility, levels, amounts):
    """(name, reported utility) of the truthful report, each truncation
    level, and each amount added to each upstream trade's value."""
    yield "truthful", fu
    for lvl in levels:
        yield f"truncate@{lvl}", truncate_at_outside(fu, lvl)
    buys = fu.network.buys_mask(fu.firm)
    for i, t in enumerate(fu.network.trades):
        mask = 1 << i
        if not (buys & mask) or mask not in fu.table:
            continue
        for a in amounts:
            table = dict(fu.table)
            table[mask] = ex.add(table[mask], ex.num(a))
            yield f"uplift[{t.id}]+{a}", FirmUtility(fu.firm, fu.network, table)


def loop_search(u_true, coalition, search, truncation_levels=(), uplift_amounts=()):
    """``manipulation_search`` one reported profile and mechanism call at a
    time, stopping at the first misreport in which every member gains."""
    roles = terminal_roles(u_true.network)
    for f in coalition:
        if roles.get(f) != "terminal-buyer" or not is_unit_demand(u_true.firms[f]):
            raise NotTerminalBuyers(f)
    if not coalition:
        return ManipulationReport((), 0, None, ())
    truthful = buyer_optimal_mechanism(u_true, search)
    base = {f: _utility_of(u_true.firms[f], truthful.bundle, truthful.prices)
            for f in coalition}
    fallbacks = int(truthful.rule.endswith("fallback-lex-min"))
    options = [list(reported_options(u_true.firms[f], truncation_levels, uplift_amounts))
               for f in coalition]
    tried = skipped = 0
    all_gain = None
    some_gain = []
    for combo in itertools.product(*options):
        if all(name == "truthful" for name, _ in combo):
            continue
        tried += 1
        reported = u_true.replace(**{f: fu for f, (_name, fu) in zip(coalition, combo)})
        try:
            outcome = buyer_optimal_mechanism(reported, search)
        except NoEquilibriumFound:
            skipped += 1
            continue
        fallbacks += outcome.rule.endswith("fallback-lex-min")
        deltas = {f: _utility_of(u_true.firms[f], outcome.bundle, outcome.prices) - base[f]
                  for f in coalition}
        dev = Deviation(tuple(name for name, _ in combo), deltas)
        if all(d > GAIN_TOL for d in deltas.values()):
            all_gain = dev
            break
        if any(d > GAIN_TOL for d in deltas.values()) and len(some_gain) < 10:
            some_gain.append(dev)
    return ManipulationReport(tuple(coalition), tried, all_gain, tuple(some_gain),
                              skipped, fallbacks)
