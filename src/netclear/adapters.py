"""Builds trading networks from matching markets and exchange economies.

Matching markets: one trade per (hospital, doctor) pair, with the hospital
as seller and the doctor as buyer.  The network price of a trade is the
NEGATED salary, so doctors (who like high salaries) dislike high prices and
slot into the unit-demand terminal-buyer machinery, while hospitals prefer
high prices (low salaries) as sellers.

Exchange economies: one trade per (object, owner, other agent).  Utilities
over (object bundle, money) are composed with the trade-price transfer and
extended to negative prices so that the substitutability conditions keep
holding on all of price space:

    u(bundle, p) = u(bundle, max(p, 0)) + sum over sales of min(p, 0)
                                        - sum over purchases of min(p, 0)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from . import expr as ex
from .errors import NonFiniteUtility, NotInducedNetwork, ScenarioValidationError
from .model import PriceVector, TradeNetwork, build_network
from .utility import FirmUtility, UtilityProfile, make_unit_demand


# -- two-sided matching ------------------------------------------------------

@dataclass(frozen=True)
class MatchingMarket:
    """Hospitals hire sets of doctors at per-doctor salaries.

    ``hospital_tables[h]`` maps frozensets of doctor ids to expressions over
    salary symbols ``p[d]`` (utility decreasing in salaries paid).
    ``doctor_tables[d]`` maps hospital ids to expressions in the variable
    ``t`` (the salary, utility strictly increasing); ``outside[d]`` is the
    unemployed utility.
    """

    hospitals: tuple[str, ...]
    doctors: tuple[str, ...]
    hospital_tables: Mapping[str, Mapping[frozenset, ex.Expr]]
    doctor_tables: Mapping[str, Mapping[str, ex.Expr]]
    outside: Mapping[str, float]


def matching_trade_id(h: str, d: str) -> str:
    return f"{h}:{d}"


def induce_from_matching(m: MatchingMarket) -> tuple[TradeNetwork, UtilityProfile]:
    trades = [(matching_trade_id(h, d), h, d)
              for h in m.hospitals for d in m.doctors]
    network = build_network(trades)
    firms: dict[str, FirmUtility] = {}
    for h in m.hospitals:
        table: dict[int, ex.Expr] = {}
        for doctors, expr_ in m.hospital_tables[h].items():
            mask = network.mask_of([matching_trade_id(h, d) for d in doctors])
            # salary symbol p[d] becomes -price of the (h, d) trade
            subs = {d: ex.Op("neg", (ex.Price(matching_trade_id(h, d)),))
                    for d in doctors}
            table[mask] = ex.substitute(expr_, prices=subs)
        firms[h] = FirmUtility(h, network, table)
    for d in m.doctors:
        exprs = {}
        for h, expr_ in m.doctor_tables[d].items():
            tid = matching_trade_id(h, d)
            # salary t becomes -price of the trade
            exprs[tid] = ex.substitute(
                expr_, variables={"t": ex.Op("neg", (ex.Price(tid),))})
        firms[d] = make_unit_demand(d, network, exprs,
                                    outside=float(m.outside.get(d, 0.0)))
    return network, UtilityProfile(network, firms)


# -- exchange economies ------------------------------------------------------

@dataclass(frozen=True)
class ExchangeEconomy:
    """Indivisible objects, endowments partitioning them, utilities over
    (object bundle, net money transfer).

    ``tables[f]`` maps frozensets of object ids to expressions in variable
    ``t`` (net transfer received), strictly increasing in ``t``.
    """

    objects: tuple[str, ...]
    endowments: Mapping[str, tuple[str, ...]]  # agent -> owned objects
    tables: Mapping[str, Mapping[frozenset, ex.Expr]]

    def owner(self, x: str) -> str:
        for f, owned in self.endowments.items():
            if x in owned:
                return f
        raise ScenarioValidationError(f"object {x} has no owner")

    def __post_init__(self):
        seen: set[str] = set()
        for f, owned in self.endowments.items():
            for x in owned:
                if x in seen:
                    raise ScenarioValidationError(f"object {x} owned twice")
                seen.add(x)
        if seen != set(self.objects):
            raise ScenarioValidationError("endowments must partition objects")


def exchange_trade_id(x: str, seller: str, buyer: str) -> str:
    return f"{x}:{seller}>{buyer}"


@dataclass(frozen=True)
class InducedExchange:
    economy: ExchangeEconomy
    network: TradeNetwork
    profile: UtilityProfile
    object_of: Mapping[str, str]  # trade id -> object


def induce_from_exchange(e: ExchangeEconomy) -> InducedExchange:
    agents = sorted(e.endowments)
    trades = []
    object_of = {}
    for x in e.objects:
        owner = e.owner(x)
        for other in agents:
            if other == owner:
                continue
            tid = exchange_trade_id(x, owner, other)
            trades.append((tid, owner, other))
            object_of[tid] = x
    network = build_network(trades)
    firms = {}
    for f in agents:
        firms[f] = _exchange_utility(e, network, object_of, f)
    return InducedExchange(e, network, UtilityProfile(network, firms), object_of)


def _exchange_utility(e: ExchangeEconomy, network: TradeNetwork,
                      object_of: Mapping[str, str], f: str) -> FirmUtility:
    """Feasible bundles: sell own objects (at most once each), buy distinct
    objects; value = table entry at resulting object set, composed with the
    net transfer, plus the negative-price correction terms."""
    owned = set(e.endowments[f])
    table: dict[int, ex.Expr] = {}
    omega = network.omega_mask(f)
    sells = network.sells_mask(f)
    trade_list = [(i, t) for i, t in enumerate(network.trades)
                  if omega >> i & 1]
    for sub in range(1 << len(trade_list)):
        mask = 0
        sale_ids = []
        buy_ids = []
        for k, (i, t) in enumerate(trade_list):
            if sub >> k & 1:
                mask |= 1 << i
                (sale_ids if sells >> i & 1 else buy_ids).append(t.id)
        # f sells only its own objects, and buys each object it lacks on the
        # one trade from its owner, so only a sale can repeat an object
        objs_sold = {object_of[tid] for tid in sale_ids}
        if len(objs_sold) < len(sale_ids):
            continue  # same object sold twice
        final = frozenset((owned - objs_sold) | {object_of[tid] for tid in buy_ids})
        if final not in e.tables[f]:
            continue
        # transfer in clipped (non-negative) prices, plus correction terms
        transfer: ex.Expr = ex.num(0.0)
        correction: ex.Expr = ex.num(0.0)
        for tid in sale_ids:
            transfer = ex.add(transfer, ex.Op("max", (ex.Price(tid), ex.num(0.0))))
            correction = ex.add(correction,
                                ex.Op("min", (ex.Price(tid), ex.num(0.0))))
        for tid in buy_ids:
            transfer = ex.sub(transfer, ex.Op("max", (ex.Price(tid), ex.num(0.0))))
            correction = ex.sub(correction,
                                ex.Op("min", (ex.Price(tid), ex.num(0.0))))
        body = ex.substitute(e.tables[f][final], variables={"t": transfer})
        table[mask] = ex.add(body, correction)
    return FirmUtility(f, network, table)


def uniform_price_project(induced: InducedExchange,
                          p: PriceVector) -> dict[str, float]:
    """Object prices from network prices: the max over the object's trades."""
    if p.network != induced.network:
        raise NotInducedNetwork("price vector not on the induced network")
    out: dict[str, float] = {}
    for x in induced.economy.objects:
        prices = [p.values[i] for i, t in enumerate(induced.network.trades)
                  if induced.object_of[t.id] == x]
        if not prices:
            raise NotInducedNetwork(f"object {x} has no trades")
        out[x] = max(prices)
    return out


def uniform_price_lift(induced: InducedExchange,
                       q: Mapping[str, float]) -> PriceVector:
    """Network prices from object prices: every trade of x priced q_x."""
    missing = set(induced.economy.objects) - set(q)
    if missing:
        raise NotInducedNetwork(f"missing object prices for {sorted(missing)}")
    for x, v in q.items():
        if v < 0:
            raise NotInducedNetwork(f"economy price for {x} is negative")
    vals = tuple(float(q[induced.object_of[t.id]])
                 for t in induced.network.trades)
    return PriceVector(induced.network, vals)


def economy_demand(e: ExchangeEconomy, f: str,
                   q: Mapping[str, float]) -> tuple[list[frozenset], float]:
    """Direct argmax over object bundles at uniform object prices.

    The agent keeps or sells own objects and buys others; net transfer is
    receipts for objects given up minus payments for objects acquired.
    Utilities go through ``expr.eval_expr``, not the induced network's
    compiled rows: this is the interpreted, independent oracle of criterion 7.
    A utility that is not finite raises ``NonFiniteUtility``.
    """
    owned = set(e.endowments[f])
    best = None
    argmax: list[frozenset] = []
    for bundle in e.tables[f]:
        transfer = (sum(q[x] for x in owned - bundle)
                    - sum(q[x] for x in bundle - owned))
        v = ex.eval_expr(e.tables[f][bundle], {}, variables={"t": transfer})
        if not math.isfinite(v):
            raise NonFiniteUtility(f"utility of {f} for {sorted(bundle)} is not finite "
                                   f"at transfer {transfer}")
        if best is None or v > best + 1e-12:
            best = v
            argmax = [bundle]
        elif v >= best - 1e-12:
            argmax.append(bundle)
    return argmax, best if best is not None else float("-inf")


def economy_equilibrium_check(e: ExchangeEconomy, q: Mapping[str, float]) -> bool:
    """Does some allocation of objects put every agent in their demand at q?

    Ties between buyers of an equal-priced object resolve by trying every
    combination of demanded bundles (instances here are tiny).  Built on
    ``economy_demand``, it is the independent oracle that criterion 7 checks
    the induced network's equilibria against.
    """
    agents = sorted(e.endowments)
    demands = []
    for f in agents:
        argmax, _v = economy_demand(e, f, q)
        demands.append(argmax)
    for combo in itertools.product(*demands):
        claimed: list[str] = []
        for bundle in combo:
            claimed.extend(bundle)
        if len(claimed) != len(set(claimed)):
            continue
        if set(claimed) == set(e.objects):
            return True
        # unallocated objects are fine only if their owner gave them up
        # voluntarily; with free disposal we still require full allocation
    return False
