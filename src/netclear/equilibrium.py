"""Surplus function, equilibrium tests, grid search, and theorem checks.

An arrangement [Ψ,p] is an equilibrium when every firm's share of Ψ is in
its demand at p.  Equivalently the surplus

    Z(p) = min over global Ψ ⊆ Ω of max over firms of (v^f(p) - u^f(Ψ,p))

is zero.  Z is evaluated exactly: the inner min enumerates the globally
feasible trade sets (assembled by compatibility search over per-firm
feasible bundles), never a heuristic.

``find_equilibria`` scans a price grid for Z <= t.  A firm's utility reads
only some prices, so the test splits by firm: Z(p) <= t iff some feasible
global set leaves every firm within t of its best bundle.  The scan
evaluates each firm's regrets once on the sub-grid of the axes it reads
and combines the per-firm boolean tables by broadcasting (OR over global
sets of an AND over firms).  Grids beyond ``MAX_GRID_POINTS`` raise
``GridTooLarge`` up front instead of scanning without end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from . import expr as ex
from .demand import EPS_TIE, demand_set, indirect_utility
from .errors import (
    AllInfeasible,
    EmptyBox,
    EmptySet,
    GridTooLarge,
    NonFiniteUtility,
    NotAnEquilibriumInput,
)
from .model import (
    PriceVector,
    TradeNetwork,
    join_meet_prices,
    net_index,
    terminal_roles,
)
from .utility import FirmUtility, UtilityProfile

EPS_EQ = 1e-7
DEDUP_TOL = 1e-6
# largest grid find_equilibria scans; about 33x the 12^6 grids of the tests
MAX_GRID_POINTS = 10**8


@dataclass(frozen=True)
class EquilibriumRecord:
    prices: PriceVector
    supports: tuple[int, ...]  # global bundle masks, ascending
    net_indices: dict[str, int]  # for the designated (lowest-mask) support
    surplus: float

    @property
    def designated_support(self) -> int:
        return self.supports[0]


def _compatible_supports(network: TradeNetwork,
                         per_firm: dict[str, Sequence[int]]) -> list[int]:
    """Global bundles whose restriction to each firm lies in that firm's set.

    Backtracking over firms: each firm constrains the in/out status of all
    its trades, and two firms sharing a trade must agree.
    """
    firms = sorted(per_firm)
    results: list[int] = []

    def extend(i: int, decided: int, chosen: int):
        if i == len(firms):
            results.append(chosen)
            return
        f = firms[i]
        omega = network.omega_mask(f)
        for mask in per_firm[f]:
            if (mask ^ chosen) & omega & decided:
                continue
            extend(i + 1, decided | omega, chosen | mask)

    extend(0, 0, 0)
    return sorted(set(results))


class _CompiledProfile:
    """Per-profile caches shared by surplus evaluation and grid scans."""

    def __init__(self, profile: UtilityProfile):
        self.profile = profile
        self.network = profile.network
        self.firms = sorted(profile.firms)

    @cached_property
    def feasible_globals(self) -> list[int]:
        per_firm = {f: self.profile.firms[f].feasible_masks()
                    for f in self.firms}
        out = _compatible_supports(self.network, per_firm)
        if not out:
            raise AllInfeasible("no globally feasible trade set")
        return out

    @cached_property
    def price_axes(self) -> dict[str, tuple[int, ...]]:
        """Trade axes each firm's expressions read (any trade, not just its own)."""
        index = self.network.index
        return {f: tuple(sorted({index[t] for e in self.profile.firms[f].table.values()
                                 for t in ex.price_refs(e)}))
                for f in self.firms}

    def surplus_at(self, values: tuple[float, ...]) -> float:
        """Exact Z at one price tuple."""
        regrets = []
        total = 0.0
        for f in self.firms:
            u = self.profile.firms[f]
            best = None
            table = {}
            for mask in u.feasible_masks():
                v = u.value(mask, values)
                total += v
                table[mask] = v
                if best is None or v > best:
                    best = v
            regrets.append((u.omega, {m: best - v for m, v in table.items()}))
        if not math.isfinite(total):
            raise NonFiniteUtility(f"a utility is not finite at prices {values}")
        z = None
        for g in self.feasible_globals:
            worst = 0.0
            for omega, reg in regrets:
                r = reg[g & omega]
                if r > worst:
                    worst = r
            if z is None or worst < z:
                z = worst
                if z == 0.0:
                    break
        return z

    def _firm_ok(self, f: str, columns: list[np.ndarray],
                 threshold: float) -> dict[int, np.ndarray]:
        """Per bundle of firm f: is its regret at most threshold?

        The result broadcasts over the block but only spans the axes f
        reads.  A NaN anywhere in f's values makes every entry False there.
        """
        u = self.profile.firms[f]
        masks = u.feasible_masks()
        vals = [np.asarray(u.vector_fn(m)(columns), dtype=float) for m in masks]
        best = reduce(np.maximum, vals)
        return {m: best - v <= threshold for m, v in zip(masks, vals)}

    def scan_hits(self, axis: np.ndarray, threshold: float,
                  batch: int) -> list[tuple[float, ...]]:
        """Points of the grid axis^n where Z <= threshold, in row-major order.

        The grid is cut into blocks of at most ``batch`` points: a run of
        rows on one axis, every later axis whole, every earlier axis fixed.
        A firm's table is rebuilt only when the block moves along an axis
        it reads.
        """
        n, levels = self.network.n, len(axis)
        lead = next(d for d in range(n) if levels ** (n - 1 - d) <= batch)
        rows = min(levels, max(1, batch // levels ** (n - 1 - lead)))
        omegas = {f: self.profile.firms[f].omega for f in self.firms}
        tables: dict[str, tuple[tuple, dict[int, np.ndarray]]] = {}
        hits: list[tuple[float, ...]] = []
        for prefix in itertools.product(range(levels), repeat=lead):
            for a in range(0, levels, rows):
                block = [slice(i, i + 1) for i in prefix] + [slice(a, a + rows)] \
                    + [slice(None)] * (n - 1 - lead)
                columns = [axis[s].reshape((1,) * d + (-1,) + (1,) * (n - 1 - d))
                           for d, s in enumerate(block)]
                for f in self.firms:
                    key = tuple(block[d].start for d in self.price_axes[f])
                    if f not in tables or tables[f][0] != key:
                        tables[f] = (key, self._firm_ok(f, columns, threshold))
                hit = np.zeros([c.size for c in columns], dtype=bool)
                for g in self.feasible_globals:
                    hit |= reduce(np.logical_and,
                                  (tables[f][1][g & omegas[f]] for f in self.firms))
                idx = np.argwhere(hit) + [s.start or 0 for s in block]
                hits.extend(map(tuple, axis[idx].tolist()))
        return hits


def surplus(u: UtilityProfile, p: PriceVector, eps_tie: float = EPS_TIE) -> float:
    """Z(p): zero exactly at equilibrium prices, positive elsewhere."""
    return _CompiledProfile(u).surplus_at(p.values)


def is_equilibrium(u: UtilityProfile, p: PriceVector,
                   eps_eq: float = EPS_EQ,
                   eps_tie: float = EPS_TIE,
                   _cp: "_CompiledProfile | None" = None) -> EquilibriumRecord | None:
    """Assemble the supporting trade sets at p; None when there are none."""
    per_firm = {}
    for f in sorted(u.firms):
        per_firm[f] = demand_set(u.firms[f], p, eps_tie).bundles
    supports = _compatible_supports(u.network, per_firm)
    if not supports:
        return None
    designated = supports[0]
    net = {f: net_index(u.network, f, designated) for f in sorted(u.firms)}
    z = (_cp or _CompiledProfile(u)).surplus_at(p.values)
    return EquilibriumRecord(p, tuple(supports), net, z)


@dataclass(frozen=True)
class DescentConfig:
    initial_step: float
    shrink: float = 0.5
    stop: float = 1e-10
    max_cycles: int = 200


def _coordinate_descent(cp: _CompiledProfile, start: tuple[float, ...],
                        cfg: DescentConfig, eps_eq: float) -> tuple[tuple[float, ...], float]:
    """Derivative-free cyclic coordinate line-search on Z."""
    x = list(start)
    z = cp.surplus_at(tuple(x))
    step = cfg.initial_step
    cycles = 0
    n = len(x)
    while step >= cfg.stop and z > eps_eq * 0.1 and cycles < cfg.max_cycles:
        improved = False
        for i in range(n):
            for cand in (x[i] + step, x[i] - step):
                trial = list(x)
                trial[i] = cand
                zt = cp.surplus_at(tuple(trial))
                if zt < z - 1e-15:
                    x, z = trial, zt
                    improved = True
        if not improved:
            step *= cfg.shrink
        cycles += 1
    return tuple(x), z


def find_equilibria(u: UtilityProfile, box: tuple[float, float],
                    step: float = 0.25,
                    refine: DescentConfig | None | bool = True,
                    eps_eq: float = EPS_EQ,
                    eps_tie: float = EPS_TIE,
                    trigger: float | None = None,
                    batch: int = 1 << 17) -> list[EquilibriumRecord]:
    """Grid-scan Z over the box, refine near-zero points, verify survivors.

    The scan keeps the grid points where Z <= ``trigger``, in row-major
    order.  It is factored by firm (see the module docstring): each firm's
    regret test is evaluated once on the sub-grid of the prices it reads,
    and the per-firm tables are combined by boolean broadcasts in blocks
    of at most ``batch`` points.  A grid of more than ``MAX_GRID_POINTS``
    points raises ``GridTooLarge`` before anything is allocated.

    Completeness is relative to the grid: connected equilibrium continua come
    back as the grid points (plus descent refinements) that hit them, after
    deduplication at infinity-distance 1e-6.
    """
    lo, hi = box
    if not (hi > lo and step > 0 and math.isfinite((hi - lo) / step)):
        raise EmptyBox(f"bad box {box} / step {step}")
    n = u.network.n
    if n == 0:
        p0 = PriceVector(u.network, ())
        return [EquilibriumRecord(p0, (0,), {}, 0.0)]
    points = math.ceil((hi + step / 2 - lo) / step) ** n
    if points > MAX_GRID_POINTS:
        raise GridTooLarge(
            f"{points} grid points exceed the scan cap of {MAX_GRID_POINTS}",
            points)
    if refine is True:
        refine = DescentConfig(initial_step=step / 2)
    elif refine is False:
        refine = None
    if trigger is None:
        trigger = step / 2 if refine is not None else eps_eq
    cp = _CompiledProfile(u)
    axis = np.round(np.arange(lo, hi + step / 2, step), 12)
    candidates = cp.scan_hits(axis, trigger + 1e-15, max(1, batch))
    # refine and validate
    found: list[tuple[tuple[float, ...], float]] = []
    for cand in candidates:
        z = cp.surplus_at(cand)
        if z <= eps_eq:
            found.append((cand, z))
        elif refine is not None:
            refined, zr = _coordinate_descent(cp, cand, refine, eps_eq)
            if zr <= eps_eq:
                found.append((refined, zr))
    # dedupe at infinity distance; raw grid points are already distinct
    if refine is None and step > 2 * DEDUP_TOL:
        kept = [point for point, _z in found]
    else:
        kept = []
        for point, z in found:
            if any(max(abs(a - b) for a, b in zip(point, q)) <= DEDUP_TOL
                   for q in kept):
                continue
            kept.append(point)
    records = []
    support_tie = max(eps_tie, 10 * eps_eq)
    for point in kept:
        rec = is_equilibrium(u, PriceVector(u.network, point),
                             eps_eq=eps_eq, eps_tie=support_tie, _cp=cp)
        if rec is not None:
            records.append(rec)
    return records


# -- theorem verification ----------------------------------------------------

@dataclass(frozen=True)
class LatticeReport:
    join_prices: tuple[float, ...]
    meet_prices: tuple[float, ...]
    join_record: EquilibriumRecord | None
    meet_record: EquilibriumRecord | None
    join_support_construction: bool | None
    meet_support_construction: bool | None

    @property
    def ok(self) -> bool:
        return self.join_record is not None and self.meet_record is not None


def verify_lattice_pair(u: UtilityProfile, e: EquilibriumRecord,
                        e2: EquilibriumRecord,
                        eps_eq: float = EPS_EQ,
                        eps_tie: float = EPS_TIE) -> LatticeReport:
    """Check that coordinatewise join and meet prices are again equilibria,
    and that the explicit mixed supports (take each trade from whichever of
    the two supports priced it higher / lower) support them."""
    for rec in (e, e2):
        if rec.surplus > 10 * eps_eq or not rec.supports:
            raise NotAnEquilibriumInput(rec.prices.values)
    join, meet = join_meet_prices(e.prices, e2.prices)
    support_tie = max(eps_tie, 10 * eps_eq)
    join_rec = is_equilibrium(u, join, eps_eq, support_tie)
    meet_rec = is_equilibrium(u, meet, eps_eq, support_tie)

    def mixed_support(target: EquilibriumRecord | None, for_join: bool):
        if target is None:
            return None
        ok = False
        n = u.network.n
        for xi in e.supports:
            for xi2 in e2.supports:
                mask = 0
                for i in range(n):
                    a, b = e.prices.values[i], e2.prices.values[i]
                    take_first = a >= b if for_join else a <= b
                    src = xi if take_first else xi2
                    if src >> i & 1:
                        mask |= 1 << i
                if mask in target.supports:
                    ok = True
        return ok

    return LatticeReport(join.values, meet.values, join_rec, meet_rec,
                         mixed_support(join_rec, True),
                         mixed_support(meet_rec, False))


@dataclass(frozen=True)
class RuralHospitalsReport:
    matched: tuple[tuple[int, int], ...]  # (support of e, matching support of e')
    unmatched: tuple[int, ...]  # supports of e with no counterpart

    @property
    def ok(self) -> bool:
        return not self.unmatched


def verify_rural_hospitals_pair(u: UtilityProfile, e: EquilibriumRecord,
                                e2: EquilibriumRecord,
                                eps_eq: float = EPS_EQ) -> RuralHospitalsReport:
    """Every support of e must have a support of e' with identical per-firm
    net-trade indices (purchases minus sales)."""
    for rec in (e, e2):
        if rec.surplus > 10 * eps_eq or not rec.supports:
            raise NotAnEquilibriumInput(rec.prices.values)
    firms = sorted(u.firms)

    def vec(mask: int) -> tuple[int, ...]:
        return tuple(net_index(u.network, f, mask) for f in firms)

    other = {vec(m): m for m in e2.supports}
    matched = []
    unmatched = []
    for m in e.supports:
        v = vec(m)
        if v in other:
            matched.append((m, other[v]))
        else:
            unmatched.append(m)
    return RuralHospitalsReport(tuple(matched), tuple(unmatched))


@dataclass(frozen=True)
class ExtremalReport:
    seller_optimal: EquilibriumRecord | None
    buyer_optimal: EquilibriumRecord | None
    seller_dominant: bool
    buyer_dominant: bool
    coordinatewise_max: bool
    coordinatewise_min: bool


def extremal_equilibria(u: UtilityProfile,
                        found: Sequence[EquilibriumRecord]) -> ExtremalReport:
    """Seller-/buyer-optimal records over the found set.

    An optimum must make EVERY terminal seller (resp. buyer) weakly best off
    simultaneously; when no record dominates, the corresponding slot is None
    (theorem-hypothesis failure, reported rather than raised).  Ties break
    lexicographically on prices.
    """
    if not found:
        raise EmptySet("no equilibria to compare")
    roles = terminal_roles(u.network)
    sellers = [f for f, r in roles.items() if r == "terminal-seller"]
    buyers = [f for f, r in roles.items() if r == "terminal-buyer"]

    def utilities(rec: EquilibriumRecord, group) -> tuple[float, ...]:
        return tuple(indirect_utility(u.firms[f], rec.prices) for f in group)

    def dominant(group):
        """Record achieving every group member's maximum simultaneously."""
        per_record = [(rec, utilities(rec, group))
                      for rec in sorted(found, key=lambda r: r.prices.values)]
        ceilings = [max(vals[i] for _, vals in per_record)
                    for i in range(len(group))]
        for rec, vals in per_record:
            if all(v >= c - 1e-9 for v, c in zip(vals, ceilings)):
                return rec
        return None

    seller_opt = dominant(sellers)
    buyer_opt = dominant(buyers)

    prices = [rec.prices.values for rec in found]
    cmax = any(all(all(a >= b - 1e-12 for a, b in zip(p, q)) for q in prices)
               for p in prices)
    cmin = any(all(all(a <= b + 1e-12 for a, b in zip(p, q)) for q in prices)
               for p in prices)
    return ExtremalReport(seller_opt, buyer_opt,
                          seller_opt is not None, buyer_opt is not None,
                          cmax, cmin)
