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

Records are assembled in batches by one kernel,
``_CompiledProfile.evaluate``: per firm a value matrix ``V_f[points,
bundles]``, from which come Z, the supports (global sets whose every share
is within the tie tolerance of the firm's best; these factor by firm
because every trade belongs to some firm) and the indirect utilities.
``find_equilibria``, ``is_equilibrium`` (a batch of one),
``extremal_equilibria``, ``verify_lattice_pair``, ``lattice_pairs`` and
``grid_surplus`` go through it; the scalar ``surplus_at`` remains for
coordinate descent and ``surplus``.  The compiled caches of a profile are
built once per profile object and dropped with it.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from . import expr as ex
from .demand import EPS_TIE
from .errors import (
    AllInfeasible,
    EmptyBox,
    EmptySet,
    GridTooLarge,
    NotAnEquilibriumInput,
)
from .model import (
    PriceVector,
    TradeNetwork,
    join_meet,
    join_meet_prices,
    net_index,
    terminal_roles,
)
from .utility import FirmUtility, UtilityProfile

EPS_EQ = 1e-7
DEDUP_TOL = 1e-6
# largest grid find_equilibria scans; about 33x the 12^6 grids of the tests
MAX_GRID_POINTS = 10**8
# default block size of the scan (points) and the record kernel (regret entries)
BATCH = 1 << 17


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
    """Per-profile caches shared by surplus evaluation, grid scans and the
    record kernel.

    It keeps the profile's firm utilities, not the profile itself, so that
    ``_compiled`` can drop it when the profile is freed.
    """

    def __init__(self, profile: UtilityProfile):
        self.utilities = profile.firms
        self.network = profile.network
        self.firms = sorted(profile.firms)
        self._net: dict[int, dict[str, int]] = {}
        self._net_vectors: dict[int, tuple[int, ...]] = {}

    @cached_property
    def feasible_globals(self) -> list[int]:
        per_firm = {f: self.utilities[f].feasible_masks()
                    for f in self.firms}
        out = _compatible_supports(self.network, per_firm)
        if not out:
            raise AllInfeasible("no globally feasible trade set")
        return out

    @cached_property
    def price_axes(self) -> dict[str, tuple[int, ...]]:
        """Trade axes each firm's expressions read (any trade, not just its own)."""
        index = self.network.index
        return {f: tuple(sorted({index[t] for e in self.utilities[f].table.values()
                                 for t in ex.price_refs(e)}))
                for f in self.firms}

    @cached_property
    def shares(self) -> list[np.ndarray]:
        """Per firm: the column of its value matrix holding each feasible
        global set's share of the firm."""
        out = []
        for f in self.firms:
            u = self.utilities[f]
            omega, masks = u.omega, u.feasible_masks()
            column = {m: k for k, m in enumerate(masks)}
            out.append(np.array([column[g & omega] for g in self.feasible_globals],
                                dtype=np.intp))
        return out

    def net_vector(self, mask: int) -> tuple[int, ...]:
        """Per-firm net-trade indices of a global bundle, built once per mask."""
        vec = self._net_vectors.get(mask)
        if vec is None:
            vec = self._net_vectors[mask] = tuple(
                net_index(self.network, f, mask) for f in self.firms)
        return vec

    def surplus_at(self, values: tuple[float, ...]) -> float:
        """Exact Z at one price tuple (``FirmUtility.value`` raises
        ``NonFiniteUtility`` for a value that is not finite)."""
        regrets = []
        for f in self.firms:
            u = self.utilities[f]
            best = None
            table = {}
            for mask in u.feasible_masks():
                v = u.value(mask, values)
                table[mask] = v
                if best is None or v > best:
                    best = v
            regrets.append((u.omega, {m: best - v for m, v in table.items()}))
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

    def evaluate(self, points, tie: float, batch: int = BATCH
                 ) -> tuple[list[float], np.ndarray, np.ndarray]:
        """Exact Z, supports and indirect utilities at each row of points.

        Each firm's value matrix ``V_f[rows, bundles]`` is built once by
        ``FirmUtility.value_matrix``.  With ``best_f`` its row max, ``z[r]``
        is the min over feasible global sets of the max over firms of
        ``best_f - V_f`` at the firm's share; ``fit[r, g]`` says whether
        every share of ``feasible_globals[g]`` is within ``tie`` of
        ``best_f`` (the global set supports row r); ``best[r, k]`` is the
        indirect utility of ``firms[k]``.  Rows go in blocks of at most
        ``batch`` regret entries.  A non-finite value raises
        ``NonFiniteUtility``.
        """
        points = np.asarray(points, dtype=float)
        points = points.reshape(len(points), self.network.n)
        globals_ = len(self.feasible_globals)
        rows = max(1, batch // globals_)
        z = np.empty(len(points))
        fit = np.empty((len(points), globals_), dtype=bool)
        best = np.empty((len(points), len(self.firms)))
        for a in range(0, len(points), rows):
            block = points[a:a + rows]
            columns = list(block.T)
            worst = np.zeros((len(block), globals_))
            ok = np.ones((len(block), globals_), dtype=bool)
            for k, (f, share) in enumerate(zip(self.firms, self.shares)):
                v = self.utilities[f].value_matrix(columns)
                top = v.max(1)
                best[a:a + rows, k] = top
                np.maximum(worst, (top[:, None] - v)[:, share], out=worst)
                ok &= (v >= (top - tie)[:, None])[:, share]
            z[a:a + rows] = worst.min(1)
            fit[a:a + rows] = ok
        return z.tolist(), fit, best

    def record(self, p: PriceVector, fit: np.ndarray,
               z: float) -> EquilibriumRecord | None:
        """The record at p from its row of ``evaluate``; None without a support."""
        supports = tuple(itertools.compress(self.feasible_globals, fit.tolist()))
        if not supports:
            return None
        net = self._net.get(supports[0])
        if net is None:
            net = self._net[supports[0]] = dict(
                zip(self.firms, self.net_vector(supports[0])))
        return EquilibriumRecord(p, supports, dict(net), z)

    def _firm_ok(self, f: str, columns: list[np.ndarray],
                 threshold: float) -> dict[int, np.ndarray]:
        """Per bundle of firm f: is its regret at most threshold?

        The result broadcasts over the block but only spans the axes f
        reads.  A NaN anywhere in f's values makes every entry False there.
        """
        u = self.utilities[f]
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
        omegas = {f: self.utilities[f].omega for f in self.firms}
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


# compiled caches of the live profile objects, keyed by id
_COMPILED: dict[int, _CompiledProfile] = {}


def _compiled(u: UtilityProfile) -> _CompiledProfile:
    """The compiled caches of u, built on first use and dropped when u is
    freed (the caches hold no reference to u itself)."""
    cp = _COMPILED.get(id(u))
    if cp is None:
        cp = _COMPILED[id(u)] = _CompiledProfile(u)
        weakref.finalize(u, _COMPILED.pop, id(u), None)
    return cp


def _support_tie(eps_eq: float, eps_tie: float) -> float:
    """Tie tolerance for the supports of a record: a point accepted with Z
    up to ``eps_eq`` must keep the bundles that tie within that slack."""
    return max(eps_tie, 10 * eps_eq)


def _check_inputs(records: Sequence[EquilibriumRecord], eps_eq: float) -> None:
    """Raise ``NotAnEquilibriumInput`` for a record that is not an
    equilibrium: Z above ``10 * eps_eq`` or no support."""
    for rec in records:
        if rec.surplus > 10 * eps_eq or not rec.supports:
            raise NotAnEquilibriumInput(rec.prices.values)


def surplus(u: UtilityProfile, p: PriceVector, eps_tie: float = EPS_TIE) -> float:
    """Z(p): zero exactly at equilibrium prices, positive elsewhere."""
    return _compiled(u).surplus_at(p.values)


def is_equilibrium(u: UtilityProfile, p: PriceVector,
                   eps_eq: float = EPS_EQ,
                   eps_tie: float = EPS_TIE) -> EquilibriumRecord | None:
    """The record at p, or None when no global trade set gives every firm a
    bundle within ``eps_tie`` of its best: a batch of one through
    ``_CompiledProfile.evaluate``."""
    cp = _compiled(u)
    (z,), (fit,), _ = cp.evaluate([p.values], eps_tie)
    return cp.record(p, fit, z)


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


def grid_surplus(u: UtilityProfile, box: tuple[float, float],
                 step: float) -> tuple[np.ndarray, list[float]]:
    """Every point of the grid, in row-major order, and its exact Z from the
    record kernel."""
    n = u.network.n
    axis = _grid_axis(box, step, n)
    levels = len(axis)
    points = axis[np.indices((levels,) * n).reshape(n, levels ** n).T]
    z, _fit, _best = _compiled(u).evaluate(points, EPS_TIE)
    return points, z


def _grid_axis(box: tuple[float, float], step: float, n: int) -> np.ndarray:
    """Grid levels on one axis of the box; raise before a too-large grid.

    ``EmptyBox`` for a box or step that spans no finite grid,
    ``GridTooLarge`` when ``levels ** n`` exceeds ``MAX_GRID_POINTS``.
    """
    lo, hi = box
    if not (hi > lo and step > 0 and math.isfinite((hi - lo) / step)):
        raise EmptyBox(f"bad box {box} / step {step}")
    points = math.ceil((hi + step / 2 - lo) / step) ** n
    if points > MAX_GRID_POINTS:
        raise GridTooLarge(
            f"{points} grid points exceed the scan cap of {MAX_GRID_POINTS}",
            points)
    return np.round(np.arange(lo, hi + step / 2, step), 12)


def find_equilibria(u: UtilityProfile, box: tuple[float, float],
                    step: float = 0.25,
                    refine: DescentConfig | None | bool = True,
                    eps_eq: float = EPS_EQ,
                    eps_tie: float = EPS_TIE,
                    trigger: float | None = None,
                    batch: int = BATCH) -> list[EquilibriumRecord]:
    """Grid-scan Z over the box, refine near-zero points, verify survivors.

    The scan keeps the grid points where Z <= ``trigger``, in row-major
    order.  It is factored by firm (see the module docstring): each firm's
    regret test is evaluated once on the sub-grid of the prices it reads,
    and the per-firm tables are combined by boolean broadcasts in blocks
    of at most ``batch`` points.  A grid of more than ``MAX_GRID_POINTS``
    points raises ``GridTooLarge`` before anything is allocated.

    One call of the record kernel (``_CompiledProfile.evaluate``) gives
    exact Z and the supports of every candidate; candidates with Z <=
    ``eps_eq`` become records directly.  The rest start a coordinate
    descent on scalar Z (when ``refine``), and the refined points that
    survive deduplication go through one more kernel call.

    Completeness is relative to the grid: connected equilibrium continua come
    back as the grid points (plus descent refinements) that hit them, after
    deduplication at infinity-distance 1e-6.
    """
    n = u.network.n
    axis = _grid_axis(box, step, n)
    if n == 0:
        p0 = PriceVector(u.network, ())
        return [EquilibriumRecord(p0, (0,), {}, 0.0)]
    if refine is True:
        refine = DescentConfig(initial_step=step / 2)
    elif refine is False:
        refine = None
    if trigger is None:
        trigger = step / 2 if refine is not None else eps_eq
    cp = _compiled(u)
    candidates = cp.scan_hits(axis, trigger + 1e-15, max(1, batch))
    support_tie = _support_tie(eps_eq, eps_tie)
    z, fit, _ = cp.evaluate(candidates, support_tie, batch)
    # (point, its row in the kernel output, or None once refined)
    found: list[tuple[tuple[float, ...], int | None]] = []
    for i, cand in enumerate(candidates):
        if z[i] <= eps_eq:
            found.append((cand, i))
        elif refine is not None:
            refined, zr = _coordinate_descent(cp, cand, refine, eps_eq)
            if zr <= eps_eq:
                found.append((refined, None))
    # dedupe at infinity distance; raw grid points are already distinct
    if refine is None and step > 2 * DEDUP_TOL:
        kept = found
    else:
        kept = []
        seen = np.empty((len(found), n))
        for point, row in found:
            if kept and (np.abs(seen[:len(kept)] - point).max(1) <= DEDUP_TOL).any():
                continue
            seen[len(kept)] = point
            kept.append((point, row))
    fresh = [point for point, row in kept if row is None]
    refined_rows = zip(*cp.evaluate(fresh, support_tie, batch)[:2])
    records = []
    for point, row in kept:
        zr, fit_row = (z[row], fit[row]) if row is not None else next(refined_rows)
        rec = cp.record(PriceVector(u.network, point), fit_row, zr)
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
    the two supports priced it higher / lower) support them.  Join and meet
    go through one kernel call."""
    _check_inputs((e, e2), eps_eq)
    join, meet = join_meet_prices(e.prices, e2.prices)
    cp = _compiled(u)
    z, fit, _ = cp.evaluate([join.values, meet.values],
                            _support_tie(eps_eq, eps_tie))
    join_rec = cp.record(join, fit[0], z[0])
    meet_rec = cp.record(meet, fit[1], z[1])

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


def lattice_pairs(u: UtilityProfile, records: Sequence[EquilibriumRecord],
                  eps_eq: float = EPS_EQ, eps_tie: float = EPS_TIE
                  ) -> list[tuple[EquilibriumRecord, EquilibriumRecord,
                                  tuple[float, ...], tuple[float, ...], bool, bool]]:
    """(e, e2, join, meet, join is an equilibrium, meet is an equilibrium)
    for every pair of records e before e2, in ``itertools.combinations``
    order.

    The verdicts are those of ``verify_lattice_pair`` without its mixed
    supports; the distinct join and meet points go through one kernel call.
    """
    _check_inputs(records, eps_eq)
    pairs = []
    points: dict[tuple[float, ...], None] = {}
    for e, e2 in itertools.combinations(records, 2):
        join, meet = join_meet(e.prices.values, e2.prices.values)
        points[join] = points[meet] = None
        pairs.append((e, e2, join, meet))
    _z, fit, _ = _compiled(u).evaluate(list(points), _support_tie(eps_eq, eps_tie))
    ok = dict(zip(points, fit.any(1).tolist()))
    return [(e, e2, join, meet, ok[join], ok[meet]) for e, e2, join, meet in pairs]


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
    net-trade indices (purchases minus sales); each support's index vector
    is built once per profile."""
    _check_inputs((e, e2), eps_eq)
    vec = _compiled(u).net_vector
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
    lexicographically on prices.  Indirect utilities are the row maxima of
    the record kernel's value matrices, one call over all records; a record
    dominates when it is within 1e-9 of every column maximum.  The
    coordinatewise max (min) exists when some record is within 1e-12 of the
    column maxima (minima) of all prices.
    """
    if not found:
        raise EmptySet("no equilibria to compare")
    roles = terminal_roles(u.network)
    ordered = sorted(found, key=lambda r: r.prices.values)
    cp = _compiled(u)
    prices = np.array([rec.prices.values for rec in ordered])
    _z, _fit, best = cp.evaluate(prices, EPS_TIE)

    def dominant(role: str) -> EquilibriumRecord | None:
        """First record achieving every group member's maximum simultaneously."""
        utilities = best[:, [k for k, f in enumerate(cp.firms) if roles[f] == role]]
        ok = (utilities >= utilities.max(0) - 1e-9).all(1)
        return ordered[int(ok.argmax())] if ok.any() else None

    seller_opt = dominant("terminal-seller")
    buyer_opt = dominant("terminal-buyer")
    cmax = bool((prices >= prices.max(0) - 1e-12).all(1).any())
    cmin = bool((prices <= prices.min(0) + 1e-12).all(1).any())
    return ExtremalReport(seller_opt, buyer_opt,
                          seller_opt is not None, buyer_opt is not None,
                          cmax, cmin)
