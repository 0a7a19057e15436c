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
and folds them into one bitmask per chunk of at most 64 global sets (bit
j set where the firm's share of set j is within t); a point passes when
the AND of the firms' masks, broadcast over the block, is non-zero in some
chunk.  Grids beyond ``MAX_GRID_POINTS`` raise ``GridTooLarge`` up front
instead of scanning without end.

One kernel, ``_CompiledProfile.evaluate``, builds per firm a value matrix
``V_f[points, bundles]``, giving Z, the supports (global sets whose every
share is within the tie tolerance of the firm's best; these factor by firm
because every trade belongs to some firm) and the indirect utilities.  It
is the one implementation of Z: ``surplus`` is a batch of one point, and
the descent of ``find_equilibria`` sends the trials of all its starts
through it.  ``find_equilibria`` returns its rows as an ``EquilibriumSet``
that builds a record only when indexed; ``dominant``, the one rule of the
extremal check and the mechanism, ranks on the set's indirect utilities.
Compiled tables live with their owners (a profile's with the profile
object, a firm's row closure and scan bit codes with its ``FirmUtility``,
the codes keyed by the feasible global sets that fix their bit
positions), and the feasible global sets are cached by the firms'
feasible bundles, so misreport profiles reuse their unchanged firms'
work.

Grid levels come from ``grid_axis`` alone, which validates the box and step
and caps the grid before anything is allocated.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .demand import EPS_TIE
from .errors import (
    AllInfeasible,
    EmptyBox,
    EmptySet,
    GridTooLarge,
    NotAnEquilibriumInput,
)
from .model import PriceVector, join_meet, net_index, terminal_roles
from .utility import UtilityProfile

EPS_EQ = 1e-7
DEDUP_TOL = 1e-6
# largest grid find_equilibria scans; about 33x the 12^6 grids of the tests
MAX_GRID_POINTS = 10**8
# block size of the scan (points) and the record kernel (regret entries),
# read when they are called
BATCH = 1 << 17
# coordinate descent: the first step is half the grid step, halved after a
# sweep with no gain, until it falls below DESCENT_STOP or after DESCENT_SWEEPS
DESCENT_STOP = 1e-10
DESCENT_SWEEPS = 200
# scan bit codes kept per firm utility object (one entry per global sets,
# grid, threshold and block extent), oldest dropped first
SCAN_TABLES = 4


@dataclass(frozen=True)
class EquilibriumRecord:
    prices: PriceVector
    supports: tuple[int, ...]  # global bundle masks, ascending
    net_indices: dict[str, int]  # for the designated (lowest-mask) support
    surplus: float

    @property
    def designated_support(self) -> int:
        return self.supports[0]


class EquilibriumSet(Sequence):
    """Records held as the kernel's arrays ``prices[R, n]``, supports
    ``fit[R, globals]``, ``z[R]`` and indirect utilities ``best[R, firms]``.
    A record is built when first indexed and then kept; the set equals the
    list of its records."""

    def __init__(self, cp: "_CompiledProfile", prices: np.ndarray, fit: np.ndarray,
                 z: np.ndarray, best: np.ndarray, records: list | None = None):
        self._cp = cp
        self.prices, self.fit, self.z, self.best = prices, fit, z, best
        self._records = records or [None] * len(prices)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i: int) -> EquilibriumRecord:
        rec = self._records[i]
        if rec is None:
            p = PriceVector(self._cp.network, tuple(self.prices[i].tolist()))
            rec = self._records[i] = self._cp.record(p, self.fit[i], float(self.z[i]))
        return rec

    def __eq__(self, other) -> bool:
        is_seq = isinstance(other, (list, EquilibriumSet))
        return list(self) == list(other) if is_seq else NotImplemented


def lex_first(prices: np.ndarray, rows: np.ndarray | None = None) -> int:
    """Index of the first lexicographically smallest price row (where ``rows``)."""
    idx = np.arange(len(prices)) if rows is None else np.flatnonzero(rows)
    return int(idx[np.lexsort((idx, *prices[idx].T[::-1]))[0]])


def _joint_sets(scopes: Sequence[tuple[int, Sequence[int]]]) -> list[int]:
    """Backtracking over (omega, bundles) per firm: each firm fixes all its
    trades, and two firms sharing a trade must agree."""
    results: list[int] = []

    def extend(i: int, decided: int, chosen: int):
        if i == len(scopes):
            results.append(chosen)
            return
        omega, masks = scopes[i]
        for mask in masks:
            if (mask ^ chosen) & omega & decided:
                continue
            extend(i + 1, decided | omega, chosen | mask)

    extend(0, 0, 0)
    return sorted(set(results))


# unsigned dtypes of the scan's bit codes, smallest first; a chunk of global
# sets fills at most the widest
_CODE_TYPES = (np.uint8, np.uint16, np.uint32, np.uint64)
_CHUNK = np.iinfo(_CODE_TYPES[-1]).bits


def _share_bits(rows: Sequence[tuple[int, ...]],
                sizes: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Per firm, the bit weight of each of its bundles over a chunk of
    global sets: bit j is set where the bundle is the firm's share of the
    chunk's set j.  The dtype is the smallest that holds the chunk."""
    dtype = next(t for t in _CODE_TYPES if np.iinfo(t).bits >= len(rows))
    weights = [[0] * k for k in sizes]
    for j, columns in enumerate(rows):
        for w, c in zip(weights, columns):
            w[c] |= 1 << j
    return tuple(np.array(w, dtype=dtype) for w in weights)


@lru_cache(maxsize=256)
def _global_tables(scopes: tuple[tuple[int, tuple[int, ...]], ...]) -> tuple[
        tuple[int, ...], tuple[np.ndarray, ...], tuple[tuple[np.ndarray, ...], ...]]:
    """The feasible global sets; per firm, the row column of its share of
    each set; and per chunk of at most 64 sets, the firms' share bit
    weights (``_share_bits``).  From each firm's (omega, feasible masks) in
    firm order."""
    globals_ = tuple(_joint_sets(scopes))
    if not globals_:
        raise AllInfeasible("no globally feasible trade set")
    rows = tuple(tuple(masks.index(g & omega) for omega, masks in scopes) for g in globals_)
    sizes = [len(masks) for _omega, masks in scopes]
    chunks = tuple(_share_bits(rows[a:a + _CHUNK], sizes)
                   for a in range(0, len(rows), _CHUNK))
    return globals_, tuple(np.array(c, dtype=np.intp) for c in zip(*rows)), chunks


class _CompiledProfile:
    """Per-profile caches shared by the grid scan and the record kernel.

    It is kept on the profile (``_compiled``) and holds the profile's firm
    utilities, not the profile itself, so the two form no reference cycle
    and are freed together.
    """

    def __init__(self, profile: UtilityProfile):
        self.utilities = profile.firms
        self.network = profile.network
        self.firms = sorted(profile.firms)
        self._net_vectors: dict[int, tuple[int, ...]] = {}
        self.feasible_globals, self.shares, self.share_bits = \
            _global_tables(tuple((fu.omega, fu.feasible_masks())
                                 for fu in map(self.utilities.get, self.firms)))

    def net_vector(self, mask: int) -> tuple[int, ...]:
        """Per-firm net-trade indices of a global bundle, built once per mask."""
        vec = self._net_vectors.get(mask)
        if vec is None:
            vec = self._net_vectors[mask] = tuple(
                net_index(self.network, f, mask) for f in self.firms)
        return vec

    def evaluate(self, points, tie: float
                 ) -> tuple[list[float], np.ndarray, np.ndarray]:
        """Exact Z, supports and indirect utilities at each row of points.

        Each firm's value matrix ``V_f[rows, bundles]`` is built once by
        ``FirmUtility.value_matrix``.  With ``best_f`` its row max, ``z[r]``
        is the min over feasible global sets of the max over firms of
        ``best_f - V_f`` at the firm's share; ``fit[r, g]`` says whether
        every share of ``feasible_globals[g]`` is within ``tie`` of
        ``best_f`` (the global set supports row r); ``best[r, k]`` is the
        indirect utility of ``firms[k]``.  Rows go in blocks of at most
        ``BATCH`` regret entries.  A non-finite value raises
        ``NonFiniteUtility``.
        """
        points = np.asarray(points, dtype=float)
        points = points.reshape(len(points), self.network.n)
        globals_ = len(self.feasible_globals)
        rows = max(1, BATCH // globals_)
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
        net = dict(zip(self.firms, self.net_vector(supports[0])))
        return EquilibriumRecord(p, supports, net, z)

    def _firm_codes(self, k: int, columns: list[np.ndarray], threshold: float,
                    key: tuple) -> list[np.ndarray]:
        """Firm k's bit code per chunk of global sets: bit j is set where the
        firm's share of the chunk's set j has regret at most threshold.

        A code broadcasts over the block but only spans the axes the firm
        reads.  The last ``SCAN_TABLES`` are kept on its utility object by
        ``key`` (the feasible global sets, which fix the bit positions; the
        grid axis; the threshold; the block extent on those axes), so every
        profile holding the object reuses them.  A non-finite value raises
        ``NonFiniteUtility``."""
        u = self.utilities[self.firms[k]]
        codes = u._scan.get(key)
        if codes is not None:
            return codes
        with np.errstate(all="ignore"):
            vals = [np.asarray(v, dtype=float) for v in u._row(columns)]
        if not all(np.isfinite(v).all() for v in vals):
            # raises the value matrix's error, naming the block's first bad point
            u.value_matrix([c.ravel() for c in np.broadcast_arrays(*columns)])
        best = reduce(np.maximum, vals)
        ok = [best - v <= threshold for v in vals]
        codes = u._scan[key] = [
            reduce(np.bitwise_or, (t.astype(w.dtype) * w for t, w in zip(ok, chunk[k])))
            for chunk in self.share_bits]
        if len(u._scan) > SCAN_TABLES:
            del u._scan[next(iter(u._scan))]
        return codes

    def scan_hits(self, axis: np.ndarray, threshold: float) -> list[tuple[float, ...]]:
        """Points of the grid axis^n where Z <= threshold, in row-major order.

        The grid is cut into blocks of at most ``BATCH`` points: a run of
        rows on one axis, every later axis whole, every earlier axis fixed.
        Each firm gives one bit code per chunk of global sets
        (``_firm_codes``); a point is a hit where, in some chunk, the AND of
        the firms' codes is non-zero.  A firm's code is computed only when
        its utility object does not hold it yet for the block's extent on
        the axes it reads.
        """
        n, levels = self.network.n, len(axis)
        lead = next(d for d in range(n) if levels ** (n - 1 - d) <= BATCH)
        rows = min(levels, max(1, BATCH // levels ** (n - 1 - lead)))
        grid = (self.feasible_globals, axis.tobytes(), threshold)
        axes = [self.utilities[f].price_axes for f in self.firms]
        hits: list[tuple[float, ...]] = []
        for prefix in itertools.product(range(levels), repeat=lead):
            for a in range(0, levels, rows):
                block = [slice(i, i + 1) for i in prefix] + [slice(a, a + rows)] \
                    + [slice(None)] * (n - 1 - lead)
                columns = [axis[s].reshape((1,) * d + (-1,) + (1,) * (n - 1 - d))
                           for d, s in enumerate(block)]
                codes = [self._firm_codes(k, columns, threshold, grid + tuple(
                    (block[d].start, block[d].stop) for d in read))
                    for k, read in enumerate(axes)]
                hit = reduce(np.logical_or, (reduce(np.bitwise_and, chunk)
                                             for chunk in zip(*codes)))
                shape = tuple(c.size for c in columns)
                if hit.shape != shape:  # an axis that no firm reads
                    hit = np.broadcast_to(hit, shape)
                coords = np.unravel_index(np.flatnonzero(hit), shape)
                hits.extend(zip(*(axis[i + (s.start or 0)].tolist()
                                  for i, s in zip(coords, block))))
        return hits


def _compiled(u: UtilityProfile) -> _CompiledProfile:
    """The compiled caches of u, built on first use and kept on u."""
    if u._compiled is None:
        object.__setattr__(u, "_compiled", _CompiledProfile(u))
    return u._compiled


def _support_tie(eps_eq: float, eps_tie: float) -> float:
    """The one support tie rule: a record's supports are the global sets
    whose every share is within ``max(eps_tie, 10 * eps_eq)`` of the firm's
    best, so a point accepted with Z up to ``eps_eq`` keeps the bundles that
    tie within that slack.  ``find_equilibria``, ``is_equilibrium`` and the
    lattice checks all tie at it."""
    return max(eps_tie, 10 * eps_eq)


def _check_inputs(records: Sequence[EquilibriumRecord], eps_eq: float) -> None:
    """Raise ``NotAnEquilibriumInput`` for a record that is not an
    equilibrium: Z above ``10 * eps_eq`` or no support."""
    for rec in records:
        if rec.surplus > 10 * eps_eq or not rec.supports:
            raise NotAnEquilibriumInput(rec.prices.values)


def surplus(u: UtilityProfile, p: PriceVector) -> float:
    """Z(p): zero exactly at equilibrium prices, positive elsewhere; a
    batch of one through ``_CompiledProfile.evaluate``."""
    return _compiled(u).evaluate([p.values], EPS_TIE)[0][0]


def is_equilibrium(u: UtilityProfile, p: PriceVector,
                   eps_eq: float = EPS_EQ,
                   eps_tie: float = EPS_TIE) -> EquilibriumRecord | None:
    """The record at p, or None when no global trade set gives every firm a
    bundle within the support tie (``_support_tie``) of its best: a batch of
    one through ``_CompiledProfile.evaluate``."""
    cp = _compiled(u)
    (z,), (fit,), _ = cp.evaluate([p.values], _support_tie(eps_eq, eps_tie))
    return cp.record(p, fit, z)


def _coordinate_descent(cp: _CompiledProfile, starts: np.ndarray, z: np.ndarray,
                        step: float, eps_eq: float) -> tuple[np.ndarray, np.ndarray]:
    """Derivative-free cyclic coordinate line-search on Z from each row of
    starts (whose Z is z), all in lockstep; returns the end points and Z.

    Each start keeps its own step, first ``step``, halved after a sweep in
    which it gained nothing.  A start runs while its step is at least
    ``DESCENT_STOP`` and its Z above ``eps_eq / 10``, for at most
    ``DESCENT_SWEEPS`` sweeps.  Per coordinate, the up and down trials of
    all running starts go through one kernel call; a start takes the up
    trial when it lowers Z by more than 1e-15, then the down trial when it
    lowers that Z by more than 1e-15."""
    x, z = starts.copy(), z.copy()
    steps = np.full(len(x), step)
    for _sweep in range(DESCENT_SWEEPS):
        live = np.flatnonzero((steps >= DESCENT_STOP) & (z > eps_eq * 0.1))
        if not len(live):
            break
        improved = np.zeros(len(live), dtype=bool)
        for i in range(x.shape[1]):
            # rows up_0, down_0, up_1, down_1, ...
            trials = np.repeat(x[live], 2, axis=0)
            trials[:, i] += np.stack([steps[live], -steps[live]], 1).ravel()
            zt = np.array(cp.evaluate(trials, EPS_TIE)[0]).reshape(-1, 2)
            zl, xi = z[live], x[live, i]
            for side in (0, 1):
                take = zt[:, side] < zl - 1e-15
                zl = np.where(take, zt[:, side], zl)
                xi = np.where(take, trials[side::2, i], xi)
                improved |= take
            z[live], x[live, i] = zl, xi
        steps[live[~improved]] *= 0.5
    return x, z


def grid_surplus(u: UtilityProfile, box: tuple[float, float],
                 step: float) -> tuple[np.ndarray, list[float]]:
    """Every point of the grid, in row-major order, and its exact Z from the
    record kernel."""
    n = u.network.n
    axis = grid_axis(box, step, n)
    levels = len(axis)
    points = axis[np.indices((levels,) * n).reshape(n, levels ** n).T]
    z, _fit, _best = _compiled(u).evaluate(points, EPS_TIE)
    return points, z


def grid_axis(box: tuple[float, float], step: float, n: int) -> np.ndarray:
    """Grid levels on one axis of the box, for a grid of n axes; raise
    before a too-large grid.  The only place that builds grid levels.

    ``EmptyBox`` for a box or step that spans no finite grid,
    ``GridTooLarge`` when ``levels ** n`` exceeds ``MAX_GRID_POINTS``.
    """
    lo, hi = box
    if not (hi > lo and 0 < step < math.inf and math.isfinite((hi - lo) / step)):
        raise EmptyBox(f"bad box {box} / step {step}")
    points = math.ceil((hi + step / 2 - lo) / step) ** n
    if points > MAX_GRID_POINTS:
        raise GridTooLarge(
            f"{points} grid points exceed the scan cap of {MAX_GRID_POINTS}",
            points)
    return np.round(np.arange(lo, hi + step / 2, step), 12)


def find_equilibria(u: UtilityProfile, box: tuple[float, float],
                    step: float = 0.25, refine: bool = True,
                    eps_eq: float = EPS_EQ,
                    eps_tie: float = EPS_TIE) -> EquilibriumSet:
    """Grid-scan Z over the box, refine near-zero points, verify survivors.

    The scan keeps the grid points where Z <= ``step / 2`` (with
    ``refine``) or Z <= ``eps_eq`` (without), in row-major order.  It is
    factored by firm (see the module docstring): each firm's regret test is
    evaluated once on the sub-grid of the prices it reads and kept as one
    bitmask per chunk of at most 64 global sets, and a point is kept where
    the AND of the firms' bitmasks is non-zero in some chunk, in blocks of
    at most ``BATCH`` points.  A grid of more than ``MAX_GRID_POINTS`` points
    raises ``GridTooLarge`` before anything is allocated.

    One call of the record kernel (``_CompiledProfile.evaluate``) gives
    exact Z, the supports and the indirect utilities of every candidate;
    candidates with Z <= ``eps_eq`` are kept directly.  The rest start a
    coordinate descent on the same kernel's Z (when ``refine``; its first
    step is ``step / 2``, and all starts run in lockstep), and the refined
    points that survive deduplication go through one more kernel call.  The kept
    rows with a support make the returned ``EquilibriumSet``, whose records
    are built only when indexed.

    Completeness is relative to the grid: connected equilibrium continua come
    back as the grid points (plus descent refinements) that hit them, after
    deduplication at infinity-distance 1e-6.
    """
    n = u.network.n
    axis = grid_axis(box, step, n)
    cp = _compiled(u)
    if n == 0:
        # no trades and so no firms: one record at the empty price vector
        return EquilibriumSet(cp, np.empty((1, 0)), np.ones((1, 1), dtype=bool),
                              np.zeros(1), np.empty((1, 0)))
    candidates = cp.scan_hits(axis, (step / 2 if refine else eps_eq) + 1e-15)
    if not candidates:
        return EquilibriumSet(cp, np.empty((0, n)),
                              np.empty((0, len(cp.feasible_globals)), dtype=bool),
                              np.empty(0), np.empty((0, len(cp.firms))))
    points = np.array(candidates, dtype=float).reshape(len(candidates), n)
    support_tie = _support_tie(eps_eq, eps_tie)
    z, fit, best = cp.evaluate(points, support_tie)
    # candidate -> (point, its row in the kernel output, or None once refined)
    hits = {i: (cand, i) for i, cand in enumerate(candidates) if z[i] <= eps_eq}
    starts = [i for i in range(len(candidates)) if i not in hits] if refine else []
    if starts:
        ends, zr = _coordinate_descent(cp, points[starts], np.array(z)[starts], step / 2, eps_eq)
        hits.update((i, (tuple(end), None))
                    for i, end, ze in zip(starts, ends.tolist(), zr.tolist()) if ze <= eps_eq)
    found = [hits[i] for i in sorted(hits)]
    # dedupe at infinity distance; raw grid points are already distinct
    if not refine and step > 2 * DEDUP_TOL:
        kept = found
    else:
        kept = []
        seen = np.empty((len(found), n))
        for point, row in found:
            if kept and (np.abs(seen[:len(kept)] - point).max(1) <= DEDUP_TOL).any():
                continue
            seen[len(kept)] = point
            kept.append((point, row))
    # refined points follow the candidates in the kernel arrays
    fresh = [point for point, row in kept if row is None]
    if fresh:
        zr, fitr, bestr = cp.evaluate(fresh, support_tie)
        points = np.vstack([points, fresh])
        z, fit, best = z + zr, np.vstack([fit, fitr]), np.vstack([best, bestr])
    count = itertools.count(len(candidates))
    rows = np.array([next(count) if row is None else row for _point, row in kept],
                    dtype=np.intp)
    rows = rows[fit[rows].any(1)]
    return EquilibriumSet(cp, points[rows], fit[rows], np.array(z)[rows], best[rows])


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
    follow ``lattice_pairs``' rule (``model.join_meet``), and both records
    come from one kernel call at its support tie."""
    _check_inputs((e, e2), eps_eq)
    join, meet = join_meet(e.prices.values, e2.prices.values)
    cp = _compiled(u)
    z, fit, _ = cp.evaluate([join, meet], _support_tie(eps_eq, eps_tie))
    join_rec, meet_rec = (cp.record(PriceVector(u.network, q), f, zq)
                          for q, f, zq in zip((join, meet), fit, z))

    def mixed_support(target: EquilibriumRecord | None, for_join: bool):
        if target is None:
            return None
        first = sum(1 << i for i, (a, b) in enumerate(zip(e.prices.values, e2.prices.values))
                    if (a >= b if for_join else a <= b))
        return any((xi & first) | (xi2 & ~first) in target.supports
                   for xi in e.supports for xi2 in e2.supports)

    return LatticeReport(join, meet, join_rec, meet_rec,
                         mixed_support(join_rec, True),
                         mixed_support(meet_rec, False))


def lattice_pairs(u: UtilityProfile, records: Sequence[EquilibriumRecord],
                  eps_eq: float = EPS_EQ, eps_tie: float = EPS_TIE
                  ) -> list[tuple[EquilibriumRecord, EquilibriumRecord,
                                  tuple[float, ...], tuple[float, ...], bool, bool]]:
    """(e, e2, join, meet, join is an equilibrium, meet is an equilibrium)
    for every pair of records e before e2, in ``itertools.combinations``
    order.

    Join and meet are taken for all pairs at once, as Python's ``max`` and
    ``min`` take them in ``model.join_meet`` (e2's price only where it is
    strictly larger or smaller), so each coordinate keeps its record's
    exact float.
    Each distinct point, told apart by bit pattern so that 0.0 and -0.0
    stay apart, is one tuple shared by its pairs, and the distinct points
    go through one kernel call.
    """
    _check_inputs(records, eps_eq)
    n = u.network.n
    prices = np.array([rec.prices.values for rec in records],
                      dtype=float).reshape(len(records), n)
    i, j = np.triu_indices(len(records), 1)
    p, q = prices[i], prices[j]
    # rows join_0, meet_0, join_1, meet_1, ...
    both = np.stack([np.where(q > p, q, p), np.where(q < p, q, p)], 1)
    both = both.reshape(2 * len(i), n)
    # sort the rows by bit pattern, so that equal points are adjacent (the
    # constant first key keeps the sort defined when there are no trades)
    bits = both.view(np.int64)
    order = np.lexsort((np.zeros(len(bits)), *bits.T))
    ranked = bits[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(1)
    point = np.empty_like(order)
    point[order] = np.cumsum(new) - 1
    points = both[order[new]]
    _z, fit, _ = _compiled(u).evaluate(points, _support_tie(eps_eq, eps_tie))
    ok = fit.any(1).tolist()
    shared = list(map(tuple, points.tolist()))
    return [(e, e2, shared[a], shared[b], ok[a], ok[b])
            for (e, e2), (a, b) in zip(itertools.combinations(records, 2),
                                       point.reshape(-1, 2).tolist())]


def rural_pairs(u: UtilityProfile, records: Sequence[EquilibriumRecord],
                eps_eq: float = EPS_EQ
                ) -> Iterator[tuple[EquilibriumRecord, EquilibriumRecord, tuple[int, ...]]]:
    """(e, e2, unmatched) for every pair of records e before e2, in
    ``itertools.combinations`` order, where unmatched are the supports of
    e (in e's order) whose per-firm net-trade indices (purchases minus
    sales) no support of e2 has.

    The inputs are checked once, when called, and each record's index
    vectors are built once, so a pair costs one set comparison.
    """
    _check_inputs(records, eps_eq)
    vec = _compiled(u).net_vector
    keys = []
    for rec in records:
        vecs = tuple(map(vec, rec.supports))
        keys.append((rec, vecs, frozenset(vecs)))
    return ((e, e2, () if held <= held2
             else tuple(m for m, v in zip(e.supports, vecs) if v not in held2))
            for (e, vecs, held), (e2, _, held2) in itertools.combinations(keys, 2))


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
    net-trade indices: the one pair of ``rural_pairs`` over (e, e'), with
    each matched support paired with the last support of e' (in mask
    order) that has its indices."""
    ((_e, _e2, unmatched),) = rural_pairs(u, (e, e2), eps_eq)
    vec = _compiled(u).net_vector
    other = {vec(m): m for m in e2.supports}
    return RuralHospitalsReport(
        tuple((m, other[vec(m)]) for m in e.supports if m not in unmatched),
        unmatched)


def dominant(found: EquilibriumSet, role: str) -> int | None:
    """Index of the record of the non-empty set that makes every firm of
    ``role`` (``terminal_roles``) weakly best off at once: within 1e-9 of
    each such firm's largest indirect utility over the set.  Ties break
    lexicographically on prices, then by position; None when no record
    dominates.  ``extremal_equilibria`` and the buyer-optimal mechanism
    both rank by it."""
    roles = terminal_roles(found._cp.network)
    utilities = found.best[:, [k for k, f in enumerate(found._cp.firms) if roles[f] == role]]
    ok = (utilities >= utilities.max(0) - 1e-9).all(1)
    return lex_first(found.prices, ok) if ok.any() else None


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
    lexicographically on prices, then by position in ``found``.  Indirect
    utilities are the set's ``best`` array, which an ``EquilibriumSet`` of
    u already holds and a plain sequence of records gets from one kernel
    call; ``dominant`` picks each side's record.  The coordinatewise max
    (min) exists when some record is within 1e-12 of the column maxima
    (minima) of all prices.
    """
    if not found:
        raise EmptySet("no equilibria to compare")
    cp = _compiled(u)
    if not (isinstance(found, EquilibriumSet) and found._cp is cp):
        prices = np.array([rec.prices.values for rec in found], dtype=float)
        prices = prices.reshape(len(found), u.network.n)
        z, fit, best = cp.evaluate(prices, EPS_TIE)
        found = EquilibriumSet(cp, prices, fit, np.array(z), best, list(found))
    prices = found.prices
    seller, buyer = dominant(found, "terminal-seller"), dominant(found, "terminal-buyer")
    seller_opt = None if seller is None else found[seller]
    buyer_opt = None if buyer is None else found[buyer]
    cmax = bool((prices >= prices.max(0) - 1e-12).all(1).any())
    cmin = bool((prices <= prices.min(0) + 1e-12).all(1).any())
    return ExtremalReport(seller_opt, buyer_opt,
                          seller_opt is not None, buyer_opt is not None,
                          cmax, cmin)
