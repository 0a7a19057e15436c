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

Before the AND, the scan narrows each axis to the levels that can hold a
hit (generalized arc consistency over the masks).  A hit sets one bit in
every firm's mask at its point, so every firm reading an axis sets that
bit somewhere at the hit's level of the axis: a level where, in every
chunk, the AND over the axis' readers of their masks OR-reduced onto the
axis is zero holds no hit and is dropped, the readers' masks are cut to
the kept levels, and this repeats until nothing more drops.  The AND then
runs over the kept levels only and finds the same points in the same
order.  It runs when the grid spans more than one block of ``BATCH``
points and every firm's sub-grid fits in one: below that the dense AND is
cheaper than the narrowing, and above it the masks of a whole sub-grid
would not be bounded by ``BATCH``.  It gains where levels do not tie, as
with non-integer costs and values; where every level keeps a tie (integer
values, zero costs) nothing drops.

One kernel, ``_CompiledProfile.evaluate``, builds per firm a value matrix
``V_f[points, bundles]``, giving Z, the supports (global sets whose every
share is within the tie tolerance of the firm's best; these factor by firm
because every trade belongs to some firm) and the indirect utilities.  It
is the one implementation of Z: ``surplus`` is a batch of one point, and
the descent of ``find_equilibria`` sends the trials of all its starts
through it, one call per round with each start's next positions in it,
writes each end point and its Z over its start's row of the kernel
arrays, and sends the ends it keeps back through it for their supports
and indirect utilities.  ``find_equilibria`` returns its rows as
an ``EquilibriumSet`` that builds a record only when indexed;
``dominant``, the one rule of the extremal check and the mechanism, ranks
on the set's indirect utilities.
Compiled tables live with their owners (a profile's with the profile
object, a firm's row closure and scan bit codes with its ``FirmUtility``,
the codes keyed by the feasible global sets that fix their bit
positions), and the feasible global sets are cached by the firms'
feasible bundles.  A misreport edits one column of a firm's values
(``_edit``), so a manipulation search needs no profile but the truthful
one: ``option_hits`` scans all misreports at once, and ``evaluate`` takes
the edits.

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
    NonFiniteUtility,
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
# threshold and price levels read), oldest dropped first
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

    def of_role(self, role: str) -> list[int]:
        """Indices into ``firms`` of the firms with this ``terminal_roles`` role."""
        roles = terminal_roles(self.network)
        return [k for k, f in enumerate(self.firms) if roles[f] == role]

    def net_vector(self, mask: int) -> tuple[int, ...]:
        """Per-firm net-trade indices of a global bundle, built once per mask."""
        vec = self._net_vectors.get(mask)
        if vec is None:
            vec = self._net_vectors[mask] = tuple(
                net_index(self.network, f, mask) for f in self.firms)
        return vec

    def evaluate(self, points, tie: float, edits: dict | None = None
                 ) -> tuple[list[float], np.ndarray, np.ndarray]:
        """Exact Z, supports and indirect utilities at each row of points.

        Each firm's value matrix ``V_f[rows, bundles]`` is built once by
        ``FirmUtility.value_matrix``, edited per row by ``edits[f]`` when
        given (``_edit``'s arrays, one entry per point).  With ``best_f`` its
        row max, ``z[r]`` is the min over feasible global sets of the max
        over firms of ``best_f - V_f`` at the firm's share; ``fit[r, g]``
        says whether every share of ``feasible_globals[g]`` is within ``tie``
        of ``best_f`` (the global set supports row r); ``best[r, k]`` is the
        indirect utility of ``firms[k]``.  Rows go in blocks of at most
        ``BATCH`` regret entries.  A non-finite value raises
        ``NonFiniteUtility``.
        """
        points = np.asarray(points, dtype=float)
        points = points.reshape(len(points), self.network.n)
        edits = edits or {}
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
                if f in edits:
                    v = _edit(v, np.arange(v.shape[1]),
                              *(e[a:a + rows, None] for e in edits[f]))
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
                    edits: tuple[np.ndarray, ...] | None = None) -> list[np.ndarray]:
        """Firm k's bit code per chunk of global sets: bit j is set where the
        firm's share of the chunk's set j has regret at most threshold.

        A code broadcasts over the columns but only spans the axes the firm
        reads.  The last ``SCAN_TABLES`` are kept on its utility object,
        keyed by the feasible global sets (which fix the bit positions), the
        threshold and the price levels of the columns it reads, so every
        profile holding the object reuses them; ``edits`` (``_edit``'s arrays
        over K options) give codes, not kept, with a leading axis of K.  A
        non-finite value raises ``NonFiniteUtility``, naming the first such
        point of the columns' grid in row-major order."""
        u = self.utilities[self.firms[k]]
        key = (self.feasible_globals, threshold,
               *(columns[d].tobytes() for d in u.price_axes))
        codes = u._scan.get(key)
        if codes is not None and edits is None:
            return codes
        with np.errstate(all="ignore"):
            vals = [np.asarray(v, dtype=float) for v in u._row(columns)]
        if not all(np.isfinite(v).all() for v in vals):
            # raises the value matrix's error, naming the first bad point
            u.value_matrix([c.ravel() for c in np.broadcast_arrays(*columns)])
        if edits is not None:
            edits = [np.reshape(e, (-1,) + (1,) * len(columns)) for e in edits]
            vals = [_edit(v, j, *edits) for j, v in enumerate(vals)]
        best = reduce(np.maximum, vals)
        ok = [best - v <= threshold for v in vals]
        codes = [reduce(np.bitwise_or, (t.astype(w.dtype) * w for t, w in zip(ok, chunk[k])))
                 for chunk in self.share_bits]
        if edits is None:
            u._scan[key] = codes
            if len(u._scan) > SCAN_TABLES:
                del u._scan[next(iter(u._scan))]
        return codes

    def scan_hits(self, axis: np.ndarray, threshold: float) -> list[tuple[float, ...]]:
        """Points of the grid axis^n where Z <= threshold, in row-major order.

        Each firm gives one bit code per chunk of global sets
        (``_firm_codes``); a point is a hit where, in some chunk, the AND of
        the firms' codes is non-zero.  The AND runs in blocks of at most
        ``BATCH`` points (``_hits``).

        When the grid spans more than one block and every firm's sub-grid
        fits in one, the scan first narrows the axes (``_narrow``): each
        firm's codes are computed over its whole sub-grid, the levels that
        cannot hold a hit are dropped, and the blocks run over the kept
        levels only, reading the codes from the compressed tables.  The
        hits are the same points in the same order.  Otherwise the blocks
        cover every level, and a firm's code for a block is computed only
        when its utility object does not hold it yet for the block's levels
        on the axes it reads.
        """
        n, levels = self.network.n, len(axis)
        axes = [self.utilities[f].price_axes for f in self.firms]
        values, tables = [axis] * n, None
        if levels ** n > BATCH and all(levels ** len(read) <= BATCH for read in axes):
            tables = []
            for k, read in enumerate(axes):
                # the firm's whole sub-grid: every level on the axes it
                # reads, the first elsewhere
                whole = _columns([axis if d in read else axis[:1] for d in range(n)])
                shape = [levels if d in read else 1 for d in range(n)]
                tables.append([np.reshape(code, shape)
                               for code in self._firm_codes(k, whole, threshold)])
            values = _narrow(tables, axes, axis)
            if values is None:
                return []

        def codes(block: list[slice]) -> list[list[np.ndarray]]:
            if tables is None:
                columns = _columns([v[s] for v, s in zip(values, block)])
                return [self._firm_codes(k, columns, threshold) for k in range(len(axes))]
            return [[t[tuple(s if d in read else slice(None) for d, s in enumerate(block))]
                     for t in table] for table, read in zip(tables, axes)]

        return [tuple(p) for _, _, points in _hits(values, BATCH, codes, {})
                for p in points.tolist()]

    def option_hits(self, axis: np.ndarray, threshold: float,
                    options: dict[int, tuple[np.ndarray, ...]]
                    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``_hits`` on the grid axis^n for firm k's options ``options[k]``
        (``_edit``'s arrays): each combination's hits are ``scan_hits``' with
        its edits.  A block holds ``BATCH // 16`` points, or one grid up to
        ``BATCH``."""
        n = self.network.n
        return _hits([axis] * n, max(BATCH // 16, min(len(axis) ** n, BATCH)),
                     lambda block: [self._firm_codes(k, _columns([axis[s] for s in block]),
                                                     threshold, options.get(k))
                                    for k in range(len(self.firms))],
                     {k: len(o[0]) for k, o in options.items()})


def _hits(values: Sequence[np.ndarray], cap: int, codes, options: dict[int, int]
          ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Where, in some chunk, the AND of the firms' codes over the grid
    values[0] x values[1] x ... is non-zero, for each combination of the
    listed firms' options (firm index: count), numbered in product order.
    Combinations lead the grid axes in row-major blocks of at most cap
    points: a run of rows on one axis, later axes whole, earlier ones fixed.
    ``codes(grid slices)`` gives each firm's codes per chunk, a listed
    firm's with a leading option axis.  Yields (combinations done, each
    hit's combination, the hit points) as blocks end with a combination,
    in pieces of whole combinations."""
    sizes = list(options.values())
    combos, grid = math.prod(sizes), math.prod(map(len, values))
    dims = [combos, *map(len, values)]
    lead = next(d for d in range(len(dims)) if math.prod(dims[d + 1:]) <= cap)
    rows = min(dims[lead], max(1, cap // math.prod(dims[lead + 1:])))
    done, key, pending = 0, None, []
    for prefix, a in itertools.product(itertools.product(*map(range, dims[:lead])),
                                       range(0, dims[lead], rows)):
        block = [slice(i, i + 1) for i in prefix] + [slice(a, a + rows)] \
            + [slice(None)] * (len(dims) - 1 - lead)
        cut = [v[s] for v, s in zip(values, block[1:])]
        if block[1:] != key:
            key, found = block[1:], codes(block[1:])
        ids = np.arange(combos)[block[0]]
        pick = dict(zip(options, np.unravel_index(ids, sizes))) if options else {}
        hit = reduce(np.logical_or, (
            reduce(np.bitwise_and, (c[pick[k]] if k in pick else c for k, c in enumerate(chunk)))
            for chunk in zip(*found)))
        hit = np.broadcast_to(hit, (len(ids), *map(len, cut)))
        combo, *coords = np.unravel_index(np.flatnonzero(hit), hit.shape)
        pending.append((ids[combo], np.stack([c[i] for c, i in zip(cut, coords)], 1)))
        done += hit.size
        if done % grid == 0:
            combo, points = map(np.concatenate, zip(*pending))
            pending = []
            # bound the hits in flight: pieces of about cap // 8 hits, cut
            # where a combination starts
            firsts, per = np.flatnonzero(np.diff(combo, prepend=-1)), max(1, cap // 8)
            cuts = firsts[np.searchsorted(firsts, np.arange(per, len(combo), per), "right") - 1]
            bounds = [0, *dict.fromkeys(i for i in cuts.tolist() if i), len(combo)]
            for lo, hi in zip(bounds, bounds[1:]):
                yield combo[hi] if hi < len(combo) else done // grid, combo[lo:hi], points[lo:hi]


def _columns(cut: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Column d holds cut[d] along axis d: they broadcast over the grid."""
    return [c.reshape((1,) * d + (-1,) + (1,) * (len(cut) - 1 - d)) for d, c in enumerate(cut)]


def _edit(v, j, col: np.ndarray, put: np.ndarray, const: np.ndarray) -> np.ndarray:
    """Bundle column j's values v, reported: where ``col`` is j, ``const``
    set (``put``) or added, the compiled row's bits of a truncation or an
    uplift (``expr.add`` folds no constant)."""
    return np.where(col == j, np.where(put, const, v + const), v)


def _narrow(tables: list[list[np.ndarray]], axes: Sequence[tuple[int, ...]],
            axis: np.ndarray) -> list[np.ndarray] | None:
    """The levels of the grid axis^n that can hold a scan hit: per axis, the
    kept levels in order, or None when an axis keeps none.

    ``tables[k]`` holds firm k's code per chunk over its whole sub-grid
    (every level on the axes in ``axes[k]``, one elsewhere); the readers'
    tables are compressed to the kept levels in place.  A hit sets, in some
    chunk, one bit in every firm's code at its point, so on each axis every
    firm reading it sets that bit somewhere at the hit's level.  A pass
    therefore keeps, on each axis with readers, the levels where in some
    chunk the AND of the readers' codes OR-reduced over their other axes is
    non-zero (generalized arc consistency); passes repeat until one drops
    nothing, skipping an axis none of whose readers' tables shrank since it
    was last checked, and no hit is ever dropped.
    """
    n = tables[0][0].ndim
    keep = [axis] * n
    readers = [[k for k, read in enumerate(axes) if d in read] for d in range(n)]
    # an axis is checked again only after a table of one of its readers shrank
    stale = [bool(ks) for ks in readers]
    while any(stale):
        for d, ks in enumerate(readers):
            if not stale[d]:
                continue
            stale[d] = False
            others = tuple(e for e in range(n) if e != d)
            alive = reduce(np.logical_or, (
                reduce(np.bitwise_and, (np.bitwise_or.reduce(t, axis=others) for t in chunk)) != 0
                for chunk in zip(*(tables[k] for k in ks))))
            if alive.all():
                continue
            if not alive.any():
                return None
            keep[d] = keep[d][alive]
            for k in ks:
                tables[k] = [t.compress(alive, axis=d) for t in tables[k]]
            for e in {e for k in ks for e in axes[k]} - {d}:
                stale[e] = True
    return keep


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
    starts (whose Z is z); returns the end points and Z.

    Each start keeps its own step, first ``step``, halved after a sweep in
    which it gained nothing.  A start runs a sweep while its step is at
    least ``DESCENT_STOP`` and its Z above ``eps_eq / 10`` at the sweep's
    start, for at most ``DESCENT_SWEEPS`` sweeps.  At each coordinate it
    tries x + step and x - step from the same point: it takes the up trial
    when it lowers Z by more than 1e-15, then the down trial when it lowers
    that Z by more than 1e-15.

    Each round makes one kernel call for all running starts.  A start's
    trials cover its next H positions (coordinate and sweep), built as if
    no trial gains: the point stays, the step holds to the sweep's end and
    then halves per sweep (held once more after a gain in this sweep), up
    to where the start would stop.  A kernel row depends on its point only,
    so up to its first gain these are the trials and Z of the descent one
    start at a time: the start takes that gain and resumes after it, and
    its later, speculative trials are dropped.  H starts at the number of
    coordinates and doubles each round, capped by the positions a start
    can still run and, per call, by one kernel block (``BATCH`` regret
    entries).  A trial that is not finite raises ``NonFiniteUtility`` only
    at a start's next position, which the descent tries whatever gains;
    further on, the round cuts the start's positions there instead.
    """
    x, z = starts.copy(), z.copy()
    count, n = x.shape
    # per start: its sweep, next coordinate, step (step * 2**-halved), and
    # whether it gained earlier in this sweep
    sweep, coord, halved = (np.zeros(count, dtype=np.intp) for _ in range(3))
    gained = np.zeros(count, dtype=bool)
    # a sweep with step * 2**-halved below DESCENT_STOP, halved >= levels, stops
    levels = 0
    while math.ldexp(step, -levels) >= DESCENT_STOP:
        levels += 1
    block = max(1, BATCH // len(cp.feasible_globals))
    horizon = n
    while True:
        inside = coord > 0
        # the halvings of the next whole sweep, and the whole sweeps left
        first = halved + (inside & ~gained)
        whole = np.minimum(DESCENT_SWEEPS - sweep - inside, levels - first)
        whole = np.where(z > eps_eq * 0.1, np.maximum(whole, 0), 0)
        left = np.where(inside, n - coord, 0) + whole * n
        live = np.flatnonzero(left)
        if not len(live):
            return x, z
        h = np.minimum(left[live], min(horizon, max(1, block // (2 * len(live)))))
        horizon = min(2 * horizon, block)
        while True:
            # position k of live start `owner`; rows up_0, down_0, up_1, ...
            owner = np.repeat(np.arange(len(live)), h)
            offset = np.cumsum(h) - h
            k = np.arange(len(owner)) - offset[owner]
            j = live[owner]
            q, i = np.divmod(coord[j] + k, n)
            e = np.where(q == 0, halved[j], first[j] + q - inside[j])
            s = np.ldexp(step, -e)
            trials = np.repeat(x[j], 2, axis=0)
            trials[np.arange(len(trials)), np.repeat(i, 2)] += np.stack([s, -s], 1).ravel()
            try:
                zt = np.array(cp.evaluate(trials, EPS_TIE)[0]).reshape(-1, 2)
                break
            except NonFiniteUtility as err:
                # the call is one kernel block unless every start has one
                # position, so err.row names the offending trial
                r = err.row // 2
                if k[r] == 0:
                    raise
                h[owner[r]] = k[r]
        up = zt[:, 0] < z[j] - 1e-15
        after = np.where(up, zt[:, 0], z[j])
        down = zt[:, 1] < after - 1e-15
        # each live start's first gain, h where it has none
        hit = np.minimum.reduceat(np.where(up | down, k, h[owner]), offset)
        took = hit < h
        r = offset[took] + hit[took]
        x[j[r], i[r]] = trials[2 * r + down[r], i[r]]
        z[j[r]] = np.where(down[r], zt[r, 1], after[r])
        q, coord[live] = np.divmod(coord[live] + np.where(took, hit + 1, h), n)
        halved[live] = np.where(q == 0, halved[live], first[live] + q - inside[live])
        # a gain holds its step to the end of its sweep and through the next
        halved[live[took]] = e[r]
        gained[live] = np.where(took, coord[live] > 0, gained[live] & (q == 0))
        sweep[live] += q


def _dedupe(points: np.ndarray, rows: np.ndarray, loose: np.ndarray) -> np.ndarray:
    """rows, in order, without each row within ``DEDUP_TOL`` at infinity
    distance of an earlier row that is kept: the greedy in row order.

    Only a pair holding a ``loose`` row may be that close; the other rows
    are grid points more than ``2 * DEDUP_TOL`` apart.  So each loose row is
    compared with every row, ``|a - b| <= DEDUP_TOL`` one coordinate at a
    time, in blocks of at most ``BATCH`` entries, and the greedy runs over
    the close pairs only."""
    p, near = points[rows], np.flatnonzero(loose[rows])
    pairs = [np.empty((2, 0), dtype=np.intp)]
    per = max(1, BATCH // max(1, len(rows)))
    for lo in range(0, len(near), per):
        mine = near[lo:lo + per]
        close = reduce(np.logical_and, (np.abs(p[mine, d][:, None] - p[:, d]) <= DEDUP_TOL
                                        for d in range(p.shape[1])))
        a, b = np.nonzero(close)
        a = mine[a]
        pairs.append(np.stack([np.minimum(a, b), np.maximum(a, b)])[:, a != b])
    first, later = np.concatenate(pairs, 1)
    # by the later row: each row's status is final before a later row reads it
    order = np.lexsort((first, later))
    dropped: set[int] = set()
    for a, b in zip(first[order].tolist(), later[order].tolist()):
        if a not in dropped:
            dropped.add(b)
    return np.delete(rows, list(dropped))


def grid_surplus(u: UtilityProfile, box: tuple[float, float],
                 step: float) -> Iterator[tuple[np.ndarray, list[float]]]:
    """Every point of the grid, in row-major order, and its exact Z from the
    record kernel, one kernel block of points at a time, so memory does not
    grow with the grid.  The box and step are checked by ``grid_axis`` when
    it is called, before the first block."""
    n = u.network.n
    axis = grid_axis(box, step, n)
    levels, cp = len(axis), _compiled(u)
    total, rows = levels ** n, max(1, BATCH // len(cp.feasible_globals))
    # the row-major digits of a point index: index // place % levels
    place = levels ** np.arange(n - 1, -1, -1)

    def block(a: int) -> tuple[np.ndarray, list[float]]:
        points = axis[np.arange(a, min(a + rows, total))[:, None] // place % levels]
        return points, cp.evaluate(points, EPS_TIE)[0]

    return map(block, range(0, total, rows))


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
    at most ``BATCH`` points.  When the grid spans more than one block and
    every firm's sub-grid fits in one, the levels that cannot hold a hit are
    first dropped from each axis (exactly; see the module docstring), so
    the AND covers only the kept levels.  A grid of more than
    ``MAX_GRID_POINTS`` points raises ``GridTooLarge`` before anything is
    allocated.

    One call of the record kernel (``_CompiledProfile.evaluate``) gives
    exact Z, the supports and the indirect utilities of every candidate;
    candidates with Z <= ``eps_eq`` are kept directly.  The rest start a
    coordinate descent on the same kernel's Z (when ``refine``; its first
    step is ``step / 2``, and each round sends the next trials of all
    running starts through one kernel call, see ``_coordinate_descent``),
    whose end points and Z replace their starts' rows in place.  Rows with
    Z <= ``eps_eq`` are deduplicated greedily in row order (``_dedupe``:
    only a moved row, or any row when ``step <= 2 * DEDUP_TOL``, can be
    within ``DEDUP_TOL`` of another); then only the kept rows that moved go
    through one more kernel call, which refreshes their supports and
    indirect utilities.  The kept rows with a support make the returned
    ``EquilibriumSet``, whose records are built only when indexed.

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
    z = np.array(z)
    # each descent end replaces its start in the kernel arrays
    moved = (z > eps_eq) & refine
    starts = np.flatnonzero(moved)
    if len(starts):
        points[starts], z[starts] = _coordinate_descent(
            cp, points[starts], z[starts], step / 2, eps_eq)
    rows = np.flatnonzero(z <= eps_eq)
    # grid points more than 2 * DEDUP_TOL apart are already distinct
    tiny = step <= 2 * DEDUP_TOL
    if refine or tiny:
        rows = _dedupe(points, rows, moved | tiny)
    # the fit and indirect utilities of a moved row are still its start's
    fresh = rows[moved[rows]]
    if len(fresh):
        z[fresh], fit[fresh], best[fresh] = cp.evaluate(points[fresh], support_tie)
    rows = rows[fit[rows].any(1)]
    return EquilibriumSet(cp, points[rows], fit[rows], z[rows], best[rows])


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
    prices = np.array([rec.prices.values for rec in records],
                      dtype=float).reshape(len(records), u.network.n)
    points, point = _join_meet_points(prices)
    _z, fit, _ = _compiled(u).evaluate(points, _support_tie(eps_eq, eps_tie))
    ok = fit.any(1).tolist()
    shared = list(map(tuple, points.tolist()))
    return [(e, e2, shared[a], shared[b], ok[a], ok[b])
            for (e, e2), a, b in zip(itertools.combinations(records, 2),
                                     point[0::2].tolist(), point[1::2].tolist())]


def _join_meet_points(prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct join and meet points of every pair of rows i < j of
    ``prices``, and the index among them of each pair's join and meet, in
    the order join_0, meet_0, join_1, meet_1, ...  The pair arrays are
    freed on return, before the caller builds its Python result."""
    i, j = np.triu_indices(len(prices), 1)
    p, q = prices[i], prices[j]
    both = np.stack([np.where(q > p, q, p), np.where(q < p, q, p)], 1)
    both = both.reshape(2 * len(i), prices.shape[1])
    # sort the rows by bit pattern, so that equal points are adjacent (the
    # constant first key keeps the sort defined when there are no trades)
    bits = both.view(np.int64)
    order = np.lexsort((np.zeros(len(bits)), *bits.T))
    ranked = bits[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(1)
    point = np.empty_like(order)
    point[order] = np.cumsum(new) - 1
    return both[order[new]], point


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


def dominant(prices: np.ndarray, utilities: np.ndarray, seg: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Per segment of rows (equal ``seg``, ascending; one if None), the row
    weakly best for every column of ``utilities`` (within 1e-9), else any
    row, lexicographically first on prices, then by position; and whether
    the first kind exists.  The extremal check and mechanisms rank by it."""
    seg = np.zeros(len(prices), dtype=np.intp) if seg is None else seg
    new = np.diff(seg, prepend=-1) != 0
    firsts, of = np.flatnonzero(new), np.cumsum(new) - 1
    ok = (utilities >= np.maximum.reduceat(utilities, firsts)[of] - 1e-9).all(1)
    some = np.logical_or.reduceat(ok, firsts)
    order = np.lexsort((np.arange(len(seg)), *prices.T[::-1], ~(ok | ~some[of]), seg))
    return order[firsts], some


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
    optima = []
    for role in ("terminal-seller", "terminal-buyer"):
        (row,), (some,) = dominant(prices, found.best[:, cp.of_role(role)])
        optima.append(found[int(row)] if some else None)
    seller_opt, buyer_opt = optima
    cmax = bool((prices >= prices.max(0) - 1e-12).all(1).any())
    cmin = bool((prices <= prices.min(0) + 1e-12).all(1).any())
    return ExtremalReport(seller_opt, buyer_opt,
                          seller_opt is not None, buyer_opt is not None,
                          cmax, cmin)
