"""Per-firm utility tables over (bundle, prices).

A bundle absent from a firm's table is infeasible (utility minus infinity).
Infeasibility is a tagged value, ``INFEASIBLE``, never a float sentinel, so
arithmetic and argmax code never see NaN or -inf.

A firm's table compiles once, to one NumPy closure over price columns
giving a row: every feasible bundle's utility, in ascending mask order.
``value_matrix`` reads it over many points and ``values`` over one (as
NumPy scalars, so both give the same bits).  Any value in the row that is
not finite raises ``NonFiniteUtility``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from . import expr as ex
from .errors import (
    AllInfeasible,
    BundleOutOfScope,
    NonFiniteUtility,
    NonMonotoneExpr,
    NotTerminalBuyer,
    UnknownFirm,
)
from .model import PriceVector, TradeNetwork, partition_bundle, terminal_roles


class _Infeasible:
    """Singleton tag for price-independent infeasibility (utility -inf)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFEASIBLE"


INFEASIBLE = _Infeasible()


@dataclass(frozen=True)
class FirmUtility:
    """A firm's utility: map from feasible bundle masks to expressions."""

    firm: str
    network: TradeNetwork
    table: Mapping[int, ex.Expr]

    def __post_init__(self):
        if self.firm not in self.network.firms:
            raise UnknownFirm(self.firm)
        if not self.table:
            raise AllInfeasible(f"firm {self.firm} has no feasible bundle")
        omega = self.network.omega_mask(self.firm)
        for mask in self.table:
            if mask & ~omega:
                raise BundleOutOfScope(
                    f"bundle {self.network.ids_of(mask)} not within "
                    f"firm {self.firm}'s trades")

    @property
    def omega(self) -> int:
        return self.network.omega_mask(self.firm)

    def feasible_masks(self) -> tuple[int, ...]:
        """The feasible bundles in ascending order: the order of a row."""
        return self._masks

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        return tuple(sorted(self.table))

    @cached_property
    def price_axes(self) -> tuple[int, ...]:
        """Trade axes the expressions read (any trade, not just the firm's)."""
        index = self.network.index
        return tuple(sorted({index[t] for e in self.table.values()
                             for t in ex.price_refs(e)}))

    @cached_property
    def _row(self):
        return ex.compile_expr(tuple(map(self.table.get, self._masks)),
                               self.network.index)

    def values(self, point: tuple[float, ...]) -> tuple[float, ...]:
        """Every feasible bundle's utility at a price tuple, in ascending
        mask order, from the row closure over the prices as NumPy scalars:
        the bits of ``value_matrix``, and no error from an arm that is not
        selected.  A value that is not finite, or an expression outside its
        domain (sqrt of a negative number), raises ``NonFiniteUtility``."""
        with np.errstate(all="ignore"):
            row = tuple(map(float, self._row(np.asarray(point, dtype=float))))
        if all(map(math.isfinite, row)):
            return row
        raise NonFiniteUtility(f"a utility is not finite at prices {point}")

    def value(self, mask: int, point: tuple[float, ...]):
        """Utility of one bundle at a price tuple, or INFEASIBLE for a mask
        outside the table.  Read from ``values``, so it raises
        ``NonFiniteUtility`` when any bundle of the firm is not finite."""
        if mask not in self.table:
            return INFEASIBLE
        return self.values(point)[self._masks.index(mask)]

    def value_matrix(self, columns: list[np.ndarray]) -> np.ndarray:
        """``V[r, j]``: the utility of the j-th feasible bundle (ascending
        masks) at row r of the prices given as one column per trade, as the
        row closure takes them (``list(points.T)`` for a 2-D array of
        points).  A value that is not finite raises ``NonFiniteUtility``,
        whose ``row`` is the first row holding one."""
        v = np.empty((len(columns[0]), len(self._masks)))
        # the closure may overflow, leave its domain or divide by zero, also
        # in a piecewise arm that is not selected; checked below
        with np.errstate(all="ignore"):
            for j, col in enumerate(self._row(columns)):
                v[:, j] = col
        if not np.isfinite(v).all():
            row = int(np.isfinite(v).all(1).argmin())
            prices = tuple(float(c[row]) for c in columns)
            raise NonFiniteUtility(f"a utility is not finite at prices {prices}", row)
        return v


@dataclass(frozen=True)
class UtilityProfile:
    network: TradeNetwork
    firms: Mapping[str, FirmUtility]
    # the equilibrium module's compiled tables, built on first use there
    _compiled: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        missing = self.network.firms - set(self.firms)
        if missing:
            raise UnknownFirm(f"profile missing firms {sorted(missing)}")
        for f, fu in self.firms.items():
            if fu.firm != f or fu.network != self.network:
                raise UnknownFirm(f"utility for {fu.firm} registered under {f}")

    def replace(self, **updates: FirmUtility) -> "UtilityProfile":
        firms = dict(self.firms)
        firms.update(updates)
        return UtilityProfile(self.network, firms)


# -- builders ----------------------------------------------------------------

def _quasilinear_expr(network: TradeNetwork, firm: str, mask: int,
                      value: float) -> ex.Expr:
    up, down = partition_bundle(network, firm, mask)
    e: ex.Expr = ex.num(value)
    for i, t in enumerate(network.trades):
        if down >> i & 1:
            e = ex.add(e, ex.Price(t.id))
        elif up >> i & 1:
            e = ex.sub(e, ex.Price(t.id))
    return e


def make_quasilinear(firm: str, network: TradeNetwork,
                     valuation: Mapping[int, float]) -> FirmUtility:
    """Quasi-linear utility: valuation plus sale receipts minus purchase costs.

    ``valuation`` maps bundle masks to finite values; omitted bundles are
    infeasible.
    """
    table = {}
    for mask, v in valuation.items():
        if v is INFEASIBLE or v is None:
            continue
        table[mask] = _quasilinear_expr(network, firm, mask, float(v))
    if not table:
        raise AllInfeasible(f"firm {firm}: no finite valuation")
    return FirmUtility(firm, network, table)


def make_unit_demand(firm: str, network: TradeNetwork,
                     trade_exprs: Mapping[str, ex.Expr],
                     outside: float = 0.0) -> FirmUtility:
    """Unit-demand terminal buyer: outside option plus one singleton per trade.

    Each expression must be strictly decreasing in its own trade's price
    (sampled check over a coarse range, read from the firm's row closure,
    which the scan reuses); a sample outside its domain raises
    ``NonFiniteUtility``.
    """
    if terminal_roles(network).get(firm) != "terminal-buyer":
        raise NotTerminalBuyer(firm)
    table = {0: ex.num(outside)}
    for tid, e in trade_exprs.items():
        mask = network.mask_of([tid])
        if not mask & network.buys_mask(firm):
            raise BundleOutOfScope(f"{firm} is not the buyer of {tid}")
        refs = ex.price_refs(e)
        if not refs <= {tid}:
            raise BundleOutOfScope(
                f"expression for {tid} references other trades: {sorted(refs)}")
        table[mask] = e
    u = FirmUtility(firm, network, table)
    samples = np.linspace(-10.0, 10.0, 25)
    with np.errstate(all="ignore"):  # each singleton reads only its trade's column
        row = u._row([samples] * network.n)
    for tid in trade_exprs:
        vals = np.broadcast_to(row[u._masks.index(network.mask_of([tid]))], samples.shape)
        if not np.isfinite(vals).all():
            raise NonFiniteUtility(f"expression for {tid} is not finite at price "
                                   f"{samples[np.isfinite(vals).argmin()]}")
        if not (np.diff(vals) < 0).all():
            raise NonMonotoneExpr(f"expression for {tid} is not decreasing")
    return u


def is_unit_demand(u: FirmUtility) -> bool:
    """Table is outside option plus upstream singletons only."""
    buys = u.network.buys_mask(u.firm)
    if 0 not in u.table:
        return False
    for mask in u.table:
        if mask == 0:
            continue
        if mask.bit_count() != 1 or not mask & buys:
            return False
    return True


# -- transformations ---------------------------------------------------------

def endowment_transform(u: FirmUtility, endowed: int,
                        p_bar: PriceVector) -> FirmUtility:
    """Endow the firm with trades it may execute at frozen prices.

    The transformed utility at bundle B is the best over add-ons X drawn from
    the endowment (disjoint from B): u(B ∪ X) with X's prices pinned at
    ``p_bar``.  The inner max is materialized as an explicit max-expression.
    """
    omega = u.omega
    if endowed & ~omega:
        raise BundleOutOfScope(
            f"endowment {u.network.ids_of(endowed)} outside firm "
            f"{u.firm}'s trades")
    endow_ids = [t.id for i, t in enumerate(u.network.trades) if endowed >> i & 1]
    table: dict[int, ex.Expr] = {}
    # candidate bundles: every subset of a feasible bundle obtained by
    # stripping endowed trades (others stay infeasible after the transform)
    candidates = set()
    for mask in u.table:
        free = mask & endowed
        sub = free
        while True:
            candidates.add(mask & ~sub)
            if sub == 0:
                break
            sub = (sub - 1) & free
    for b in sorted(candidates):
        arms = []
        remaining = endowed & ~b
        sub = remaining
        while True:
            full = b | sub
            if full in u.table:
                pinned = {tid: p_bar[tid]
                          for tid in endow_ids
                          if sub >> u.network.index[tid] & 1}
                arms.append(ex.substitute(u.table[full], prices=pinned))
            if sub == 0:
                break
            sub = (sub - 1) & remaining
        if arms:
            table[b] = arms[0] if len(arms) == 1 else ex.Op("max", tuple(arms))
    return FirmUtility(u.firm, u.network, table)


# -- checks ------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityReport:
    samples: int
    violations: tuple[tuple, ...]  # (bundle ids, trade id, direction, p, p')

    @property
    def ok(self) -> bool:
        return not self.violations


def check_monotonicity(u: FirmUtility, samples: int = 200,
                       box: tuple[float, float] = (-2.0, 4.0),
                       seed: int = 42, delta: float = 0.125) -> MonotonicityReport:
    """Sampled check: utility strictly rises in sale prices and falls in
    purchase prices, bundle by bundle."""
    rng = np.random.default_rng(seed)
    lo, hi = box
    n = u.network.n
    buys = u.network.buys_mask(u.firm)
    sells = u.network.sells_mask(u.firm)
    masks = u.feasible_masks()
    violations = []
    for _ in range(samples):
        base = tuple(rng.uniform(lo, hi, size=n).tolist())
        v0, v1 = u.values(base), {}
        for mask in u.table:
            j = masks.index(mask)
            for i in range(n):
                if not mask >> i & 1:
                    continue
                bumped = base[:i] + (base[i] + delta,) + base[i + 1:]
                if i not in v1:
                    v1[i] = u.values(bumped)
                if sells >> i & 1 and not v1[i][j] > v0[j]:
                    violations.append((u.network.ids_of(mask),
                                       u.network.trades[i].id, "sale",
                                       base, bumped))
                if buys >> i & 1 and not v1[i][j] < v0[j]:
                    violations.append((u.network.ids_of(mask),
                                       u.network.trades[i].id, "purchase",
                                       base, bumped))
        if len(violations) > 20:
            break
    return MonotonicityReport(samples, tuple(violations))
