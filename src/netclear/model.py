"""Trading-network topology: trades, firms, bundles and prices.

Bundles are plain ``int`` bitmasks over the network's dense trade indices,
which keeps subset / union / difference / cardinality exact and cheap.  The
network object owns the translation between trade ids and bit positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    BundleOutOfScope,
    DuplicateTradeId,
    NetworkMismatch,
    NetworkTooLarge,
    SelfLoop,
    UnknownFirm,
)

MAX_TRADES = 24


@dataclass(frozen=True)
class Trade:
    id: str
    seller: str
    buyer: str


@dataclass(frozen=True)
class TradeNetwork:
    trades: tuple[Trade, ...]

    @cached_property
    def firms(self) -> frozenset[str]:
        out = set()
        for t in self.trades:
            out.add(t.seller)
            out.add(t.buyer)
        return frozenset(out)

    @cached_property
    def index(self) -> dict[str, int]:
        return {t.id: i for i, t in enumerate(self.trades)}

    @property
    def n(self) -> int:
        return len(self.trades)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- bundle translation --------------------------------------------------

    def mask_of(self, trade_ids: Iterable[str]) -> int:
        mask = 0
        for tid in trade_ids:
            try:
                mask |= 1 << self.index[tid]
            except KeyError:
                raise BundleOutOfScope(f"unknown trade id {tid!r}") from None
        return mask

    def ids_of(self, mask: int) -> frozenset[str]:
        return frozenset(t.id for i, t in enumerate(self.trades) if mask >> i & 1)

    # -- per-firm structure --------------------------------------------------

    @cached_property
    def _firm_masks(self) -> dict[str, tuple[int, int]]:
        """firm -> (upstream mask = trades bought, downstream mask = sold)."""
        out: dict[str, list[int]] = {f: [0, 0] for f in self.firms}
        for i, t in enumerate(self.trades):
            out[t.buyer][0] |= 1 << i
            out[t.seller][1] |= 1 << i
        return {f: (up, down) for f, (up, down) in out.items()}

    def buys_mask(self, firm: str) -> int:
        return self._masks_for(firm)[0]

    def sells_mask(self, firm: str) -> int:
        return self._masks_for(firm)[1]

    def omega_mask(self, firm: str) -> int:
        up, down = self._masks_for(firm)
        return up | down

    def _masks_for(self, firm: str) -> tuple[int, int]:
        try:
            return self._firm_masks[firm]
        except KeyError:
            raise UnknownFirm(firm)


def build_network(spec: Sequence[tuple[str, str, str]]) -> TradeNetwork:
    """Build a network from (trade-id, seller, buyer) triples."""
    seen = set()
    trades = []
    for tid, seller, buyer in spec:
        if tid in seen:
            raise DuplicateTradeId(tid)
        if seller == buyer:
            raise SelfLoop(f"trade {tid}: buyer equals seller ({buyer})")
        seen.add(tid)
        trades.append(Trade(tid, seller, buyer))
    if len(trades) > MAX_TRADES:
        raise NetworkTooLarge(f"{len(trades)} trades exceeds cap of {MAX_TRADES}")
    return TradeNetwork(tuple(trades))


def partition_bundle(n: TradeNetwork, firm: str, mask: int) -> tuple[int, int]:
    """Split a bundle into (upstream, downstream) parts for one firm."""
    up, down = n._masks_for(firm)
    return mask & up, mask & down


def net_index(n: TradeNetwork, firm: str, mask: int) -> int:
    """Net-trade index |purchases| - |sales| of the bundle for one firm."""
    up, down = partition_bundle(n, firm, mask)
    return up.bit_count() - down.bit_count()


def terminal_roles(n: TradeNetwork) -> dict[str, str]:
    """Classify each firm as terminal-buyer / terminal-seller / intermediate.

    A terminal buyer sells nothing; a terminal seller buys nothing.  Every
    firm of the network is a party to some trade (``firms`` is built from
    the trades), so it buys or sells something.
    """
    roles = {}
    for f in sorted(n.firms):
        up, down = n._masks_for(f)
        roles[f] = ("intermediate" if up and down
                    else "terminal-buyer" if up else "terminal-seller")
    return roles


@dataclass(frozen=True)
class PriceVector:
    network: TradeNetwork
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != self.network.n:
            raise NetworkMismatch(
                f"{len(self.values)} prices for {self.network.n} trades")

    @classmethod
    def of(cls, network: TradeNetwork,
           prices: Mapping[str, float] | Sequence[float]) -> "PriceVector":
        if isinstance(prices, Mapping):
            missing = [t.id for t in network.trades if t.id not in prices]
            if missing:
                raise NetworkMismatch(f"missing prices for {missing}")
            vals = tuple(float(prices[t.id]) for t in network.trades)
        else:
            vals = tuple(float(v) for v in prices)
        return cls(network, vals)

    def __getitem__(self, trade_id: str) -> float:
        return self.values[self.network.index[trade_id]]

    def with_value(self, trade_id: str, value: float) -> "PriceVector":
        i = self.network.index[trade_id]
        vals = list(self.values)
        vals[i] = float(value)
        return PriceVector(self.network, tuple(vals))


def join_meet(p: Sequence[float], q: Sequence[float]
              ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coordinatewise (max, min) of two price tuples."""
    return tuple(map(max, p, q)), tuple(map(min, p, q))
