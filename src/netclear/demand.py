"""Demand correspondences: indirect utility, argmax sets, isolation witnesses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotDemanded
from .model import PriceVector
from .utility import FirmUtility

EPS_TIE = 1e-9
# nib_witness searches within this infinity distance of p, over this many
# shrinking trials from one fixed seed
NIB_RADIUS = 1e-3
NIB_ATTEMPTS = 40
NIB_SEED = 42


@dataclass(frozen=True)
class DemandResult:
    bundles: tuple[int, ...]  # masks, ascending
    indirect: float
    tolerance: float

    @property
    def single_valued(self) -> bool:
        return len(self.bundles) == 1


def indirect_utility(u: FirmUtility, p: PriceVector) -> float:
    """Best achievable utility over the firm's feasible bundles."""
    return max(u.values(p.values))


def demand_set(u: FirmUtility, p: PriceVector,
               eps_tie: float = EPS_TIE) -> DemandResult:
    """All feasible bundles within ``eps_tie`` of the maximum."""
    vals = u.values(p.values)
    best = max(vals)
    bundles = tuple(m for m, v in zip(u.feasible_masks(), vals) if v >= best - eps_tie)
    return DemandResult(bundles, best, eps_tie)


def nib_witness(u: FirmUtility, p: PriceVector, bundle: int,
                eps_tie: float = EPS_TIE):
    """Search for q within ``NIB_RADIUS`` of p at which ``bundle`` is the
    unique demand.

    Directions favor the bundle: its purchase prices fall and sale prices
    rise slightly (breaking ties with its own subsets), while purchases off
    the bundle rise and sales off the bundle fall.  Returns the witness
    PriceVector or None.
    """
    d = demand_set(u, p, eps_tie)
    if bundle not in d.bundles:
        raise NotDemanded(f"{u.network.ids_of(bundle)} not demanded at {p.values}")
    rng = np.random.default_rng(NIB_SEED)
    n = u.network.n
    buys = u.network.buys_mask(u.firm)
    sells = u.network.sells_mask(u.firm)
    omega = u.omega
    direction = np.zeros(n)
    for i in range(n):
        bit = 1 << i
        if not omega & bit:
            continue
        if bundle & bit:
            direction[i] = -1.0 if buys & bit else 1.0
        else:
            direction[i] = 1.0 if buys & bit else -1.0
    base = np.asarray(p.values)
    scale = NIB_RADIUS / 2.0
    for _ in range(NIB_ATTEMPTS):
        jitter = rng.uniform(0.25, 1.0, size=n)
        q = base + direction * scale * jitter
        if np.max(np.abs(q - base)) < NIB_RADIUS:
            dq = demand_set(u, PriceVector(u.network, tuple(q)), eps_tie)
            if dq.bundles == (bundle,):
                return PriceVector(u.network, tuple(q))
        scale *= 0.7
    return None
