"""Demand correspondences: indirect utility, argmax sets, tie-breaking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotDemanded,
    PatternViolation,
    ScheduleExhausted,
)
from .model import PriceVector, partition_bundle
from .utility import FirmUtility

EPS_TIE = 1e-9


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


def joint_tiebreak_selection(u: FirmUtility, points: list[PriceVector],
                             schedule: tuple[float, float, int] = (1e-3, 0.5, 40),
                             eps_tie: float = EPS_TIE,
                             seed: int = 42) -> dict[PriceVector, int]:
    """Single-valued selection from demand at each point, by common translation.

    All points are shifted by one accumulated perturbation vector.  Points are
    processed in order; for each, candidate perturbations from a shrinking
    schedule are tried until the shifted demand is single-valued while every
    point's shifted demand stays inside its previous shifted demand.  The
    final selection at each point is therefore a member of the original
    demand set.
    """
    eps0, decay, max_rounds = schedule
    rng = np.random.default_rng(seed)
    n = u.network.n
    current: dict[int, frozenset[int]] = {
        i: frozenset(demand_set(u, p, eps_tie).bundles)
        for i, p in enumerate(points)}
    shift = np.zeros(n)

    def shifted_demand(i: int, delta) -> frozenset[int]:
        vals = tuple(np.asarray(points[i].values) + delta)
        return frozenset(demand_set(
            u, PriceVector(u.network, vals), eps_tie).bundles)

    for i in range(len(points)):
        if len(current[i]) == 1:
            continue
        accepted = False
        eps = eps0
        for _ in range(max_rounds):
            for _attempt in range(8):
                delta = shift + rng.uniform(-eps, eps, size=n)
                new = {j: shifted_demand(j, delta) for j in range(len(points))}
                if len(new[i]) == 1 and all(
                        new[j] <= current[j] for j in range(len(points))):
                    shift = delta
                    current = new
                    accepted = True
                    break
            if accepted:
                break
            eps *= decay
        if not accepted:
            raise ScheduleExhausted(
                f"could not single-value demand at point {i}",
                partial={points[j]: sorted(current[j]) for j in range(len(points))})
    return {points[i]: next(iter(current[i])) for i in range(len(points))}


def nib_witness(u: FirmUtility, p: PriceVector, bundle: int,
                eps: float = 1e-3, attempts: int = 40,
                eps_tie: float = EPS_TIE, seed: int = 42):
    """Search for q near p at which ``bundle`` is the unique demand.

    Directions favor the bundle: its purchase prices fall and sale prices
    rise slightly (breaking ties with its own subsets), while purchases off
    the bundle rise and sales off the bundle fall.  Returns the witness
    PriceVector or None.
    """
    d = demand_set(u, p, eps_tie)
    if bundle not in d.bundles:
        raise NotDemanded(f"{u.network.ids_of(bundle)} not demanded at {p.values}")
    rng = np.random.default_rng(seed)
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
    scale = eps / 2.0
    for _ in range(attempts):
        jitter = rng.uniform(0.25, 1.0, size=n)
        q = base + direction * scale * jitter
        if np.max(np.abs(q - base)) < eps:
            dq = demand_set(u, PriceVector(u.network, tuple(q)), eps_tie)
            if dq.bundles == (bundle,):
                return PriceVector(u.network, tuple(q))
        scale *= 0.7
    return None


def demand_invariance_check(u: FirmUtility, p: PriceVector, p2: PriceVector,
                            bundle: int, eps_tie: float = EPS_TIE) -> bool:
    """Whether a bundle demanded at p2 stays demanded at p when prices move
    only in its favor: on the bundle, purchases get cheaper and sales dearer
    from p2 to p; off the bundle, purchases get dearer and sales cheaper."""
    d2 = demand_set(u, p2, eps_tie)
    if bundle not in d2.bundles:
        raise NotDemanded(f"{u.network.ids_of(bundle)} not demanded at p2")
    up, down = partition_bundle(u.network, u.firm, bundle)
    buys = u.network.buys_mask(u.firm)
    sells = u.network.sells_mask(u.firm)
    for i in range(u.network.n):
        bit = 1 << i
        if not (buys | sells) & bit:
            continue
        a, b = p.values[i], p2.values[i]
        if up & bit and not a <= b:
            raise PatternViolation("purchase inside bundle must fall")
        if down & bit and not a >= b:
            raise PatternViolation("sale inside bundle must rise")
        if buys & bit and not bundle & bit and not a >= b:
            raise PatternViolation("purchase outside bundle must rise")
        if sells & bit and not bundle & bit and not a <= b:
            raise PatternViolation("sale outside bundle must fall")
    return bundle in demand_set(u, p, eps_tie).bundles
