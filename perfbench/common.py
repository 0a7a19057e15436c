"""Digests, task selection and percentiles shared by the benchmark scripts."""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")


def _rounded(obj):
    """Floats to 9 decimals (and -0.0 to 0.0), so digests ignore last-bit noise."""
    if isinstance(obj, float):
        return round(obj, 9) + 0.0
    if isinstance(obj, dict):
        return {str(k): _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def canon(obj) -> str:
    text = json.dumps(_rounded(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def load_goldens(path: str = GOLDENS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


TAKE_ALL_SHARE = 0.04


def select(name: str, entries: dict, seed: int, take_all_pct: float) -> list[str]:
    """Task ids of one pass for a run seed.

    Fixed tasks (ids starting with ``f``) run in every pass.  So does the
    take-all stratum of the pool: every item costing at least
    TAKE_ALL_SHARE of the whole pool, so that one heavy item cannot decide
    how much work a seed gets, and every item at or above the pool's
    ``take_all_pct`` percentile of cost (normally the workload's tail
    percentile), so that the tail metric measures the program rather than
    the draw.  The other items are sorted by reference
    cost and paired with their neighbour; the seed picks one item of each
    pair.  So every seed runs nearly the same amount of work, on different
    inputs.  The pass order is a seeded shuffle.
    """
    rng = random.Random(f"select:{name}:{seed}")
    fixed = sorted((k for k in entries if k.startswith("f")),
                   key=lambda k: int(k[1:]))
    pool = sorted((k for k in entries if not k.startswith("f")),
                  key=lambda k: (entries[k]["cost_s"], int(k)))
    total = sum(entries[k]["cost_s"] for k in pool)
    first_tail = math.ceil(take_all_pct / 100.0 * len(pool)) - 1
    heavy = [k for i, k in enumerate(pool)
             if i >= first_tail or entries[k]["cost_s"] >= TAKE_ALL_SHARE * total]
    rest = [k for k in pool if k not in heavy]
    picks = [rng.choice(rest[i:i + 2]) for i in range(0, len(rest), 2)]
    order = fixed + heavy + picks
    rng.shuffle(order)
    return order


TAIL_BEYOND = 10  # tasks that must lie beyond the tail percentile


def _beyond(n: int, pct: float) -> tuple[int, int]:
    """(nearest rank of ``pct`` among n tasks, tasks beyond that rank)."""
    rank = max(1, math.ceil(pct / 100.0 * n))
    return rank, n - rank


def min_passes(tasks_per_pass: int, pct: float) -> int:
    """Fewest whole passes that put TAIL_BEYOND tasks beyond ``pct``.

    Fixed by the workload, not by timing, so the tail percentile never
    depends on how fast the program runs.
    """
    passes = 1
    while _beyond(passes * tasks_per_pass, pct)[1] < TAIL_BEYOND:
        passes += 1
    return passes


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """(value, tasks beyond it) at the workload's fixed tail percentile.

    Nearest-rank definition.  The caller runs at least ``min_passes``
    passes; a run with fewer than TAIL_BEYOND tasks beyond the percentile
    (cut short by the deadline) is not correct.
    """
    ordered = sorted(times)
    rank, beyond = _beyond(len(ordered), pct)
    return ordered[rank - 1], beyond
