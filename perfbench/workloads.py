"""The four workloads of the netclear benchmark.

Every workload is a pool of task specs.  Item ``i`` of a pool is plain data
(JSON-friendly) generated from its own seed, so the pool is the same on
every host and every commit.  ``goldens.json`` stores, for each item, the
digest of its output and its reference cost, both recorded on the seed
code by ``record.py``; ``select`` turns a run seed into one pass of tasks.

Tasks never share netclear objects: each builds its own profile (or loads
its own scenario file), so expression compilation and ``feasible_globals``
are paid inside the task, as a user pays them.

Why each workload exists (which layer it stresses and which it bypasses)
is written next to its class below and in README.md.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random

import netclear as nc
from netclear import cli, instances, mechanisms
from netclear.expr import eval_expr

from common import canon


def _axis(box, step):
    lo, hi = box
    n = int(math.floor((hi - lo) / step + 0.5)) + 1
    return [round(lo + k * step, 12) for k in range(n)]


def _records_out(network, records):
    return sorted([list(r.prices.values),
                   [sorted(network.ids_of(m)) for m in r.supports]]
                  for r in records)


class Workload:
    """Defaults: no fixed tasks, specs are already task inputs, no oracle."""

    tail_pct: float

    @property
    def take_all_pct(self) -> float:
        """Pool items at or above this percentile of cost run in every pass."""
        return self.tail_pct

    def fixed(self):
        return []

    def prepare(self, spec, workdir):
        return spec

    def oracle(self, inp, result) -> list[str]:
        return []

    def spec(self, tid: str):
        """Spec of a task id: ``f<i>`` is fixed task i, ``<i>`` pool item i."""
        if tid.startswith("f"):
            return self.fixed()[int(tid[1:])]
        return self.item(int(tid))


# -- scan ---------------------------------------------------------------------

class Scan(Workload):
    """Generic 5-6-trade assignment markets, one grid scan per task.

    Sellers have unit supply and quasi-linear utility; buyers have unit
    demand with linear, exp-friction or piecewise-kink utility in the
    price.  Each market is planted: a random grid price vector and
    matching are drawn first, and values are calibrated so that this
    point is a strict equilibrium with random (non-grid) margins.  So
    every market has at least one grid equilibrium, yet only a handful of
    grid points are equilibria.  Each task is one
    ``find_equilibria(..., refine=False)`` over about 1.8M grid points:
    the vectorized expression closures and the scan kernel do the work,
    record assembly does little.

    Buyers with ``sqrt`` utility are left out on purpose.  ``sqrt`` of a
    negative price argument raises a bare ``ValueError`` inside
    ``make_unit_demand``'s monotonicity sampling (for ``sqrt(1 + p)`` at
    p = -10), an open domain-error defect of netclear.  They are left out
    because of that defect, not because they are slow.
    """

    name = "scan"
    pool_size = 32
    cap_s = 30.0
    tail_pct = 75.0
    # (sellers, buyers, missing (seller, buyer) pair or None, box, step)
    SHAPES = (
        (2, 3, None, (-0.5, 4.5), 0.5),      # 6 trades, 11^6 points
        (3, 2, None, (-0.5, 4.5), 0.5),      # 6 trades, 11^6 points
        (2, 3, (1, 2), (-0.5, 3.75), 0.25),  # 5 trades, 18^5 points
        (3, 2, (2, 1), (-0.5, 3.75), 0.25),  # 5 trades, 18^5 points
    )
    FAMILIES = ("linear", "exp", "kink")

    def item(self, i):
        rng = random.Random(f"scan:{i}")
        sellers, buyers, missing, box, step = self.SHAPES[i % len(self.SHAPES)]
        pairs = [(s, b) for s in range(sellers) for b in range(buyers)
                 if (s, b) != missing]
        while True:
            order_s = rng.sample(range(sellers), sellers)
            order_b = rng.sample(range(buyers), buyers)
            match = list(zip(order_s, order_b))
            if all(m in pairs for m in match):
                break
        levels = _axis(box, step)
        mid = [v for v in levels if 1.0 <= v <= 2.5]
        price = {}
        for s, b in match:
            price[(s, b)] = rng.choice(mid)
        # margins below half a step (slopes are at least 0.5), so no grid
        # neighbour of the planted point is an equilibrium as well
        margin = lambda: round(rng.uniform(0.05, 0.45 * step), 4)  # noqa: E731
        cost = {}
        matched_s = {s: b for s, b in match}
        matched_b = {b: s for s, b in match}
        for s in range(sellers):
            own = [p for p in pairs if p[0] == s and p not in price]
            if s in matched_s:
                # one step below the traded price: the seller strictly
                # prefers its trade, and a step up would tie it
                top = price[(s, matched_s[s])]
                for p in own:
                    price[p] = round(top - step, 12)
                cost[s] = round(top - margin(), 4)
            else:
                level = rng.choice(mid)
                for p in own:
                    price[p] = level
                cost[s] = round(level + margin(), 4)
        families = list(itertools.islice(itertools.cycle(self.FAMILIES),
                                         len(pairs)))
        rng.shuffle(families)
        family = dict(zip(pairs, families))
        buyer_exprs = {}
        for b in range(buyers):
            own = [p for p in pairs if p[1] == b]
            best = margin() if b in matched_b else 0.0
            exprs = {}
            for p in own:
                target = best if matched_b.get(b) == p[0] else best - margin()
                exprs[f"t{p[0]}{p[1]}"] = self._calibrate(
                    rng, family[p], f"t{p[0]}{p[1]}", price[p], target)
            buyer_exprs[f"b{b}"] = exprs
        return {
            "trades": [[f"t{s}{b}", f"s{s}", f"b{b}"] for s, b in pairs],
            "sellers": {f"s{s}": {f"t{s}{b}": cost[s] for ss, b in pairs
                                  if ss == s} for s in range(sellers)},
            "buyers": buyer_exprs,
            "box": list(box),
            "step": step,
            "planted": [price[p] for p in pairs],
        }

    @staticmethod
    def _calibrate(rng, family, tid, p, target):
        """Expression of one buyer trade whose utility at price p is target."""
        if family == "linear":
            v = target + p
            return f"{v:.4f} - p[{tid}]"
        if family == "exp":
            v = target + p + 0.1 * (math.exp(p / 2) - 1)
            return f"{v:.4f} - p[{tid}] - 0.1*(exp(p[{tid}]/2) - 1)"
        kink = round(rng.uniform(1.0, 2.5), 3)
        v = target + p if p <= kink else target + kink + 0.5 * (p - kink)
        return (f"piecewise{{ p[{tid}] <= {kink} : {v:.4f} - p[{tid}]; "
                f"else : {v:.4f} - {kink} - 0.5*(p[{tid}] - {kink}) }}")

    @staticmethod
    def build(spec) -> nc.UtilityProfile:
        network = nc.build_network([tuple(t) for t in spec["trades"]])
        firms = {}
        for s, costs in spec["sellers"].items():
            valuation = {0: 0.0}
            for tid, c in costs.items():
                valuation[network.mask_of([tid])] = -c
            firms[s] = nc.make_quasilinear(s, network, valuation)
        for b, exprs in spec["buyers"].items():
            firms[b] = nc.make_unit_demand(
                b, network,
                {tid: nc.parse_expr(text) for tid, text in exprs.items()})
        return nc.UtilityProfile(network, firms)

    def run(self, spec):
        profile = self.build(spec)
        records = nc.find_equilibria(profile, tuple(spec["box"]), spec["step"],
                                     refine=False)
        return profile, records

    def output(self, spec, result):
        profile, records = result
        return _records_out(profile.network, records)

    def oracle(self, spec, result) -> list[str]:
        """Independent check of every record with the interpreted evaluator.

        At each record's prices, every firm's share of the designated
        support must be in that firm's argmax, with firm values computed
        by ``expr.eval_expr`` over the firm's table; and the planted
        equilibrium must be among the records.
        """
        profile, records = result
        network = profile.network
        problems = []
        for rec in records:
            prices = {t.id: v for t, v in zip(network.trades, rec.prices.values)}
            designated = rec.supports[0]
            for f, fu in profile.firms.items():
                values = {m: eval_expr(e, prices) for m, e in fu.table.items()}
                own = designated & fu.omega
                best = max(values.values())
                if own not in values or values[own] < best - 1e-7:
                    problems.append(f"{f} does not demand its share at "
                                    f"{rec.prices.values}")
        found = {tuple(r.prices.values) for r in records}
        if tuple(spec["planted"]) not in found:
            problems.append(f"planted equilibrium {spec['planted']} missing")
        return problems


# -- structure ------------------------------------------------------------------

class Structure(Workload):
    """CLI ``solve``/``lattice``/``rural``/``extremal`` on scenario files.

    The bundled ``scenarios/*.json`` run in every pass (``--step`` is set
    where the default grid would let one task dominate the run).  Seeded
    quasi-linear assignment markets with tied integer values are written
    as scenario files during set-up.  Ties give equilibrium continua, so
    tasks produce tens of records: record assembly (``is_equilibrium``,
    ``demand_set``), refine and dedupe, and the O(R^2) verifiers dominate,
    while the grid scan is negligible.  ``scan`` uses the same
    ``equilibrium`` layer batched; this workload uses it point by point,
    so a change that helps one and hurts the other shows.
    """

    name = "structure"
    pool_size = 96
    cap_s = 30.0
    tail_pct = 95.0
    COMMANDS = ("solve", "lattice", "rural", "extremal")
    # (scenario, command, --step or None): every bundled pair, always run
    BUNDLED = tuple(
        (sc, cmd, {("three-supplier", "lattice"): 0.5,
                   ("three-supplier", "rural"): 0.5}.get((sc, cmd)))
        for sc in ("exchange-small", "kinked-pair", "matching-small", "star",
                   "three-supplier", "triple-trade")
        for cmd in ("solve", "lattice", "rural", "extremal"))
    # (sellers, buyers, largest value) of the seeded tied markets; on the
    # 0.5 grid these give up to 55 (1x3, 3x1) and 104 (2x2) records, so no
    # O(R^2) lattice task dominates a pass
    SHAPES = ((1, 3, 3), (3, 1, 3), (2, 2, 2))

    def fixed(self):
        return [{"scenario": sc, "cmd": cmd, "step": step}
                for sc, cmd, step in self.BUNDLED]

    def item(self, i):
        market = i // len(self.COMMANDS)
        rng = random.Random(f"structure:{market}")
        sellers, buyers, top = self.SHAPES[market % len(self.SHAPES)]
        values = {f"t{s}{b}": rng.randint(1, top)
                  for s in range(sellers) for b in range(buyers)}
        utilities = {}
        for s in range(sellers):
            utilities[f"s{s}"] = [{"bundle": [], "expr": "0"}] + [
                {"bundle": [f"t{s}{b}"], "expr": f"p[t{s}{b}]"}
                for b in range(buyers)]
        for b in range(buyers):
            utilities[f"b{b}"] = [{"bundle": [], "expr": "0"}] + [
                {"bundle": [f"t{s}{b}"], "expr": f"{values[f't{s}{b}']} - p[t{s}{b}]"}
                for s in range(sellers)]
        scenario = {
            "version": 1, "kind": "network",
            "trades": [{"id": f"t{s}{b}", "seller": f"s{s}", "buyer": f"b{b}"}
                       for s in range(sellers) for b in range(buyers)],
            "utilities": utilities,
            "analysis": {"box": [0, max(values.values()) + 1],
                         "step": 0.5},
        }
        return {"scenario": f"tied-{market}", "document": scenario,
                "cmd": self.COMMANDS[i % len(self.COMMANDS)], "step": None}

    def prepare(self, spec, workdir):
        """Write generated scenarios; bundled ones are read in place."""
        if "document" in spec:
            path = os.path.join(workdir, f"{spec['scenario']}.json")
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(spec["document"], fh, indent=1)
        else:
            path = os.path.join(ROOT, "scenarios", f"{spec['scenario']}.json")
        argv = [spec["cmd"], path]
        if spec["step"] is not None:
            argv += ["--step", repr(spec["step"])]
        return {"argv": argv, "stem": f"{spec['scenario']}-{spec['cmd']}",
                "workdir": workdir}

    def run(self, inp):
        out = os.path.join(inp["workdir"], "out")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(inp["argv"] + ["--out", out])
        return code, out

    def output(self, inp, result):
        code, out = result
        path = os.path.join(out, f"{inp['stem']}.json")
        report = None
        if code != 1:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            os.remove(path)
        return {"exit": code, "report": report}


# -- manipulate -----------------------------------------------------------------

class Manipulate(Workload):
    """``manipulation_search`` for one buyer coalition of a small market.

    Markets follow acceptance criterion 6: one or two unit-supply sellers,
    one or two unit-demand buyers, quasi-linear, integer values 0-5, each
    seller-buyer pair present with probability 0.85.  The search grid is
    the integer grid on [0, max value + 1], where integer-valued
    assignment markets always have equilibria.  Each task is one single or
    pair coalition with criterion 6's truncation levels and uplift
    amounts: tens to hundreds of small ``find_equilibria`` and
    ``extremal_equilibria`` calls on freshly built misreport profiles.
    Per-misreport record assembly (``is_equilibrium``, Z, ``demand_set``)
    and the O(R^2 n) extremal scan dominate; the grid scan is small.  This
    is the only workload where a fixed-point solver or a per-misreport
    cache can show.
    """

    name = "manipulate"
    pool_size = 180
    cap_s = 60.0
    tail_pct = 75.0
    # no tail take-all stratum: this pool is dense enough at p75 that pairing
    # keeps the tail steady, and taking its top quarter whole would move the
    # pass median into a sparse, noisy region of task cost
    take_all_pct = 100.0
    LEVELS = (0.25, 0.75, 1.25, 2.0, 3.0)
    UPLIFTS = (0.25, 0.5, 1.0, 1.5, 2.0)

    def __init__(self):
        self._pool = None

    def _market(self, rng):
        while True:
            sellers, buyers = rng.randint(1, 2), rng.randint(1, 2)
            values = {}
            for s in range(sellers):
                for b in range(buyers):
                    if rng.random() < 0.85:
                        values[(s, b)] = rng.randint(0, 5)
            if values:
                return sellers, buyers, values

    def item(self, i):
        if self._pool is None:
            pool = []
            market = 0
            while len(pool) < self.pool_size:
                rng = random.Random(f"manipulate:{market}")
                sellers, buyers, values = self._market(rng)
                names = sorted({f"b{b}" for _, b in values})
                coalitions = [[b] for b in names] + [
                    list(c) for c in itertools.combinations(names, 2)]
                for coalition in coalitions:
                    pool.append({
                        "market": market, "sellers": sellers, "buyers": buyers,
                        "values": sorted([s, b, v] for (s, b), v in values.items()),
                        "coalition": coalition,
                        "box": [0.0, max(values.values()) + 1.0], "step": 1.0})
                market += 1
            self._pool = pool[:self.pool_size]
        return self._pool[i]

    def run(self, spec):
        values = {(s, b): v for s, b, v in spec["values"]}
        profile = instances.assignment_market(spec["sellers"], spec["buyers"],
                                              values)
        cfg = nc.SearchConfig(box=tuple(spec["box"]), step=spec["step"])
        return nc.manipulation_search(profile, spec["coalition"], cfg,
                                   truncation_levels=self.LEVELS,
                                   uplift_amounts=self.UPLIFTS,
                                   # looked up per call, so a traced run sees
                                   # the tracer's wrapper
                                   mech=mechanisms.buyer_optimal_mechanism)

    def output(self, spec, report):
        def dev(d):
            return None if d is None else [list(d.descriptors), d.deltas]
        return {"coalition": list(report.coalition), "tried": report.tried,
                "all_gain": dev(report.all_gain),
                "some_gain": [dev(d) for d in report.some_gain]}


# -- properties -----------------------------------------------------------------

def _check(kind, variant):
    if kind == "sss":
        return lambda u, pairs: nc.check_same_side(u, variant, pairs)
    if kind == "csc":
        return lambda u, pairs: nc.check_cross_side(u, variant, pairs)
    if kind == "fs":
        return lambda u, pairs: nc.check_full_substitutability(u, variant, pairs)
    if kind == "lad":
        return lambda u, pairs: nc.check_aggregate_law(u, "demand", variant, pairs)
    if kind == "las":
        return lambda u, pairs: nc.check_aggregate_law(u, "supply", variant, pairs)
    return lambda u, pairs: nc.check_monotone_substitutability(u, pairs)


class Properties(Workload):
    """One sampled ``check_*`` call per task, over seeded pattern pairs.

    Subjects are the bundled firms (star intermediary, three-supplier,
    triple-trade and kinked-pair buyers) and firms of seeded quasi-linear
    assignment markets; pairs come from ``grid_pattern_pairs`` (seeded)
    and ``exhaustive_pattern_pairs``.  Every check runs in each of its
    variants.  This is the only workload where ``properties`` runs; it is
    dominated by scalar ``demand_set`` and scalar expression calls, with
    no equilibrium search.
    """

    name = "properties"
    pool_size = 280
    cap_s = 30.0
    tail_pct = 99.0
    CHECKS = (("sss", "weak"), ("sss", "expansion"), ("sss", "contraction"),
              ("csc", "weak"), ("csc", "expansion"), ("csc", "contraction"),
              ("fs", "weak"), ("fs", "expansion"), ("fs", "contraction"),
              ("lad", "weak"), ("lad", "strong"),
              ("las", "weak"), ("las", "strong"),
              ("monotone", "strong"))
    # bundled subject: (builder, box, step)
    BUNDLED = {
        "star": ("star_intermediary", (-1.0, 3.0), 0.25),
        "three-supplier": ("three_supplier_buyer", (-1.0, 2.0), 0.25),
        "triple-trade": ("triple_trade_buyer", (0.0, 4.0), 0.25),
        "kinked-pair": ("kinked_pair_buyer", (0.0, 3.0), 0.25),
    }
    RANDOM_SUBJECTS = 6
    GRID_PAIRS = 400  # per side
    EXHAUSTIVE_PAIRS = 400  # per side

    def __init__(self):
        self._pairs = {}

    def item(self, i):
        per_subject = 2 * len(self.CHECKS)
        subject, rest = divmod(i, per_subject)
        source = ("grid", "exhaustive")[rest // len(self.CHECKS)]
        kind, variant = self.CHECKS[rest % len(self.CHECKS)]
        names = sorted(self.BUNDLED)
        if subject < len(names):
            builder, box, step = self.BUNDLED[names[subject]]
            firm = {"builder": builder}
        else:
            rng = random.Random(f"properties:{subject}")
            sellers, buyers = rng.choice(((2, 2), (3, 1), (1, 3), (2, 3)))
            values = sorted([s, b, rng.randint(0, 4)]
                            for s in range(sellers) for b in range(buyers))
            role = rng.choice(("s", "b"))
            index = rng.randrange(sellers if role == "s" else buyers)
            firm = {"sellers": sellers, "buyers": buyers, "values": values,
                    "firm": f"{role}{index}"}
            box, step = (-0.5, 4.5), 0.5
        return {"subject": subject, "firm": firm, "source": source,
                "box": list(box), "step": step, "check": [kind, variant],
                "seed": 1000 + subject}

    @staticmethod
    def build(firm):
        if "builder" in firm:
            return getattr(instances, firm["builder"])()
        values = {(s, b): v for s, b, v in firm["values"]}
        profile = instances.assignment_market(firm["sellers"], firm["buyers"],
                                              values)
        return profile.firms[firm["firm"]]

    def prepare(self, spec, workdir):
        """Generate each subject's price pairs once; every task rebuilds its firm."""
        key = (spec["subject"], spec["source"])
        if key not in self._pairs:
            u = self.build(spec["firm"])
            box, step = tuple(spec["box"]), spec["step"]
            pairs = []
            sides = [side for side, mask in (
                ("purchase-raise", u.network.buys_mask(u.firm)),
                ("sale-lower", u.network.sells_mask(u.firm))) if mask]
            # a side the firm does not trade on has no pairs; skipping it
            # spares exhaustive_pattern_pairs a walk over the whole grid
            for side in sides:
                if spec["source"] == "grid":
                    pairs += nc.grid_pattern_pairs(u, box, step, side,
                                                   count=self.GRID_PAIRS,
                                                   seed=spec["seed"])
                else:
                    pairs += itertools.islice(
                        nc.exhaustive_pattern_pairs(u, box, step, side),
                        self.EXHAUSTIVE_PAIRS)
            self._pairs[key] = pairs
        return {"firm": spec["firm"], "pairs": self._pairs[key],
                "check": spec["check"]}

    def run(self, inp):
        u = self.build(inp["firm"])
        return _check(*inp["check"])(u, inp["pairs"])

    def output(self, inp, report):
        return {"name": report.name, "variant": report.variant,
                "verdict": report.verdict, "pairs_tested": report.pairs_tested,
                "violations": [[list(v.p), list(v.p2), v.bundle, v.detail]
                               for v in report.violations]}


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = {w.name: w for w in (Scan(), Structure(), Manipulate(), Properties())}


def digest_of(workload, inp, result) -> str:
    return canon(workload.output(inp, result))
