"""Command-line interface: scenario loading, dispatch, report emission.

Scenario files are JSON (schema ``"version": 1``) of three kinds:

``network``::

    {"version": 1, "kind": "network",
     "trades": [{"id": "a1", "seller": "s1", "buyer": "f"}, ...],
     "utilities": {"f": [{"bundle": ["a1", "b1"], "expr": "2 - p[a1] + p[b1]"},
                         ...], ...},
     "analysis": {"box": [-1, 3], "step": 0.25,
                  "eps_tie": 1e-9, "eps_eq": 1e-7, "seed": 42}}

``matching``::

    {"version": 1, "kind": "matching",
     "hospitals": {"h1": [{"doctors": ["d1"], "expr": "3 - p[d1]"}, ...]},
     "doctors": {"d1": {"outside": 0, "offers": {"h1": "1 + t"}}},
     "analysis": {...}}

(hospital expressions are over salaries ``p[d]``; doctor offers are
expressions in the salary ``t``)

``exchange``::

    {"version": 1, "kind": "exchange",
     "objects": ["x", "y"],
     "agents": {"A": {"endowment": ["x"],
                      "utility": [{"objects": ["x"], "expr": "3 + t"}, ...]}},
     "analysis": {...}}

(agent expressions are in the net money transfer ``t``)

Exit codes: 0 success / property passed, 2 property violation found,
1 error (a usage error included).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import adapters, expr as ex, jsonwriter
from .demand import EPS_TIE, demand_set
from .equilibrium import (
    EPS_EQ,
    extremal_equilibria,
    find_equilibria,
    grid_axis,
    grid_surplus,
    lattice_pairs,
    rural_pairs,
)
from .errors import (
    ExpressionSyntaxError,
    NetclearError,
    ScenarioParseError,
    ScenarioValidationError,
    SchemaVersionMismatch,
    UnknownFirm,
    UnknownPriceSymbol,
)
from .mechanisms import SearchConfig, buyer_optimal_mechanism
from .model import PriceVector, TradeNetwork, build_network, terminal_roles
from .properties import (
    check_aggregate_law,
    check_cross_side,
    check_full_substitutability,
    check_monotone_substitutability,
    check_nib,
    check_same_side,
    grid_pattern_pairs,
)
from .utility import FirmUtility, UtilityProfile

SCHEMA_VERSION = 1


@dataclass
class Analysis:
    box: tuple[float, float]
    step: float
    eps_tie: float
    eps_eq: float
    seed: int


@dataclass
class Scenario:
    kind: str
    network: TradeNetwork
    profile: UtilityProfile
    analysis: Analysis


def _fail(msg: str):
    raise ScenarioValidationError(msg)


_JSON_KINDS = {dict: "object", list: "array", str: "string"}


def _json(x, kind: type, where: str):
    """x, when it is a JSON object, array or string (kind dict, list or str)."""
    if not isinstance(x, kind):
        _fail(f"{where}: not a JSON {_JSON_KINDS[kind]}")
    return x


def _repeat(items: list):
    """The first item of items equal to an earlier one."""
    return next(x for i, x in enumerate(items) if x in items[:i])


def _names(x, where: str) -> list[str]:
    """x, when it is a JSON array of distinct strings."""
    if not (isinstance(x, list) and all(isinstance(name, str) for name in x)):
        _fail(f"{where}: not an array of strings")
    if len(set(x)) < len(x):
        _fail(f"{where}: {_repeat(x)!r} listed twice")
    return x


def _expr(text, where: str, **kwargs) -> ex.Expr:
    """The expression of the JSON string at where; an error in it names where."""
    try:
        return ex.parse_expr(_json(text, str, where), **kwargs)
    except (ExpressionSyntaxError, UnknownPriceSymbol) as e:
        raise type(e)(f"{where}: {e}") from None


def _table(entries, key: str, where: str, known=None, **kwargs) -> dict[frozenset, ex.Expr]:
    """The JSON array of ``{key: [names], "expr": text}`` entries at where,
    as a map from name sets to parsed expressions.  With ``known``, every
    name must be one of its trade ids."""
    table = {}
    for j, entry in enumerate(_json(entries, list, where)):
        item = f"{where}[{j}]"
        names = _names(_json(entry, dict, item).get(key, []), f"{item}.{key}")
        for name in names:
            if known is not None and name not in known:
                _fail(f"{item}: unknown trade {name!r}")
        if "expr" not in entry:
            _fail(f"{item}: missing 'expr'")
        if frozenset(names) in table:
            _fail(f"{item}.{key}: {sorted(names)} has an earlier entry")
        table[frozenset(names)] = _expr(entry["expr"], f"{item}.expr", **kwargs)
    return table


def _finite(x) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def _analysis(a, path: str) -> Analysis:
    if not isinstance(a, dict):
        _fail(f"{path}: analysis: not a JSON object")
    box = a.get("box", (-1.0, 3.0))
    if not (isinstance(box, (list, tuple)) and len(box) == 2 and all(map(_finite, box))):
        _fail(f"{path}: analysis.box: not two numbers: {box!r}")
    values = {"step": 0.25, "eps_tie": EPS_TIE, "eps_eq": EPS_EQ, "seed": 42}
    for key in values:
        x = values[key] = a.get(key, values[key])
        whole = key == "seed"
        if not _finite(x) or whole and type(x) is not int:
            _fail(f"{path}: analysis.{key}: not a {'whole' if whole else 'finite'} "
                  f"number: {x!r}")
    if values["step"] <= 0:
        _fail(f"{path}: analysis.step: not positive: {values['step']!r}")
    for key in ("eps_tie", "eps_eq", "seed"):
        if values[key] < 0:
            _fail(f"{path}: analysis.{key}: negative: {values[key]!r}")
    return Analysis(tuple(box), float(values["step"]), float(values["eps_tie"]),
                    float(values["eps_eq"]), values["seed"])


def _object(pairs: list[tuple], path: str) -> dict:
    """The JSON object of pairs, when no key in it repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        _fail(f"{path}: key {_repeat([k for k, _ in pairs])!r} repeated in one object")
    return obj


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=lambda pairs: _object(pairs, path))
    except OSError as e:
        raise ScenarioParseError(str(e)) from e
    except json.JSONDecodeError as e:
        raise ScenarioParseError(
            f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(raw, dict):
        _fail(f"{path}: the scenario is not a JSON object")
    if type(raw.get("version")) is not int or raw["version"] != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"{path}: expected version {SCHEMA_VERSION}, got {raw.get('version')!r}")
    kind = raw.get("kind", "network")
    analysis = _analysis(raw.get("analysis", {}), path)
    if kind == "network":
        return _load_network(raw, analysis, path)
    if kind == "matching":
        return _load_matching(raw, analysis, path)
    if kind == "exchange":
        return _load_exchange(raw, analysis, path)
    _fail(f"{path}: unknown scenario kind {kind!r}")


def _load_network(raw: dict, analysis: Analysis, path: str) -> Scenario:
    trades = []
    for i, t in enumerate(_json(raw.get("trades", []), list, f"{path}: trades")):
        for key in ("id", "seller", "buyer"):
            if key not in _json(t, dict, f"{path}: trades[{i}]"):
                _fail(f"{path}: trades[{i}]: missing {key!r}")
            _json(t[key], str, f"{path}: trades[{i}].{key}")
        if any(t["id"] == tid for tid, _, _ in trades):
            _fail(f"{path}: trades[{i}].id: {t['id']!r} repeats an earlier trade id")
        trades.append((t["id"], t["seller"], t["buyer"]))
    network = build_network(trades)
    ids = [t.id for t in network.trades]
    firms = {}
    for f, entries in _json(raw.get("utilities", {}), dict, f"{path}: utilities").items():
        if f not in network.firms:
            _fail(f"{path}: utilities: unknown firm {f!r}")
        table = _table(entries, "bundle", f"{path}: utilities[{f}]", network.index,
                       allowed_trades=ids)
        firms[f] = FirmUtility(f, network, {network.mask_of(b): e for b, e in table.items()})
    missing = network.firms - set(firms)
    if missing:
        _fail(f"{path}: no utilities for firms {sorted(missing)}")
    profile = UtilityProfile(network, firms)
    return Scenario("network", network, profile, analysis)


def _load_matching(raw: dict, analysis: Analysis, path: str) -> Scenario:
    hospitals = {h: _table(entries, "doctors", f"{path}: hospitals[{h}]", allowed_trades=None)
                 for h, entries in _json(raw.get("hospitals", {}), dict,
                                         f"{path}: hospitals").items()}
    doctors = {}
    outside = {}
    for d, spec in _json(raw.get("doctors", {}), dict, f"{path}: doctors").items():
        where = f"{path}: doctors[{d}]"
        outside[d] = _json(spec, dict, where).get("outside", 0.0)
        if not _finite(outside[d]):
            _fail(f"{where}.outside: not a finite number: {outside[d]!r}")
        offers = _json(spec.get("offers", {}), dict, f"{where}.offers")
        doctors[d] = {h: _expr(text, f"{where}.offers[{h}]",
                               allowed_trades=None, allow_vars=("t",))
                      for h, text in offers.items()}
    market = adapters.MatchingMarket(
        tuple(sorted(hospitals)), tuple(sorted(doctors)),
        hospitals, doctors, outside)
    network, profile = adapters.induce_from_matching(market)
    return Scenario("matching", network, profile, analysis)


def _load_exchange(raw: dict, analysis: Analysis, path: str) -> Scenario:
    objects = tuple(_names(raw.get("objects", []), f"{path}: objects"))
    endowments = {}
    tables = {}
    for agent, spec in _json(raw.get("agents", {}), dict, f"{path}: agents").items():
        where = f"{path}: agents[{agent}]"
        endowments[agent] = tuple(_names(_json(spec, dict, where).get("endowment", []),
                                         f"{where}.endowment"))
        tables[agent] = _table(spec.get("utility", []), "objects", f"{where}.utility",
                               allowed_trades=None, allow_vars=("t",))
    economy = adapters.ExchangeEconomy(objects, endowments, tables)
    induced = adapters.induce_from_exchange(economy)
    return Scenario("exchange", induced.network, induced.profile, analysis)


# -- reporting ---------------------------------------------------------------

@dataclass
class RunResult:
    exit_code: int
    text: str
    payload: dict
    # rows produced while the CSV report is written
    csv_rows: Iterable[list] | None = None


def emit_report(result: RunResult, out_dir: str | None, stem: str) -> list[str]:
    """Write the text and JSON reports, and the CSV rows when there are any."""
    if not out_dir:
        return []
    os.makedirs(out_dir, exist_ok=True)
    text, js, table = (os.path.join(out_dir, f"{stem}.{ext}")
                       for ext in ("txt", "json", "csv"))
    with open(text, "w", encoding="utf-8") as fh:
        fh.write(result.text)
    with open(js, "w", encoding="utf-8") as fh:
        jsonwriter.dump(result.payload, fh)
        fh.write("\n")
    if result.csv_rows is None:
        return [text, js]
    with open(table, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(result.csv_rows)
    return [text, js, table]


def _ids(network: TradeNetwork, mask: int) -> list[str]:
    return sorted(network.ids_of(mask))


# -- commands ----------------------------------------------------------------

def _firm(sc: Scenario, firm: str) -> FirmUtility:
    if firm not in sc.profile.firms:
        raise UnknownFirm(f"unknown firm {firm!r}")
    return sc.profile.firms[firm]


def _least_firm(sc: Scenario) -> str:
    """The first firm by name, the default of ``--firm``."""
    if not sc.profile.firms:
        raise UnknownFirm("the scenario has no firms")
    return min(sc.profile.firms)


def cmd_demand(sc: Scenario, args) -> RunResult:
    firm = args.firm or _least_firm(sc)
    try:
        prices = PriceVector.of(sc.network, [float(v) for v in args.prices])
    except ValueError:
        _fail(f"--prices: not numbers: {args.prices}")
    d = demand_set(_firm(sc, firm), prices, sc.analysis.eps_tie)
    bundles = [_ids(sc.network, m) for m in d.bundles]
    lines = [f"demand of {firm} at {list(prices.values)}:"]
    lines += [f"  {b}" for b in bundles]
    lines.append(f"indirect utility: {d.indirect:.9g}")
    payload = {"firm": firm, "prices": list(prices.values),
               "bundles": bundles, "indirect": d.indirect}
    return RunResult(0, "\n".join(lines) + "\n", payload)


_CLAUSE_VARIANTS = ("weak", "expansion", "contraction")
_LAW_VARIANTS = ("weak", "strong")
# per pair property: the variants --variant may name, the variant a check
# runs as without --variant, and the check
_PROPERTIES = {
    "sss": (_CLAUSE_VARIANTS, "expansion", check_same_side),
    "csc": (_CLAUSE_VARIANTS, "expansion", check_cross_side),
    "fs": (_CLAUSE_VARIANTS, "expansion", check_full_substitutability),
    "lad": (_LAW_VARIANTS, "strong",
            lambda u, v, pairs, eps: check_aggregate_law(u, "demand", v, pairs, eps)),
    "las": (_LAW_VARIANTS, "strong",
            lambda u, v, pairs, eps: check_aggregate_law(u, "supply", v, pairs, eps)),
    "monotone-substitutability":
        ((), None, lambda u, v, pairs, eps: check_monotone_substitutability(u, pairs, eps)),
}


def cmd_check(sc: Scenario, args) -> RunResult:
    variants, default, check = _PROPERTIES.get(args.property, ((), None, None))
    if args.variant is not None and args.variant not in variants:
        takes = ", ".join(variants) or "no variant"
        raise NetclearError(f"--variant {args.variant}: --property {args.property} "
                            f"takes {takes}")
    firm = args.firm or min((f for f, r in terminal_roles(sc.network).items()
                             if r == "intermediate"), default=_least_firm(sc))
    u = _firm(sc, firm)
    if args.property == "nib":
        levels = grid_axis(sc.analysis.box, sc.analysis.step, 1)
        rng = np.random.default_rng(sc.analysis.seed)
        grid = [PriceVector(sc.network, tuple(float(levels[rng.integers(len(levels))])
                                              for _ in range(sc.network.n)))
                for _ in range(50)]
        report = check_nib(u, grid, eps_tie=sc.analysis.eps_tie)
    else:
        pairs = [pair for side in ("purchase-raise", "sale-lower")
                 for pair in grid_pattern_pairs(u, sc.analysis.box, sc.analysis.step,
                                                side, count=200, seed=sc.analysis.seed)]
        report = check(u, args.variant or default, pairs, sc.analysis.eps_tie)
    lines = [f"{report.name} ({report.variant}) for {firm}: {report.verdict} "
             f"[{report.pairs_tested} pairs]"]
    for v in report.violations[:10]:
        lines.append(f"  witness: p={list(v.p)} p'={list(v.p2)} "
                     f"bundle={_ids(sc.network, v.bundle)}")
    payload = {"firm": firm, "property": report.name,
               "variant": report.variant, "verdict": report.verdict,
               "pairs_tested": report.pairs_tested,
               "violations": jsonwriter.Rows(
                   ("bundle", "detail", "p", "p2"),
                   [(_ids(sc.network, v.bundle), v.detail, v.p, v.p2)
                    for v in report.violations])}
    return RunResult(0 if report.ok else 2, "\n".join(lines) + "\n", payload)


def _records_payload(sc: Scenario, records) -> jsonwriter.Rows:
    return jsonwriter.Rows(
        ("net_indices", "prices", "supports", "surplus"),
        [(rec.net_indices, list(rec.prices.values),
          [_ids(sc.network, m) for m in rec.supports], rec.surplus)
         for rec in sorted(records, key=lambda r: r.prices.values)])


def _solve(sc: Scenario, args):
    return find_equilibria(sc.profile, sc.analysis.box, sc.analysis.step,
                           refine=not getattr(args, "no_refine", False),
                           eps_eq=sc.analysis.eps_eq,
                           eps_tie=sc.analysis.eps_tie)


def cmd_solve(sc: Scenario, args) -> RunResult:
    records = _solve(sc, args)
    payload = {"equilibria": _records_payload(sc, records)}
    lines = [f"{len(records)} equilibria on grid "
             f"{list(sc.analysis.box)} step {sc.analysis.step}:"]
    for _, prices, supports, _ in payload["equilibria"].rows:
        lines.append(f"  p={prices} supports={supports}")
    csv_rows = None
    if getattr(args, "csv", False):
        # the scan above evaluated every firm on this grid, so no row can fail
        csv_rows = itertools.chain(
            [["trade:" + t.id for t in sc.network.trades] + ["Z"]],
            (row + [zr] for points, z in grid_surplus(sc.profile, sc.analysis.box,
                                                       sc.analysis.step)
             for row, zr in zip(points.tolist(), z)))
    return RunResult(0, "\n".join(lines) + "\n", payload, csv_rows)


def cmd_lattice(sc: Scenario, args) -> RunResult:
    records = _solve(sc, args)
    pairs = [(join, join_eq, meet, meet_eq, e.prices.values, e2.prices.values)
             for e, e2, join, meet, join_eq, meet_eq in lattice_pairs(
                 sc.profile, records, sc.analysis.eps_eq, sc.analysis.eps_tie)]
    # id of a join or meet point, which lattice_pairs shares between the
    # pairs it belongs to -> the point's text
    shown: dict[int, str] = {}

    def show(q: tuple[float, ...]) -> str:
        return shown.get(id(q)) or shown.setdefault(id(q), str(list(q)))

    lines = [f"lattice failure: join {show(join)} equilibrium: "
             f"{join_eq}, meet {show(meet)} equilibrium: {meet_eq}"
             for join, join_eq, meet, meet_eq, _, _ in pairs if not (join_eq and meet_eq)]
    head = (f"lattice check over {len(records)} equilibria: "
            f"{len(lines)} failing pair(s)")
    payload = {"pairs": jsonwriter.Rows(
        ("join", "join_equilibrium", "meet", "meet_equilibrium", "p", "p2"), pairs)}
    return RunResult(0 if not lines else 2,
                     head + "\n" + "\n".join(lines) + "\n", payload)


def cmd_rural(sc: Scenario, args) -> RunResult:
    records = _solve(sc, args)
    # an empty tuple, unlike a fresh empty list, leaves the row untracked by gc
    pairs = [(e.prices.values, e2.prices.values,
              [_ids(sc.network, m) for m in unmatched] if unmatched else ())
             for e, e2, unmatched in rural_pairs(sc.profile, records, sc.analysis.eps_eq)]
    violations = sum(bool(unmatched) for _, _, unmatched in pairs)
    head = (f"rural-hospitals check over {len(records)} equilibria: "
            f"{violations} failing pair(s)")
    payload = {"pairs": jsonwriter.Rows(("p", "p2", "unmatched"), pairs)}
    return RunResult(0 if violations == 0 else 2, head + "\n", payload)


def cmd_extremal(sc: Scenario, args) -> RunResult:
    records = _solve(sc, args)
    rep = extremal_equilibria(sc.profile, records)
    payload = {
        "seller_optimal": (list(rep.seller_optimal.prices.values)
                           if rep.seller_optimal else None),
        "buyer_optimal": (list(rep.buyer_optimal.prices.values)
                          if rep.buyer_optimal else None),
        "seller_dominant": rep.seller_dominant,
        "buyer_dominant": rep.buyer_dominant,
    }
    lines = [f"seller-optimal: {payload['seller_optimal']}",
             f"buyer-optimal: {payload['buyer_optimal']}"]
    code = 0 if rep.seller_dominant and rep.buyer_dominant else 2
    if not rep.seller_dominant:
        lines.append("no seller-dominant equilibrium in the found set")
    if not rep.buyer_dominant:
        lines.append("no buyer-dominant equilibrium in the found set")
    return RunResult(code, "\n".join(lines) + "\n", payload)


def cmd_mechanism(sc: Scenario, args) -> RunResult:
    cfg = SearchConfig(sc.analysis.box, sc.analysis.step,
                       sc.analysis.eps_eq, sc.analysis.eps_tie)
    outcome = buyer_optimal_mechanism(sc.profile, cfg)
    payload = {
        "rule": outcome.rule,
        "bundle": _ids(sc.network, outcome.bundle),
        "prices": list(outcome.prices.values),
        "allocation_prices": outcome.allocation_prices,
        "utilities": outcome.utilities,
    }
    lines = [f"{outcome.rule}: bundle {payload['bundle']} at "
             f"prices {payload['prices']}"]
    return RunResult(0, "\n".join(lines) + "\n", payload)


def cmd_adapt(sc: Scenario, args) -> RunResult:
    if sc.kind == "network":
        return RunResult(1, "scenario is already a plain network\n",
                         {"error": "nothing to adapt"})
    roles = terminal_roles(sc.network)
    payload = {
        "kind": sc.kind,
        "trades": [{"id": t.id, "seller": t.seller, "buyer": t.buyer}
                   for t in sc.network.trades],
        "roles": roles,
    }
    lines = [f"induced network with {sc.network.n} trades:"]
    lines += [f"  {t.id}: {t.seller} -> {t.buyer}" for t in sc.network.trades]
    return RunResult(0, "\n".join(lines) + "\n", payload)


_COMMANDS = {
    "demand": cmd_demand,
    "check": cmd_check,
    "solve": cmd_solve,
    "lattice": cmd_lattice,
    "rural": cmd_rural,
    "extremal": cmd_extremal,
    "mechanism": cmd_mechanism,
    "adapt": cmd_adapt,
}


def run_command(cmd: str, scenario: Scenario, args) -> RunResult:
    return _COMMANDS[cmd](scenario, args)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as any other error: one line, exit code 1."""

    @staticmethod
    def error(message):
        raise NetclearError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = _Parser(
        prog="netclear",
        description="Demand, equilibria, and structural checks for trading "
                    "networks with frictions.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name: str, hlp: str, grid: bool):
        """A subcommand's parser; with grid, it takes --box and --step."""
        p = sub.add_parser(name, help=hlp)
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--out", help="directory for text/JSON reports")
        if grid:
            p.add_argument("--box", nargs=2, type=float, metavar=("LO", "HI"))
            p.add_argument("--step", type=float)
        return p

    p = command("demand", "demand correspondence at given prices", False)
    p.add_argument("--firm")
    p.add_argument("--prices", nargs="+", required=True)

    p = command("check", "substitutability / law checks", True)
    p.add_argument("--firm")
    p.add_argument("--property", required=True,
                   choices=sorted(_PROPERTIES) + ["nib"])
    p.add_argument("--variant", choices=["weak", "expansion", "contraction", "strong"])

    p = command("solve", "find equilibria on a grid", True)
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--csv", action="store_true",
                   help="also dump the surplus grid as CSV")

    for name, hlp in (("lattice", "join/meet closure over found equilibria"),
                      ("rural", "net-trade index matching over equilibria"),
                      ("extremal", "seller-/buyer-optimal equilibria"),
                      ("mechanism", "buyer-optimal mechanism outcome"),
                      ("adapt", "show the induced trading network")):
        p = command(name, hlp, name != "adapt")
        if name in ("lattice", "rural", "extremal"):
            p.add_argument("--no-refine", action="store_true")

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        sc = load_scenario(args.scenario)
        if getattr(args, "box", None) is not None:
            sc.analysis.box = (args.box[0], args.box[1])
        if getattr(args, "step", None) is not None:
            sc.analysis.step = args.step
        result = run_command(args.cmd, sc, args)
    except NetclearError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(result.text)
    stem = f"{os.path.splitext(os.path.basename(args.scenario))[0]}-{args.cmd}"
    try:
        emit_report(result, args.out, stem)
    except OSError as e:
        print(f"error: --out {args.out}: {e.strerror or e}", file=sys.stderr)
        return 1
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
