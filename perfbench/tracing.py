"""Span tracing around netclear's public functions, from outside ``src/``.

``Tracer.install`` replaces each traced function in every loaded netclear
module that holds a reference to it (modules import each other's
functions by name), and ``uninstall`` puts the originals back.  A span is
(id, parent id, task id, name, start, end); spans stay in memory until the
run ends.  A layer's self time is its spans' duration minus the part its
child spans cover.

Scalar expression closures are only counted, not timed: they run millions
of times and a span each would distort everything around them.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> (module, attribute); functions are wrapped wherever referenced
FUNCTIONS = {
    "expr.parse": ("netclear.expr", "parse_expr"),
    "demand.demand_set": ("netclear.demand", "demand_set"),
    "demand.indirect_utility": ("netclear.demand", "indirect_utility"),
    "equilibrium.find_equilibria": ("netclear.equilibrium", "find_equilibria"),
    "equilibrium.is_equilibrium": ("netclear.equilibrium", "is_equilibrium"),
    "equilibrium.verify_lattice_pair": ("netclear.equilibrium", "verify_lattice_pair"),
    "equilibrium.verify_rural_hospitals_pair":
        ("netclear.equilibrium", "verify_rural_hospitals_pair"),
    "equilibrium.extremal_equilibria": ("netclear.equilibrium", "extremal_equilibria"),
    "mechanisms.buyer_optimal_mechanism":
        ("netclear.mechanisms", "buyer_optimal_mechanism"),
    "mechanisms.manipulation_search": ("netclear.mechanisms", "manipulation_search"),
    "cli.load_scenario": ("netclear.cli", "load_scenario"),
    "cli.run_command": ("netclear.cli", "run_command"),
    "cli.emit_report": ("netclear.cli", "emit_report"),
}
PROPERTY_CHECKS = ("check_same_side", "check_cross_side",
                   "check_full_substitutability", "check_aggregate_law",
                   "check_monotone_substitutability", "check_single_improvement",
                   "check_nib", "check_bounds")
SPANS = tuple(FUNCTIONS) + ("expr.compile", "expr.vector", "equilibrium.surplus",
                            "properties.check")
COUNTS = ("expr.scalar.evals", "expr.vector.points", "equilibrium.grid_points",
          "equilibrium.records", "equilibrium.is_equilibrium.none",
          "equilibrium.verify_lattice_pair.failed",
          "equilibrium.verify_rural_hospitals_pair.failed",
          "mechanisms.buyer_optimal_mechanism.no_equilibrium",
          "mechanisms.buyer_optimal_mechanism.fallback",
          "mechanisms.misreports_tried", "properties.pairs_tested",
          "properties.violations")
MODULES = ("expr", "demand", "equilibrium", "mechanisms", "properties", "cli")


def _grid_points(fn, args, kwargs) -> int:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    lo, hi = bound.arguments["box"]
    step = bound.arguments["step"]
    levels = len(np.arange(lo, hi + step / 2, step))
    return levels ** bound.arguments["u"].network.n


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.task = 0
        self._stack = [0]
        self._next = 1
        self._undo: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def wrap(self, name, fn, after=None, on_error=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, self.task, name, start, end))
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "netclear" and not modname.startswith("netclear."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self):
        import netclear.equilibrium as eq
        import netclear.errors as errors
        import netclear.expr as ex
        import netclear.properties as props

        count = self.counts

        def after_find(result, args, kwargs):
            count["equilibrium.grid_points"] += _grid_points(find, args, kwargs)
            count["equilibrium.records"] += len(result)

        def after_is_eq(result, args, kwargs):
            if result is None:
                count["equilibrium.is_equilibrium.none"] += 1

        def after_verify(name):
            def after(result, args, kwargs):
                if not result.ok:
                    count[f"{name}.failed"] += 1
            return after

        def after_mech(result, args, kwargs):
            if result.rule.endswith("fallback-lex-min"):
                count["mechanisms.buyer_optimal_mechanism.fallback"] += 1

        def mech_error(exc):
            if isinstance(exc, errors.NoEquilibriumFound):
                count["mechanisms.buyer_optimal_mechanism.no_equilibrium"] += 1

        def after_search(result, args, kwargs):
            count["mechanisms.misreports_tried"] += result.tried

        def after_check(result, args, kwargs):
            count["properties.pairs_tested"] += result.pairs_tested
            count["properties.violations"] += len(result.violations)

        after = {
            "equilibrium.find_equilibria": after_find,
            "equilibrium.is_equilibrium": after_is_eq,
            "equilibrium.verify_lattice_pair":
                after_verify("equilibrium.verify_lattice_pair"),
            "equilibrium.verify_rural_hospitals_pair":
                after_verify("equilibrium.verify_rural_hospitals_pair"),
            "mechanisms.buyer_optimal_mechanism": after_mech,
            "mechanisms.manipulation_search": after_search,
        }
        find = eq.find_equilibria
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            on_error = mech_error if name == "mechanisms.buyer_optimal_mechanism" else None
            self._replace_everywhere(
                original, self.wrap(name, original, after.get(name), on_error))
        for attr in PROPERTY_CHECKS:
            original = getattr(props, attr, None)
            if original is not None:
                self._replace_everywhere(
                    original, self.wrap("properties.check", original, after_check))

        compile_expr = ex.compile_expr
        signature = inspect.signature(compile_expr)

        def traced_compile(*args, **kwargs):
            fn = compiled(*args, **kwargs)
            if signature.bind(*args, **kwargs).arguments.get("vectorized", False):
                timed = self.wrap("expr.vector", fn)

                def vector(p):
                    count["expr.vector.points"] += np.size(p[0]) if len(p) else 1
                    return timed(p)
                return vector

            def scalar(p):
                count["expr.scalar.evals"] += 1
                return fn(p)
            return scalar

        compiled = self.wrap("expr.compile", compile_expr)
        self._replace_everywhere(compile_expr, traced_compile)

        # exact Z at one point; a private method, so skipped if it is gone
        cls = getattr(eq, "_CompiledProfile", None)
        if cls is not None and hasattr(cls, "surplus_at"):
            original = cls.surplus_at
            cls.surplus_at = self.wrap("equilibrium.surplus", original)
            self._undo.append((cls, "surplus_at", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting ----------------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter]:
        child = defaultdict(float)
        for _sid, parent, _task, _name, start, end in self.spans:
            child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for sid, _parent, _task, name, start, end in self.spans:
            self_s[name] += (end - start) - child.get(sid, 0.0)
            calls[name] += 1
        return self_s, calls

    def metrics(self, task_s: float) -> tuple[dict, dict]:
        """Per-layer metrics and layer shares (percent of traced task time)."""
        self_s, calls = self.self_times()
        out = {}
        for name in SPANS:
            calls_name = "expr.vector.evals" if name == "expr.vector" else f"{name}.calls"
            out[calls_name] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        is_eq = calls["equilibrium.is_equilibrium"]
        hits = is_eq - self.counts["equilibrium.is_equilibrium.none"]
        out["equilibrium.is_equilibrium.hit_ratio"] = (
            hits / is_eq if is_eq else 0.0, "ratio")
        shares = {}
        for module in MODULES:
            spent = sum(v for k, v in self_s.items() if k.split(".")[0] == module)
            shares[module] = 100.0 * spent / task_s if task_s else 0.0
        shares["other"] = 100.0 - sum(shares.values())
        for name in SPANS:
            shares[name] = 100.0 * self_s[name] / task_s if task_s else 0.0
        for module in MODULES + ("other",):
            out[f"share.{module}"] = (shares[module], "%")
        return out, shares

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,task,name,start,end\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % span)
