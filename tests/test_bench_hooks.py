"""The benchmark's traced mode (``perfbench/run.py --trace 1``) wraps
netclear functions by name from outside ``src/``: every name it wraps must
resolve, and uninstalling must put each original object back."""

import importlib
import importlib.util
import pathlib

import netclear.cli
import netclear.equilibrium
import netclear.expr
import netclear.properties
from netclear.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_objects(tracing):
    """Each object the tracer wraps, by span or check name."""
    objects = {name: getattr(importlib.import_module(module), attr)
               for name, (module, attr) in tracing.FUNCTIONS.items()}
    objects.update((attr, getattr(netclear.properties, attr))
                   for attr in tracing.PROPERTY_CHECKS)
    objects["expr.compile"] = netclear.expr.compile_expr
    return objects


def test_traced_names_resolve_and_are_restored(capsys):
    tracing = load_tracing()
    before = wrapped_objects(tracing)
    assert all(map(callable, before.values()))
    find = netclear.equilibrium.find_equilibria
    assert netclear.cli.find_equilibria is find

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert netclear.cli.find_equilibria.__wrapped__ is find
        assert main(["solve", str(ROOT / "scenarios" / "kinked-pair.json")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    _self_s, calls = tracer.self_times()
    for name in ("cli.load_scenario", "cli.run_command", "equilibrium.find_equilibria",
                 "expr.compile"):
        assert calls[name] > 0, name

    assert netclear.equilibrium.find_equilibria is find
    assert netclear.cli.find_equilibria is find
    after = wrapped_objects(tracing)
    assert all(after[name] is obj for name, obj in before.items())
