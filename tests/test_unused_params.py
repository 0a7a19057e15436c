"""No package function takes a parameter that its body never reads, apart
from the dispatch signatures named in ``ALLOWED``."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "netclear"
MODULES = sorted(p.name for p in SRC.glob("*.py"))

# (module, function, parameter) kept because the caller fixes the signature:
# a dispatch table calls every entry alike, or Python calls the method
ALLOWED = {
    # _COMMANDS entries take (scenario, args)
    ("cli.py", "cmd_mechanism", "args"),
    ("cli.py", "cmd_adapt", "args"),
    # _PROPERTIES entries take (u, v, pairs, eps); monotone-substitutability
    # reads no v
    ("cli.py", "<lambda>", "v"),
    # _SCALARS entries take the value to write; null reads none
    ("jsonwriter.py", "<lambda>", "o"),
    # the clauses share one signature
    *(("properties.py", clause, param)
      for clause in ("_same_side", "_cross_side", "_aggregate_law",
                     "_single_improvement")
      for param in ("raising", "equal", "up", "down")),
    ("utility.py", "__repr__", "self"),
}


def unused_params(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for every parameter of a ``def`` or ``lambda``
    that no name in its body (nested functions included) reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [(name, p.arg) for p in params if p.arg not in read]
    return found


def test_finder_sees_unread_params():
    source = ("def f(a, b, *c, d=1, **e):\n    return a + d\n"
              "class K:\n    def m(self, x):\n        def g():\n            return x\n"
              "        return g\n"
              "h = lambda y, z: y\n")
    assert unused_params(source) == [("f", "b"), ("f", "c"), ("f", "e"),
                                     ("m", "self"), ("<lambda>", "z")]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_params(name):
    found = unused_params((SRC / name).read_text(encoding="utf-8"))
    assert [(f, p) for f, p in found if (name, f, p) not in ALLOWED] == []
