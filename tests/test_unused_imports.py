"""No package module imports a name it never reads (``__init__.py``, which
imports to re-export, is left out)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "netclear"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no name or attribute base
    reads, with ``from __future__`` imports left out."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_finder_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\nimport a.b\n"
              "from typing import Mapping, Sequence\n"
              "def f(x: Mapping) -> None:\n    return np.zeros(a.b)\n")
    assert unused_imports(source) == ["Sequence", "os"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []
