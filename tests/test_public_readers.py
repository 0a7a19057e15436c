"""Every function and class that ``netclear`` exports has a reader: a
reference in a package module or in the benchmark (``perfbench/``) outside
its own definition, apart from the names in ``ALLOWED``.  ``__init__.py``,
which imports to re-export, is not a reader."""

import ast
import inspect
import pathlib

import netclear

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "netclear"

# exported names that only tests read, each kept for a result of the paper
# or an acceptance criterion, with the test that covers it
ALLOWED = {
    # the model's monotonicity of utility in prices, which make_unit_demand
    # enforces for unit-demand buyers and this function samples for any
    # firm; tests/test_utility.py
    "check_monotonicity",
    # the endowment construction (trades a firm may execute at frozen
    # prices), its dominance and identity properties; tests/test_utility.py
    "endowment_transform",
    # criterion 7, exchange economies: the interpreted equilibrium oracle
    # and the uniform-price maps between economy and network prices;
    # tests/test_acceptance.py
    "economy_equilibrium_check",
    "uniform_price_lift",
    "uniform_price_project",
}


def references(source: str) -> set[tuple[str, str | None]]:
    """(name, enclosing top-level definition or None) for every name,
    attribute, imported name and identifier-like string constant in source
    (the benchmark names the functions it wraps in strings)."""
    out = set()
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.add((node.attr, owner))
            elif isinstance(node, ast.alias):
                out.add((node.name.rsplit(".", 1)[-1], owner))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                out.add((node.value, owner))
    return out


def unread(names, sources) -> list[str]:
    """The names that no source references outside their own definition."""
    read = {name for text in sources for name, owner in references(text) if owner != name}
    return sorted(set(names) - read)


def exported() -> list[str]:
    """netclear's exported functions and classes."""
    return [name for name in netclear.__all__
            if inspect.isfunction(obj := getattr(netclear, name)) or inspect.isclass(obj)]


def sources() -> list[str]:
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").rglob("*.py")
    return [p.read_text(encoding="utf-8") for p in files]


def test_finder_flags_unread_names():
    planted = [
        "def used():\n    return 1\n\n"
        "def unused():\n    return used()\n\n"
        "def recursive(k):\n    return recursive(k - 1) if k else 0\n",
        "from a import used\nNAMES = ('named',)\n",
        "class named:\n    pass\n",
    ]
    assert unread(["used", "unused", "recursive", "named"], planted) == ["recursive", "unused"]


def test_every_export_has_a_reader():
    # a name on the list that gains a reader leaves the list
    assert unread(exported(), sources()) == sorted(ALLOWED)
