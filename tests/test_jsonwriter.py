"""Oracle tests for the JSON report writer: ``jsonwriter.dump`` must write
the bytes of ``json.dump(obj, fh, indent=2, sort_keys=True)`` for every
payload of the commands' types (exact ``dict`` with ``str`` keys, ``list``,
``tuple``, ``str``, ``int``, ``float``, ``bool``, ``None``), raise the same
error where both reject a value and leave the same partial text behind, and
raise ``TypeError`` for any other type or key; a ``Rows`` table is written
as its expanded list of dicts; every CLI report must equal ``json.dump`` of
its payload."""

import enum
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from netclear import jsonwriter
from netclear.cli import build_parser, emit_report, load_scenario, run_command

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


class Level(enum.IntEnum):
    LOW = 1


def expand(o):
    """json's default hook: a Rows table as its list of dicts."""
    if type(o) is jsonwriter.Rows:
        return [dict(zip(o.keys, row)) for row in o.rows]
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def both(obj):
    """(text, error) from json.dump and from the writer."""
    results = []
    for write in (lambda fh: json.dump(obj, fh, indent=2, sort_keys=True, default=expand),
                  lambda fh: jsonwriter.dump(obj, fh)):
        fh = io.StringIO()
        try:
            write(fh)
            error = None
        except (TypeError, ValueError) as e:
            error = (type(e), str(e))
        results.append((fh.getvalue(), error))
    return results


def assert_same(obj):
    want, got = both(obj)
    assert got == want
    return want


EDGE_FLOATS = [0.0, -0.0, 1.0, 3.0, -2.0, 1e-300, -1e-300, 5e-324, 1e16, 1e17,
               2.0 ** 53, 0.1, 1 / 3, math.nan, math.inf, -math.inf]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2, 2),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGE_FLOATS),
    st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x10FFFF,
                                   blacklist_categories=("Cs",)), max_size=8),
    st.sampled_from(["", "a", "é", " ", "\x00\x1f", '"\\/', "\U0001F600"]),
)
# values that json rejects as well
unserializable = st.sampled_from([object(), {1, 2}, b"x", 1j, np.int64(3),
                                  np.array([1.0])])


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
    )


payloads = st.recursive(scalars, containers, max_leaves=40)


@st.composite
def shared_payloads(draw):
    """A payload with one list object placed at several depths."""
    shared = draw(st.lists(scalars, min_size=1, max_size=4))
    inner = draw(payloads)
    return {"a": shared, "b": [shared, (shared, inner)], "c": {"d": shared},
            "e": [[shared, [shared]], inner]}


@st.composite
def tables(draw, children):
    """A Rows table over children, its keys in any order."""
    keys = draw(st.lists(st.text(max_size=4), unique=True, max_size=4))
    rows = draw(st.lists(st.tuples(*[children] * len(keys)), max_size=5))
    return jsonwriter.Rows(tuple(keys), rows)


table_payloads = st.recursive(scalars, lambda children: st.one_of(
    containers(children), tables(children)), max_leaves=40)


@st.composite
def shared_tables(draw):
    """Tables whose rows share one tuple, which also sits at other depths."""
    shared = tuple(draw(st.lists(scalars, min_size=1, max_size=4)))
    inner = draw(table_payloads)
    rows = jsonwriter.Rows(("z", "a", "m"), [(shared, inner, [shared]),
                                             (shared, shared, {"d": shared}),
                                             (inner, shared, shared)])
    return {"a": shared, "t": rows,
            "n": [jsonwriter.Rows(("x",), [(shared,), (rows,)]), (shared, rows)]}


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(payloads)
def test_writer_matches_json_dump(obj):
    assert_same(obj)


@seed(20261018)
@settings(max_examples=100, deadline=None, database=None)
@given(shared_payloads())
def test_writer_matches_json_dump_on_shared_lists(obj):
    assert_same(obj)


@seed(20261018)
@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.one_of(payloads, unserializable), min_size=1, max_size=4),
       st.dictionaries(st.text(max_size=4), payloads, max_size=3))
def test_writer_fails_like_json_dump(items, mapping):
    assert_same(items)
    assert_same(mapping)
    assert_same({"x": items, "y": mapping})


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(table_payloads)
def test_writer_matches_json_dump_on_tables(obj):
    assert_same(obj)


@seed(20261018)
@settings(max_examples=100, deadline=None, database=None)
@given(shared_tables())
def test_writer_matches_json_dump_on_shared_table_values(obj):
    assert_same(obj)


@seed(20261018)
@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.tuples(*[st.one_of(table_payloads, unserializable)] * 3),
                min_size=1, max_size=4))
def test_writer_fails_like_json_dump_in_tables(rows):
    assert_same(jsonwriter.Rows(("c", "a", "b"), rows))
    assert_same({"x": [jsonwriter.Rows(("a", "b", "c"), rows)]})


def test_tables_of_edge_shapes():
    point = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-05, 1e16)
    for obj in (jsonwriter.Rows((), []), jsonwriter.Rows(("b", "a"), []),
                jsonwriter.Rows((), [(), ()]), [jsonwriter.Rows(("a",), [(point,)])],
                jsonwriter.Rows(("p", "q"), [(point, [point, (point,)])] * 3),
                {"t": jsonwriter.Rows(("é", "", "a b"), [([], {}, ())])}):
        text, error = assert_same(obj)
        assert error is None
    bad = jsonwriter.Rows(("b", "a"), [(1, 2), (np.int64(3), 4)])
    (text, error), _ = both({"t": bad})
    assert error == (TypeError, "Object of type int64 is not JSON serializable")
    assert text.endswith('"b": ')
    assert_same({"t": bad})


def test_tables_take_distinct_str_keys_and_one_value_per_key():
    with pytest.raises(TypeError, match=r"\bint\b"):
        jsonwriter.Rows((1,), [])
    with pytest.raises(ValueError, match="repeated key"):
        jsonwriter.Rows(("a", "a"), [])
    with pytest.raises(ValueError, match="one value per key"):
        jsonwriter.Rows(("a", "b"), [(1, 2), (3,)])


def test_signed_zeros_and_equal_numbers_keep_their_text():
    zero, negzero = [0.0], [-0.0]
    text, error = assert_same({"a": zero, "b": negzero, "c": [zero, negzero, zero]})
    assert error is None and "-0.0" in text
    text, error = assert_same([[1], [1.0], [True], [1], [1.0], [True]])
    assert text.count("1.0") == 2 and text.count("true") == 2


def test_floats_as_json_spells_them():
    text, error = assert_same([math.nan, math.inf, -math.inf, 1e-300, 1e16, 2.0, -0.0])
    assert error is None
    assert ["NaN", "Infinity", "-Infinity", "1e-300", "1e+16", "2.0", "-0.0"] == \
        [line.strip().rstrip(",") for line in text.splitlines()[1:-1]]


def test_same_errors_as_json():
    for obj in ([1, object()], {"a": [1, {2}]}, {"a": np.int64(1)},
                {"a": np.array([1.0])}):
        (text, error), _ = both(obj)
        assert error is not None and error[0] is TypeError
        assert_same(obj)


class Name(str):
    pass


@pytest.mark.parametrize("obj, name", [
    ({"a": np.float64(0.5)}, "float64"), ([1, Level.LOW], "Level"),
    ({1: "a"}, "int"), ({(1,): 2}, "tuple"), ({"a": [{1, 2}]}, "set"),
    ({"a": {True: 1}}, "bool"), ({Name("a"): 1}, "Name"),
], ids=["np-float64", "int-enum", "int-key", "tuple-key", "set", "bool-key",
        "str-subclass-key"])
def test_other_types_raise_type_error(obj, name):
    # json accepts each of these (subclasses, coerced keys) or rejects it;
    # the writer takes only the commands' exact types
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        jsonwriter.dump(obj, io.StringIO())


def test_circular_references_raise_like_json():
    loop: list = [1]
    loop.append(loop)
    cycle: dict = {"a": 1}
    cycle["b"] = [cycle]
    table = jsonwriter.Rows(("a",), [])
    table.rows.append((table,))
    for obj in (loop, cycle, table):
        (text, error), _ = both(obj)
        assert error == (ValueError, "Circular reference detected")
        assert_same(obj)


def test_shapes_json_writes_on_one_line():
    for obj in ([], {}, (), "é\n", 7, None, [[]], {"a": {}}, [[[[[[1]]]]]]):
        assert_same(obj)
    shared = [0.5, -0.0]
    deep = [shared, shared]
    for i in range(60):
        deep = {"k": [deep, shared], str(i): i}
    assert_same(deep)


def test_writer_flushes_pieces_while_it_writes():
    class Sink(io.StringIO):
        writes = 0

        def write(self, s):
            Sink.writes += 1
            return super().write(s)

    payload = {"pairs": [{"p": [float(i), 1.0], "q": [i, -0.0]} for i in range(5000)]}
    fh = Sink()
    jsonwriter.dump(payload, fh)
    assert fh.getvalue() == json.dumps(payload, indent=2, sort_keys=True)
    assert Sink.writes > 5


def cli_cases():
    cases = []
    # every bundled scenario: matching-small's prices are negated salaries, the
    # induced scenarios' adapt reports hold a roles map, and exchange-small's
    # trade ids carry ":" and ">"
    for name, step in (("star", None), ("kinked-pair", None), ("three-supplier", "0.5"),
                       ("exchange-small", None), ("matching-small", None),
                       ("triple-trade", None)):
        path = os.path.join(SCENARIOS, f"{name}.json")
        n = load_scenario(path).network.n
        for argv in (["demand", "--prices"] + ["1.0"] * n,
                     ["check", "--property", "fs"], ["check", "--property", "nib"],
                     ["solve", "--csv"], ["solve", "--no-refine"], ["lattice"],
                     ["rural"], ["extremal"], ["mechanism"], ["adapt"]):
            label = "-".join([name] + [a.lstrip("-") for a in argv[:3]
                                       if not a[0].isdigit()])
            # demand and adapt read no grid, so they take no --step
            extra = ["--step", step] if step and argv[0] not in ("demand", "adapt") else []
            cases.append(pytest.param(name, [argv[0], path] + argv[1:] + extra,
                                      id=label))
    return cases


@pytest.mark.parametrize("name, argv", cli_cases())
def test_cli_reports_equal_json_dump(name, argv, tmp_path):
    args = build_parser().parse_args(argv)
    sc = load_scenario(args.scenario)
    if getattr(args, "step", None):
        sc.analysis.step = args.step
    result = run_command(args.cmd, sc, args)
    stem = f"{name}-{args.cmd}"
    written = emit_report(result, str(tmp_path), stem)
    assert str(tmp_path / f"{stem}.json") in written
    oracle = io.StringIO()
    json.dump(result.payload, oracle, indent=2, sort_keys=True, default=expand)
    oracle.write("\n")
    assert (tmp_path / f"{stem}.json").read_bytes() == oracle.getvalue().encode("utf-8")
