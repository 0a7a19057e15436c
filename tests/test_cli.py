import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from netclear.cli import build_parser, load_scenario, main
from netclear.errors import (
    NetclearError,
    ScenarioParseError,
    ScenarioValidationError,
    SchemaVersionMismatch,
)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scenario(name):
    return os.path.join(SCENARIOS, name)


def test_load_network_scenario():
    sc = load_scenario(scenario("star.json"))
    assert sc.kind == "network"
    assert sc.network.n == 4
    assert set(sc.profile.firms) == {"f", "s1", "s2", "x1", "x2"}
    assert sc.analysis.box == (-1, 3)
    assert sc.analysis.step == 0.25


def test_load_matching_scenario():
    sc = load_scenario(scenario("matching-small.json"))
    assert sc.kind == "matching"
    assert {t.id for t in sc.network.trades} == {"h1:d1", "h1:d2"}


def test_load_exchange_scenario(capsys):
    sc = load_scenario(scenario("exchange-small.json"))
    assert sc.kind == "exchange"
    assert {t.id for t in sc.network.trades} == {"x:A>B", "y:B>A"}
    assert main(["adapt", scenario("exchange-small.json")]) == 0
    assert capsys.readouterr().out == (
        "induced network with 2 trades:\n  x:A>B: A -> B\n  y:B>A: B -> A\n")


def test_load_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ScenarioParseError):
        load_scenario(str(bad))
    with pytest.raises(ScenarioParseError):
        load_scenario(str(tmp_path / "missing.json"))

    wrong_version = tmp_path / "v2.json"
    wrong_version.write_text(json.dumps({"version": 2, "kind": "network"}))
    with pytest.raises(SchemaVersionMismatch):
        load_scenario(str(wrong_version))

    unknown_firm = tmp_path / "firm.json"
    unknown_firm.write_text(json.dumps({
        "version": 1, "kind": "network",
        "trades": [{"id": "t", "seller": "a", "buyer": "b"}],
        "utilities": {"ghost": [{"bundle": [], "expr": "0"}]},
    }))
    with pytest.raises(ScenarioValidationError):
        load_scenario(str(unknown_firm))

    missing_cov = tmp_path / "cov.json"
    missing_cov.write_text(json.dumps({
        "version": 1, "kind": "network",
        "trades": [{"id": "t", "seller": "a", "buyer": "b"}],
        "utilities": {"a": [{"bundle": [], "expr": "0"}]},
    }))
    with pytest.raises(ScenarioValidationError):
        load_scenario(str(missing_cov))


def test_solve_star(capsys):
    code = main(["solve", scenario("star.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 equilibria" in out
    assert "p=[0.0, 0.0, 2.0, 2.0]" in out
    assert "p=[1.0, 1.0, 1.0, 1.0]" in out


def test_demand_command(capsys):
    code = main(["demand", scenario("star.json"), "--firm", "f",
                 "--prices", "1", "1", "1", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "indirect utility: 2" in out
    assert out.count("[") >= 5  # five demanded bundles listed


def test_check_exit_codes(capsys):
    code = main(["check", scenario("kinked-pair.json"), "--firm", "f",
                 "--property", "lad", "--variant", "strong"])
    assert code == 2
    assert "violated" in capsys.readouterr().out
    code = main(["check", scenario("three-supplier.json"), "--firm", "f",
                 "--property", "sss", "--variant", "expansion"])
    assert code == 0
    assert "pass-on-sample" in capsys.readouterr().out


def run_with_reports(argv, out_dir, capsys):
    """(exit code, stdout, {report file: bytes}) of one ``main`` call."""
    code = main(argv + ["--out", str(out_dir)])
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, capsys.readouterr().out, files


@pytest.mark.parametrize("prop", ["lad", "las"])
def test_law_check_without_variant_is_the_strong_law(prop, tmp_path, capsys):
    argv = ["check", scenario("kinked-pair.json"), "--firm", "f", "--property", prop]
    code, out, files = run_with_reports(argv, tmp_path / "default", capsys)
    assert (code, out, files) == run_with_reports(argv + ["--variant", "strong"],
                                                   tmp_path / "strong", capsys)
    assert "(strong) for f" in out
    assert json.loads(files["kinked-pair-check.json"])["variant"] == "strong"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_usage_error_leaves_the_parser_as_built(tmp_path, capsys):
    argv = ["check", scenario("kinked-pair.json"), "--firm", "f", "--property", "lad"]
    build_parser.cache_clear()
    alone = run_with_reports(argv, tmp_path / "alone", capsys)
    build_parser.cache_clear()
    for bad in (["check", scenario("kinked-pair.json"), "--property", "bogus"],
                ["check", scenario("kinked-pair.json"), "--firm", "g", "--variant"],
                ["solve", scenario("star.json"), "--step", "fine"]):
        assert main(bad) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert run_with_reports(argv, tmp_path / "after", capsys) == alone


def test_check_on_one_level_axis_tests_no_pairs():
    # no pair moves a price on one level; the child is killed if it searches on
    argv = ["check", scenario("star.json"), "--property", "sss", "--box", "0", "1",
            "--step", "5"]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    done = subprocess.run([sys.executable, "-m", "netclear.cli", *argv], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == ("same-side-substitutability (expansion) for f: "
                           "pass-on-sample [0 pairs]\n")


def test_check_non_finite_utility_is_an_error(tmp_path, capsys):
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps({
        "version": 1, "kind": "network",
        "trades": [{"id": "a", "seller": "s", "buyer": "b"}],
        "utilities": {
            "s": [{"bundle": [], "expr": "0"}, {"bundle": ["a"], "expr": "p[a]"}],
            "b": [{"bundle": [], "expr": "0"},
                  {"bundle": ["a"], "expr": "sqrt(p[a] - 1)"}],
        },
        "analysis": {"box": [0, 3], "step": 0.25},
    }))
    for prop in ("sss", "lad", "monotone-substitutability", "nib"):
        code = main(["check", str(path), "--firm", "b", "--property", prop])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "not finite" in err
        assert "Traceback" not in err


def test_solve_scan_outside_the_domain_is_an_error(tmp_path, capsys):
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps({
        "version": 1, "kind": "network",
        "trades": [{"id": "a", "seller": "s", "buyer": "b"}],
        "utilities": {
            "s": [{"bundle": [], "expr": "0"}, {"bundle": ["a"], "expr": "p[a]"}],
            "b": [{"bundle": [], "expr": "0"},
                  {"bundle": ["a"], "expr": "sqrt(2 - p[a]) - 0.5"}],
        },
        "analysis": {"box": [0, 3], "step": 0.25},
    }))
    out_dir = tmp_path / "out"
    for csv_flag in ([], ["--csv"]):
        # the CSV rows are written as they are computed: the scan fails first
        assert main(["solve", str(path), "--out", str(out_dir)] + csv_flag) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "not finite" in captured.err
        assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
        assert captured.out == "" and not out_dir.exists()


def test_unit_demand_outside_its_domain_is_an_error(tmp_path, capsys):
    path = tmp_path / "sqrt-doctor.json"
    raw = json.loads(open(scenario("matching-small.json")).read())
    raw["doctors"]["d1"]["offers"]["h1"] = "sqrt(1 + t)"
    path.write_text(json.dumps(raw))
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not finite" in err
    assert "Traceback" not in err


def test_lattice_command_star(capsys):
    code = main(["lattice", scenario("star.json")])
    out = capsys.readouterr().out
    assert code == 2
    assert "1 failing pair" in out


def test_extremal_three_supplier(capsys):
    code = main(["extremal", scenario("three-supplier.json"), "--no-refine"])
    out = capsys.readouterr().out
    assert code == 2
    assert "seller-optimal: None" in out
    assert "no seller-dominant" in out


def test_error_exit_code(capsys):
    code = main(["solve", "/nonexistent/file.json"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_deterministic_output(capsys):
    main(["solve", scenario("kinked-pair.json")])
    first = capsys.readouterr().out
    main(["solve", scenario("kinked-pair.json")])
    second = capsys.readouterr().out
    assert first == second


def test_report_files_written(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code = main(["solve", scenario("kinked-pair.json"), "--out", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    txt = out_dir / "kinked-pair-solve.txt"
    js = out_dir / "kinked-pair-solve.json"
    assert txt.exists() and js.exists()
    payload = json.loads(js.read_text())
    assert "equilibria" in payload
    # JSON report re-serializes identically
    main(["solve", scenario("kinked-pair.json"), "--out", str(out_dir)])
    capsys.readouterr()
    assert json.loads(js.read_text()) == payload


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["solve", scenario("kinked-pair.json"), "--out", str(taken)])
    out, err = capsys.readouterr()
    assert code == 1 and "equilibria" in out
    assert err == f"error: --out {taken}: File exists\n"


def test_exponent_notation_solves_as_decimal_notation(tmp_path, capsys):
    reports = []
    for number in ("1e-3", "0.001"):
        raw = edited(utilities={**ONE_TRADE["utilities"],
                                "a": [{"bundle": [], "expr": "0"},
                                      {"bundle": ["t"], "expr": f"p[t] - {number}"}]})
        (tmp_path / number).mkdir()
        path = tmp_path / number / "case.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / number / "out"
        code = main(["solve", str(path), "--out", str(out)])
        reports.append((code, capsys.readouterr(),
                        [(out / f"case-solve.{ext}").read_bytes() for ext in ("txt", "json")]))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0 and "equilibria" in reports[0][1].out


def test_box_and_step_overrides(capsys):
    code = main(["solve", scenario("star.json"), "--box", "0", "2",
                 "--step", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "step 0.5" in out


@pytest.mark.parametrize("cmd", ["demand", "check", "solve", "lattice", "rural",
                                 "extremal", "mechanism", "adapt"])
def test_help_exits_0_and_lists_grid_options_where_read(cmd, capsys):
    with pytest.raises(SystemExit) as stop:
        main([cmd, "-h"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert ("--box" in out and "--step" in out) == (cmd not in ("demand", "adapt"))


ONE_TRADE = {
    "version": 1, "kind": "network",
    "trades": [{"id": "t", "seller": "a", "buyer": "b"}],
    "utilities": {"a": [{"bundle": [], "expr": "0"}, {"bundle": ["t"], "expr": "p[t]"}],
                  "b": [{"bundle": [], "expr": "0"}, {"bundle": ["t"], "expr": "2 - p[t]"}]},
}


def edited(**changes):
    return {**ONE_TRADE, **changes}


def bundled(name, **changes):
    with open(scenario(name)) as fh:
        return {**json.load(fh), **changes}


MATCHING = bundled("matching-small.json")
EXCHANGE = bundled("exchange-small.json")
KINKED = bundled("kinked-pair.json")


# the ONE_TRADE file with a second "a" table, text since a dict cannot hold it
REPEATED_KEY = json.dumps(ONE_TRADE).replace(
    '"utilities": {', '"utilities": {"a": [{"bundle": [], "expr": "1"}], ')
NO_TRADES = {"version": 1, "kind": "network", "trades": [], "utilities": {}}


MALFORMED = {
    "top-level-list": ([1, 2], ["solve"], "not a JSON object"),
    "entry-without-expr": (
        edited(utilities={**ONE_TRADE["utilities"], "b": [{"bundle": []}]}),
        ["solve"], "utilities[b][0]: missing 'expr'"),
    "step-not-a-number": (edited(analysis={"step": "fine"}), ["solve"],
                          "analysis.step: not a finite number: 'fine'"),
    "step-numeric-string": (edited(analysis={"step": "0.5"}), ["solve"],
                            "analysis.step: not a finite number: '0.5'"),
    "step-not-positive": (edited(analysis={"step": 0}), ["solve"],
                          "analysis.step: not positive: 0"),
    "eps-eq-nan-string": (edited(analysis={"eps_eq": "nan"}), ["solve"],
                          "analysis.eps_eq: not a finite number: 'nan'"),
    "eps-eq-nan": (edited(analysis={"eps_eq": float("nan")}), ["solve"],
                   "analysis.eps_eq: not a finite number: nan"),
    "eps-tie-bool": (edited(analysis={"eps_tie": True}), ["solve"],
                     "analysis.eps_tie: not a finite number: True"),
    # a negative tie empties every argmax, a negative eps_eq every solve
    "eps-tie-negative": (
        bundled("kinked-pair.json", analysis={"box": [0, 3], "eps_tie": -1}),
        ["demand", "--firm", "f", "--prices", "1", "1"], "analysis.eps_tie: negative: -1"),
    "eps-eq-negative": (edited(analysis={"eps_eq": -1}), ["solve"],
                        "analysis.eps_eq: negative: -1"),
    "seed-not-an-integer": (edited(analysis={"seed": 1.5}), ["solve"],
                            "analysis.seed: not a whole number: 1.5"),
    # NumPy's default_rng takes no negative seed
    "seed-negative": (
        bundled("kinked-pair.json", analysis={**KINKED["analysis"], "seed": -1}),
        ["check", "--property", "sss"], "case.json: analysis.seed: negative: -1"),
    "nib-seed-negative": (
        bundled("kinked-pair.json", analysis={**KINKED["analysis"], "seed": -1}),
        ["check", "--property", "nib"], "case.json: analysis.seed: negative: -1"),
    # True == 1 and 1.0 == 1 in Python, but neither is schema version 1
    "version-true": (edited(version=True), ["solve"], "expected version 1, got True"),
    "version-float": (edited(version=1.0), ["solve"], "expected version 1, got 1.0"),
    "box-with-infinity": (edited(analysis={"box": [0, float("inf")]}), ["solve"],
                          "analysis.box: not two numbers"),
    "box-of-one": (edited(analysis={"box": [1]}), ["solve"],
                   "analysis.box: not two numbers"),
    "box-of-strings": (edited(analysis={"box": ["0", "2"]}), ["solve"],
                       "analysis.box: not two numbers"),
    "prices-not-numbers": (ONE_TRADE, ["demand", "--prices", "abc"],
                           "--prices: not numbers"),
    "unknown-demand-firm": (ONE_TRADE, ["demand", "--firm", "zz", "--prices", "1"],
                            "unknown firm 'zz'"),
    "unknown-check-firm": (ONE_TRADE, ["check", "--firm", "zz", "--property", "sss"],
                           "unknown firm 'zz'"),
    "negative-step": (None, ["check", "--property", "sss", "--step", "-0.5"],
                      "bad box (-1, 3) / step -0.5"),
    "reversed-box": (None, ["check", "--property", "sss", "--box", "3", "1"],
                     "bad box (3.0, 1.0) / step 0.25"),
    "nib-negative-step": (None, ["check", "--property", "nib", "--step", "-0.5"],
                          "bad box (-1, 3) / step -0.5"),
    "tiny-step": (None, ["check", "--property", "sss", "--step", "1e-9"],
                  "grid points exceed the scan cap"),
    "nib-tiny-step": (None, ["check", "--property", "nib", "--step", "1e-9"],
                      "grid points exceed the scan cap"),
    "zero-step": (None, ["solve", "--step", "0"], "bad box (-1, 3) / step 0.0"),
    "infinite-step": (None, ["solve", "--box", "0", "1", "--step", "inf"],
                      "bad box (0.0, 1.0) / step inf"),
    "check-infinite-step": (None, ["check", "--property", "sss", "--step", "inf"],
                            "bad box (-1, 3) / step inf"),
    # levels too large to round to 12 decimals, and a half step past the largest float
    "huge-levels": (KINKED, ["solve", "--box", "0", "1e308", "--step", "1e307"],
                    "a utility is not finite at prices (8e+307, 1e+308)"),
    "huge-step": (None, ["solve", "--box", "0", "1.7e308", "--step", "1.7e308"],
                  "bad box (0.0, 1.7e+308) / step 1.7e+308"),
    "trade-seller-a-list": (edited(trades=[{"id": "t", "seller": ["a"], "buyer": "b"}]),
                            ["solve"], "case.json: trades[0].seller: not a JSON string"),
    "utilities-a-list": (edited(utilities=["x"]), ["solve"],
                         "case.json: utilities: not a JSON object"),
    "utility-entry-a-string": (
        edited(utilities={**ONE_TRADE["utilities"], "a": ["x"]}), ["solve"],
        "case.json: utilities[a][0]: not a JSON object"),
    "expr-a-number": (
        edited(utilities={**ONE_TRADE["utilities"], "b": [{"bundle": [], "expr": 0}]}),
        ["solve"], "case.json: utilities[b][0].expr: not a JSON string"),
    "bundle-a-string": (
        edited(utilities={**ONE_TRADE["utilities"],
                          "b": [{"bundle": [], "expr": "0"},
                                {"bundle": "t", "expr": "2 - p[t]"}]}),
        ["solve"], "case.json: utilities[b][1].bundle: not an array of strings"),
    "hospital-entry-a-string": (
        bundled("matching-small.json", hospitals={"h1": ["x"]}), ["solve"],
        "case.json: hospitals[h1][0]: not a JSON object"),
    "doctors-a-string": (
        bundled("matching-small.json",
                hospitals={"h1": [{"doctors": "d1", "expr": "3 - p[d1]"}]}),
        ["solve"], "case.json: hospitals[h1][0].doctors: not an array of strings"),
    "doctor-a-string": (
        bundled("matching-small.json", doctors={**MATCHING["doctors"], "d1": "x"}),
        ["solve"], "case.json: doctors[d1]: not a JSON object"),
    "outside-a-string": (
        bundled("matching-small.json", doctors={
            **MATCHING["doctors"], "d1": {"outside": "zz", "offers": {"h1": "1 + t"}}}),
        ["solve"], "case.json: doctors[d1].outside: not a finite number: 'zz'"),
    "agent-a-string": (
        bundled("exchange-small.json", agents={**EXCHANGE["agents"], "A": "x"}),
        ["solve"], "case.json: agents[A]: not a JSON object"),
    "objects-a-string": (bundled("exchange-small.json", objects="xy"), ["solve"],
                         "case.json: objects: not an array of strings"),
    "utility-objects-a-string": (
        bundled("exchange-small.json", agents={
            **EXCHANGE["agents"],
            "A": {**EXCHANGE["agents"]["A"],
                  "utility": [{"objects": "x", "expr": "1 + t"}]}}),
        ["solve"], "case.json: agents[A].utility[0].objects: not an array of strings"),
    # a repeated name set, name, key or trade id is an error, not a silent merge
    "bundle-set-twice": (
        bundled("kinked-pair.json", utilities={
            **KINKED["utilities"],
            "f": KINKED["utilities"]["f"] + [{"bundle": ["w1"], "expr": "9 - p[w1]"}]}),
        ["solve"], "case.json: utilities[f][4].bundle: ['w1'] has an earlier entry"),
    "bundle-name-twice": (
        bundled("kinked-pair.json", utilities={
            **KINKED["utilities"],
            "f": KINKED["utilities"]["f"] + [{"bundle": ["w1", "w1"], "expr": "9 - p[w1]"}]}),
        ["solve"], "case.json: utilities[f][4].bundle: 'w1' listed twice"),
    "doctors-set-twice": (
        bundled("matching-small.json", hospitals={"h1": MATCHING["hospitals"]["h1"] + [
            {"doctors": ["d1"], "expr": "9 - p[d1]"}]}),
        ["solve"], "case.json: hospitals[h1][4].doctors: ['d1'] has an earlier entry"),
    "doctors-name-twice": (
        bundled("matching-small.json", hospitals={"h1": [
            {"doctors": ["d1", "d1"], "expr": "3 - p[d1]"}]}),
        ["solve"], "case.json: hospitals[h1][0].doctors: 'd1' listed twice"),
    "utility-objects-name-twice": (
        bundled("exchange-small.json", agents={
            **EXCHANGE["agents"],
            "A": {**EXCHANGE["agents"]["A"],
                  "utility": [{"objects": ["x", "x"], "expr": "1 + t"}]}}),
        ["solve"], "case.json: agents[A].utility[0].objects: 'x' listed twice"),
    "objects-name-twice": (bundled("exchange-small.json", objects=["x", "y", "x"]),
                           ["solve"], "case.json: objects: 'x' listed twice"),
    "repeated-key": (REPEATED_KEY, ["solve"], "case.json: key 'a' repeated in one object"),
    "repeated-trade-id": (
        edited(trades=ONE_TRADE["trades"] * 2), ["solve"],
        "case.json: trades[1].id: 't' repeats an earlier trade id"),
    "trade-without-id": (edited(trades=[{"seller": "a", "buyer": "b"}]), ["solve"],
                         "case.json: trades[0]: missing 'id'"),
    "utilities-unknown-firm": (
        edited(utilities={**ONE_TRADE["utilities"], "zz": []}), ["solve"],
        "case.json: utilities: unknown firm 'zz'"),
    "utilities-missing-firm": (edited(utilities={"a": ONE_TRADE["utilities"]["a"]}),
                               ["solve"], "case.json: no utilities for firms ['b']"),
    "unknown-kind": ({"version": 1, "kind": "nope"}, ["solve"],
                     "case.json: unknown scenario kind 'nope'"),
    "wrong-version": (edited(version=2), ["solve"], "case.json: expected version 1, got 2"),
    "analysis-a-list": (edited(analysis=[0.5]), ["solve"],
                        "case.json: analysis: not a JSON object"),
    # an expression that does not parse names the file and the entry
    "expr-syntax-error": (
        edited(utilities={**ONE_TRADE["utilities"],
                          "a": [{"bundle": [], "expr": "0"},
                                {"bundle": ["t"], "expr": "p[t] * * 2"}]}),
        ["solve"], "case.json: utilities[a][1].expr: unexpected token '*'"),
    "expr-exponent-without-digits": (
        edited(utilities={**ONE_TRADE["utilities"],
                          "a": [{"bundle": [], "expr": "0"},
                                {"bundle": ["t"], "expr": "p[t] - 1e"}]}),
        ["solve"], "case.json: utilities[a][1].expr: trailing input at 'e'"),
    "expr-unknown-trade": (
        edited(utilities={**ONE_TRADE["utilities"], "b": [{"bundle": [], "expr": "p[zz]"}]}),
        ["solve"], "case.json: utilities[b][0].expr: expression references trades "
                   "outside its bundle: ['zz']"),
    "hospital-expr-syntax-error": (
        bundled("matching-small.json", hospitals={"h1": [{"doctors": ["d1"], "expr": "3 -"}]}),
        ["solve"], "case.json: hospitals[h1][0].expr: unexpected token ''"),
    "offer-syntax-error": (
        bundled("matching-small.json", doctors={
            **MATCHING["doctors"], "d1": {"outside": 0, "offers": {"h1": "1 + s"}}}),
        ["solve"], "case.json: doctors[d1].offers[h1]: unknown identifier 's'"),
    "agent-expr-syntax-error": (
        bundled("exchange-small.json", agents={
            **EXCHANGE["agents"],
            "A": {**EXCHANGE["agents"]["A"],
                  "utility": [{"objects": ["x"], "expr": "3 + t)"}]}}),
        ["solve"], "case.json: agents[A].utility[0].expr: trailing input at ')'"),
    # with no firms there is no default --firm
    "no-trades-demand": (NO_TRADES, ["demand", "--prices", "1"],
                         "the scenario has no firms"),
    "no-trades-check": (NO_TRADES, ["check", "--property", "sss"],
                        "the scenario has no firms"),
    "no-agents-check": (
        {"version": 1, "kind": "exchange", "objects": [], "agents": {}},
        ["check", "--property", "nib"], "the scenario has no firms"),
    "no-hospitals-demand": (
        {"version": 1, "kind": "matching", "hospitals": {}, "doctors": {}},
        ["demand", "--prices", "1"], "the scenario has no firms"),
    # --variant names a variant of the checked property, or is left out
    "nib-variant": (None, ["check", "--property", "nib", "--variant", "weak"],
                    "--variant weak: --property nib takes no variant"),
    "monotone-variant": (
        None, ["check", "--property", "monotone-substitutability", "--variant", "strong"],
        "--variant strong: --property monotone-substitutability takes no variant"),
    "law-contraction": (None, ["check", "--property", "lad", "--variant", "contraction"],
                        "--variant contraction: --property lad takes weak, strong"),
    "law-expansion": (None, ["check", "--property", "las", "--variant", "expansion"],
                      "--variant expansion: --property las takes weak, strong"),
    "clause-strong": (None, ["check", "--property", "sss", "--variant", "strong"],
                      "--variant strong: --property sss takes weak, expansion, "
                      "contraction"),
    # usage errors: argparse's own usage text and exit code 2 give way to one line
    "demand-without-prices": (None, ["demand"],
                              "the following arguments are required: --prices"),
    "unknown-option": (None, ["solve", "--bogus"], "unrecognized arguments: --bogus"),
    "unknown-command": (None, ["nope"], "argument cmd: invalid choice: 'nope'"),
    "step-not-a-float": (None, ["solve", "--step", "fine"],
                         "argument --step: invalid float value: 'fine'"),
    # demand and adapt read no grid, so they take no --box or --step
    "demand-step": (None, ["demand", "--prices", "1", "1", "1", "1", "--step", "0"],
                    "unrecognized arguments: --step 0"),
    "demand-box": (None, ["demand", "--prices", "1", "1", "1", "1", "--box", "0", "1"],
                   "unrecognized arguments: --box 0 1"),
    "adapt-step": (MATCHING, ["adapt", "--step", "0.5"],
                   "unrecognized arguments: --step 0.5"),
    "adapt-box": (MATCHING, ["adapt", "--box", "0", "1"],
                  "unrecognized arguments: --box 0 1"),
}


@pytest.mark.parametrize("raw,argv,message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_is_one_error_line(raw, argv, message, tmp_path, capsys):
    path = scenario("star.json")
    if raw is not None:
        path = str(tmp_path / "case.json")
        with open(path, "w") as fh:
            fh.write(raw if isinstance(raw, str) else json.dumps(raw))
    # a grid too large fails before its levels are allocated
    tracemalloc.start()
    try:
        code = main([argv[0], path] + argv[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err and peak < 50 * 2 ** 20
    # an error in the file names the file
    try:
        load_scenario(path)
    except NetclearError:
        assert f"error: {path}: " in err, err


def test_mechanism_command(capsys):
    code = main(["mechanism", scenario("matching-small.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "buyer-optimal" in out


def test_adapt_command(capsys):
    code = main(["adapt", scenario("exchange-small.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "x:A>B: A -> B" in out
    code = main(["adapt", scenario("star.json")])
    assert code == 1
