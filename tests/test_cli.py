import json
import os
import tracemalloc

import pytest

from netclear.cli import build_parser, load_scenario, main
from netclear.errors import (
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
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "not finite" in captured.err
    assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
    assert captured.out == ""


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
    "seed-not-an-integer": (edited(analysis={"seed": 1.5}), ["solve"],
                            "analysis.seed: not a whole number: 1.5"),
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
            json.dump(raw, fh)
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
