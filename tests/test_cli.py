"""CLI: exit codes, report schema, byte-identical determinism, and the
parser as the one table of options that the sweep and README's options
table are checked against."""

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import threading
from collections import Counter
from pathlib import Path

import pytest

from polyreg import cli
from polyreg.cli import build_parser, run
from polyreg.polylog import sv_polylog, sv_polylog_check_symmetries
from polyreg.regulator import RegulatorConfig, loop_residue_check

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, _ = run_json(capsys, ["golden"])
        assert code == 0

    def test_usage_error_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv, weight", [
        (["chain-check", "--element", "{(1-t)/(1+t)}_3 (x) t", "--samples", "2"], "4"),
        (["loop-check", "--element", "(t+2)^t"], "2")], ids=["chain-check", "loop-check"])
    def test_element_without_weight_reads_its_weight(self, capsys, argv, weight):
        # --element used to need --weight; a given one is checked against it
        code, out = run_json(capsys, argv + ["--json"])
        code_weighted, weighted = run_json(capsys, argv + ["--weight", weight, "--json"])
        assert code == code_weighted == 0
        assert json.loads(out)["results"] == json.loads(weighted)["results"]
        assert run(argv + ["--weight", "3"]) == 2
        assert "has weight %s" % weight in capsys.readouterr().err

    @pytest.mark.parametrize("radii", ["a,b,c", ""])
    def test_usage_error_radii_not_numbers(self, capsys, radii):
        # used to say only "could not convert string to float"
        argv = ["loop-check", "--weight", "2", "--element", "(t+2)^t", "--radii", radii]
        assert run(argv) == 2
        assert "polyreg loop-check: error: argument --radii: invalid radii value: %r\n" % radii in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv, message", [
        (["chain-check", "--weight", "3", "--element", ""], "empty element"),
        (["loop-check", "--weight", "2", "--element", ""], "empty element"),
        (["loop-check", "--element", ""], "empty element"),
        (["top-check", "--functions", ""], "need at least two functions"),
    ], ids=["chain-check", "loop-check", "loop-check-without-weight", "top-check"])
    def test_usage_error_empty_text_is_given(self, capsys, argv, message):
        # an empty --element or --functions used to read as absent and run
        # the standard suite, the default loop cases or the nine families
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv, code, message", [
        (["top-check", "--functions", "t^600;t+1"], 0, ""),
        (["chain-check", "--element", "{(t^600+1)/(t^600+2)}_2 (x) t"], 0, ""),
        (["chain-check", "--element", "{t^2000}_2 (x) t"], 2, "no generic sample point in 400"
         " draws: no candidate put every function's modulus in [1e-3, 1e3]"),
        (["top-check", "--functions", "t^2000;t+1"], 2, "no generic sample point in 400 draws"),
        (["loop-check", "--element", "{t^600}_2 (x) (t-5)", "--at", "5"], 2,
         "a loop value past the double range at radius 0.01"),
        (["chain-check", "--element", "{(10^400)*t}_2 (x) t"], 2,
         "a coefficient outside the double range in "),
        (["top-check", "--functions", "(10^400)*t;t+1"], 2,
         "a coefficient outside the double range in "),
        (["loop-check", "--element", "{(10^400)*(t-4)}_2 (x) (t-5)", "--at", "5"], 2,
         "a coefficient outside the double range in "),
    ], ids=["top-check", "chain-check", "chain-check-exhausted", "top-check-exhausted",
            "loop-check", "chain-check-coefficient", "top-check-coefficient",
            "loop-check-coefficient"])
    def test_function_values_past_the_double_range(self, capsys, argv, code, message):
        # each used to end in an OverflowError traceback with exit 1: a draw
        # skips such a candidate and refuses once none is left, the loop
        # check names the radius, and a coefficient past the double range is
        # refused with the function that holds it
        if argv[0] != "loop-check":
            argv = argv + ["--samples", "3"]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: %s" % message) if code else err == ""

    @pytest.mark.parametrize("argv, code, message", [
        (["top-check", "--functions", "y;(10^200*x+1)/(10^200*y+1)", "--samples", "3"], 2,
         "error: a non-finite defect (nan) at the sample point x=("),
        (["chain-check", "--element", "{(10^300*x+1)/(10^300*y+1)}_2 (x) x", "--samples", "2"], 2,
         "error: a non-finite defect (nan) at the sample point x=("),
        (["top-check", "--functions", "x;y;x+y", "--samples", "3", "--tol", "1e-300"], 1, ""),
        (["chain-check", "--element", "{(1-x)/(1+y)}_2 (x) x", "--samples", "2", "--tol",
          "1e-300"], 1, ""),
    ], ids=["top-check", "chain-check", "top-check-finite", "chain-check-finite"])
    def test_non_finite_defect_is_a_usage_error(self, capsys, argv, code, message):
        # a slope (p*b - a*q)/(b*b) past the double range is NaN at the drawn
        # point, and max(0.0, nan) kept 0.0: both NaN rows passed with
        # max_defect 0; a finite defect above tol still fails
        assert run(argv) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert err.startswith(message) and ", y=(" in err and "Traceback" not in err
        else:
            assert err == "" and "[FAIL]" in out and "max_defect=" in out

    def test_usage_error_zero_denominator(self, capsys):
        code = run(["chain-check", "--weight", "3", "--element", "{1/(t-t)}_3"])
        assert code == 2
        assert "error: " in capsys.readouterr().err

    def test_usage_error_bad_radii(self, capsys):
        for radii in ("1e-3,1e-2", "1e-2,1e-3"):  # increasing; too few for the fit
            code, _ = run_json(
                capsys,
                ["loop-check", "--weight", "2", "--element", "(t+2)^t",
                 "--radii", radii],
            )
            assert code == 2

    @pytest.mark.parametrize("at", ["x", "1/0", "1e400"])
    def test_usage_error_bad_point(self, capsys, at):
        code = run(["loop-check", "--weight", "2", "--element", "(t+2)^t", "--at", at])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_usage_error_precision_below_one(self, capsys):
        code = run(["sv-polylog", "--weight", "3", "--at", "0.3", "--precision", "0"])
        assert code == 2
        assert "polyreg sv-polylog: error: argument --precision: must be >= 1\n" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("precision", ["53", "80"])
    @pytest.mark.parametrize("at", ["x", "", "(1,2)", "1/3"])
    def test_usage_error_malformed_point(self, capsys, at, precision):
        # above 53 bits each used to escape as a TypeError from mpmath, and
        # at 53 the error did not name --at; '1/3' ran above 53 bits, where
        # mpmath's grammar read the text
        assert run(["sv-polylog", "--weight", "2", "--at", at, "--precision", precision]) == 2
        err = capsys.readouterr().err
        assert err == "error: sv-polylog: --at %r is not a complex number\n" % at

    @pytest.mark.parametrize("at", ["1e400", "1e400j", "-1-1e400i"])
    def test_usage_error_point_past_the_double_range(self, capsys, at):
        # at 53 bits each used to read as an infinity, "z must be finite"
        assert run(["sv-polylog", "--weight", "2", "--at=" + at]) == 2
        assert capsys.readouterr().err == ("error: sv-polylog: --at %r is outside the double "
                                           "range; it needs --precision > 53\n" % at)

    @pytest.mark.parametrize("precision", ["53", "80"])
    @pytest.mark.parametrize("at", ["inf", "-inf"])
    def test_usage_error_infinite_point(self, capsys, at, precision):
        # 'inf' used to become 'jnf': a malformed string at 53 bits, an
        # AttributeError from mpmath above
        assert run(["sv-polylog", "--weight", "2", "--at=" + at, "--precision", precision]) == 2
        assert capsys.readouterr().err.startswith("error: sv_polylog: z must be finite, got ")

    @pytest.mark.parametrize("weight", ["0", "1", "-1", "7", "12"])
    def test_usage_error_chain_weight_without_shapes(self, capsys, weight):
        # weight 0 used to read as no weight and run weights 3-6, and from 7
        # on a 5-slot shape was cut to the 4 functions of three variables
        code = run(["chain-check", "--weight", weight, "--samples", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no standard chain shapes at weight %s " % weight)
        assert "weights 3-6" in err

    @pytest.mark.parametrize("option, value", [("--max-k", "-1"), ("--max-p", "0")])
    def test_usage_error_empty_beta_table(self, capsys, option, value):
        # an empty table used to pass
        assert run(["beta", option, value]) == 2
        assert "\npolyreg beta: error: argument %s: must be >= " % option in (
            capsys.readouterr().err)

    def test_usage_error_identities_grid_names_max_k(self, capsys):
        # each bound is named by its option; --max-m, --max-n and --max-p
        # used to name the library functions' arguments
        for option, value, least in (("--max-k", "-1", 1), ("--max-m", "0", 1),
                                     ("--max-n", "2", 3), ("--max-p", "0", 1)):
            assert run(["verify-identities", option, value]) == 2, option
            assert "\npolyreg verify-identities: error: argument %s: must be >= %d\n" % (
                option, least) in capsys.readouterr().err, option

    @pytest.mark.parametrize("weight", ["10", "11", "12"])
    def test_usage_error_residue_weight_past_the_pool(self, capsys, weight):
        # the sampler used to run out of wedge functions, at weight 10 for
        # most seeds
        assert run(["residue", "--weight", weight, "--samples", "1"]) == 2
        assert "\npolyreg residue: error: argument --weight: must be from 2 to 9\n" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("option", [["--weight", "2"], ["--tol", "0.5"], ["--at", "1"],
                                        ["--orientation", "-1"]], ids=" ".join)
    def test_usage_error_loop_option_without_element(self, capsys, option):
        # each used to be ignored, and --tol and --at echoed in the manifest
        assert run(["loop-check", *option, "--json"]) == 2
        assert capsys.readouterr().err == "error: loop-check: %s needs --element\n" % option[0]

    @pytest.mark.parametrize("weight", ["1", "0", "-1"])
    def test_usage_error_symmetry_weight_below_two(self, capsys, weight):
        # weight 1 used to fail its inversion case: L_1(1/z) = L_1(z) + log|z|
        assert run(["polylog-symmetries", "--weight", weight, "--samples", "1"]) == 2
        assert "\npolyreg polylog-symmetries: error: argument --weight: must be >= 2\n" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [["residue", "--tol", "1e-3"],
                                      ["loop-check", "--seed", "1"],
                                      ["loop-check", "--samples", "3"]], ids=" ".join)
    def test_usage_error_option_no_suite_reads(self, capsys, argv):
        assert run(argv) == 2
        assert "unrecognized arguments: %s" % " ".join(argv[1:]) in capsys.readouterr().err

    def test_usage_error_value_past_the_double_range(self, capsys):
        # used to end in an uncaught OverflowError, exit 1
        assert run(["sv-polylog", "--weight", "300", "--at", "2e-290-1e-291j"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sv-polylog: L_300(2e-290-1e-291j) is outside the double")
        assert "--precision > 53" in err

    def test_usage_error_mis_split_term(self, capsys):
        # the '-' ends the slot, so '1' is a weight-1 term of its own
        code = run(["loop-check", "--weight", "4", "--element", "{t}_3 (x) t-1", "--at", "1"])
        assert code == 2
        assert "the term '1' has weight 1 and degree 1" in capsys.readouterr().err

    def test_usage_error_bracket_of_depth_zero(self, capsys):
        # '{t}_0' used to be refused as a pure wedge carrying an argument
        assert run(["chain-check", "--weight", "0", "--element", "{t}_0"]) == 2
        assert capsys.readouterr().err.startswith("error: a bracket needs depth >= 2, not 0")

    def test_failing_suite_is_one(self, capsys):
        # the depth/valuation sampler at weight 4 hits both commutation
        # signs, so the single-sign residue suite reports a failure
        code, _ = run_json(capsys, ["residue", "--weight", "4", "--samples", "12"])
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0


VERDICT, USAGE = (0, 1), (2,)  # the exit classes: a suite's verdict, and a usage error


def subcommands(parser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def bounds(parser) -> list:
    """(subcommand, option, least, most) of each option whose type is a
    `cli._int`, as the parser holds them."""
    return [(command, action.option_strings[0], action.type.least, action.type.most)
            for command, p in subcommands(parser).items() for action in p._actions
            if hasattr(action.type, "least")]


# a cheap line of each bounded subcommand, before the bounded option
BASE = {"sv-polylog": ["--weight", "3", "--at", "0.3+0.2j"],
        "polylog-symmetries": ["--samples", "1"], "residue": ["--samples", "1"]}

# a line of each subcommand of `cli._NEEDS` that gives every option there
NEEDS_LINES = {
    "loop-check": ["--weight", "2", "--element", "(t+2)^t", "--nodes", "64", "--tol", "0.5",
                   "--at", "1", "--orientation", "-1"],
}


def sweep_argvs() -> list:
    """(argv, exit class) pairs.  Both sides of every bound of the parser:
    least, and most if there is one, end in a verdict; least - 1 and
    most + 1 in a usage error.  Each pair of `cli._NEEDS`: the option alone
    is a usage error, and with what it needs a verdict.  Every subcommand
    that takes --weight at weights 0-12, chain-check and loop-check with and
    without --element.  And the limits the library owns: chain-check's
    shapes at 2-6, bracket depth >= 2, --samples >= 1, a positive finite
    --tol, --nodes >= 64, three positive finite decreasing radii, and the
    double range."""
    parser = build_parser()
    argvs = []
    weights = {}
    for command, option, least, most in bounds(parser):
        line = [command, *BASE.get(command, []), option]
        valid, invalid = [least], [least - 1]
        if most is not None:
            valid, invalid = [least, most], [least - 1, most + 1]
        argvs += [(line + [str(v)], VERDICT) for v in valid]
        argvs += [(line + [str(v)], USAGE) for v in invalid]
        if option == "--weight":
            weights[command] = range(least, 13 if most is None else most + 1)
    for command, needs in cli._NEEDS.items():
        given = dict(zip(NEEDS_LINES[command][::2], NEEDS_LINES[command][1::2]))
        argvs.append(([command, *NEEDS_LINES[command]], VERDICT))
        argvs += [([command, "--" + option, given["--" + option]], USAGE) for option in needs]
    weights.update({"chain-check": range(2, 7), "element": range(2, 13)})
    for w in range(13):
        chain = "{(1-t)/(1+t)}_%d" % w
        loop = "(t+2)^t" if w == 2 else "{(2+t)/(1+t)}_%d (x) t" % (w - 1)
        for command, *rest in (
                ("sv-polylog", "--at", "0.3+0.2j"), ("polylog-symmetries", "--samples", "1"),
                ("residue", "--samples", "1"), ("chain-check", "--samples", "1"),
                ("chain-check", "--element", chain, "--samples", "1"), ("loop-check",),
                ("loop-check", "--element", loop, "--nodes", "64")):
            kind = "element" if "--element" in rest else command
            valid = w in weights.get(kind, ())  # loop-check --weight alone needs --element
            argvs.append(([command, "--weight", str(w), *rest], VERDICT if valid else USAGE))
    loop = ["loop-check", "--weight", "2", "--element", "(t+2)^t"]
    argvs += [(argv, VERDICT) for argv in (
        ["sv-polylog", "--weight", "3", "--at", "0.3", "--precision", "54"],
        ["top-check", "--functions", "t;1-t", "--samples", "1"],
        # a constant is exact: no draw refuses it as outside [1e-3, 1e3]
        ["chain-check", "--element", "{t}_2 (x) 5000"], ["top-check", "--functions", "t;2000"],
        [*loop, "--orientation", "-1"], [*loop, "--at", "1"], [*loop, "--nodes", "64"],
        [*loop, "--radii", "1e-2,3e-3,1e-3"], ["loop-check"], ["golden"])]
    argvs += [(argv, USAGE) for argv in (
        ["sv-polylog", "--weight", "300", "--at", "2e-290-1e-291j"],
        ["sv-polylog", "--weight", "3", "--at", "0.3+"],
        ["polylog-symmetries", "--samples", "0"],
        ["polylog-symmetries", "--samples", "1", "--tol", "0"],
        ["residue", "--samples", "0"],
        ["chain-check", "--weight", "3", "--samples", "1", "--tol", "0"],
        ["chain-check", "--weight", "3", "--samples", "1", "--tol", "inf"],
        ["top-check", "--functions", "t", "--samples", "1"], ["top-check", "--samples", "0"],
        [*loop, "--orientation", "0"], [*loop, "--nodes", "63"], [*loop, "--tol", "nan"],
        [*loop, "--radii", "1e-2,1e-3"], [*loop, "--radii", "1e-2,3e-3,nan"],
        [*loop, "--radii", ""],
        ["all", "--samples", "0"])]
    return argvs


def run_captured(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def sweep_failures(argvs) -> list:
    """The argv that end outside their exit class.  A verdict must print a
    manifest of the command and weight asked for and nothing on stderr; a
    usage error an error on stderr and no report; no exception escapes."""
    bad = []
    for argv, expected in argvs:
        try:
            code, out, err = run_captured(argv + ["--json"])
        except Exception as exc:
            bad.append((argv, repr(exc)))
            continue
        if code in VERDICT and code in expected:
            manifest = json.loads(out)
            weight = getattr(build_parser().parse_args(argv), "weight", None)
            asked = manifest["command"] == argv[0] and (
                weight is None or manifest["config"].get("weight") == weight
                or manifest["results"][0]["cases"][0]["input"].startswith("L_%d(" % weight))
            if not asked or err:
                bad.append((argv, code, err))
        elif code not in expected or out or "error: " not in err:
            bad.append((argv, code, err))
    return bad


def test_every_weight_and_bound_ends_in_a_verdict_or_a_usage_error():
    argvs = sweep_argvs()
    assert len(argvs) >= 121
    assert sweep_failures(argvs) == []


def library_defaults() -> dict:
    """(subcommand, option) -> the library's default that the option, when
    not given, leaves standing, as a tuple of floats."""
    cfg, loop = RegulatorConfig(), inspect.signature(loop_residue_check).parameters
    out = {(command, "--tol"): (cfg.tol,) for command in ("chain-check", "top-check", "all")}
    out[("polylog-symmetries", "--tol")] = (
        inspect.signature(sv_polylog_check_symmetries).parameters["tol"].default,)
    out[("loop-check", "--tol")] = (loop["tol"].default,)
    out[("loop-check", "--radii")] = cfg.loop_radii
    out[("loop-check", "--nodes")] = (cfg.loop_nodes,)
    for command in ("polylog-symmetries", "residue", "chain-check", "top-check", "all"):
        out[(command, "--seed")] = (cfg.seed,)
    for command in ("residue", "chain-check", "all"):
        out[(command, "--samples")] = (cfg.samples,)
    return out


def floats(text: str):
    """The comma-separated numbers of text as a tuple, or None."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        return None


def options_table_mismatches(parser) -> list:
    """Each row of README's options table against the parser: one row per
    subcommand, which names exactly its options besides --json, and the
    parenthesis after an option's first mention starts with the parser's
    default where that is not None, or else with the library's default
    that the option leaves standing (`library_defaults`), and states
    exactly its `_int` bounds ("≥ 1", "from 2 to 9") and no others."""
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", section, flags=re.M))
    defaults = library_defaults()
    found = [] if set(rows) == set(subcommands(parser)) else [("rows", sorted(rows))]
    for command, p in subcommands(parser).items():
        row = rows.get(command, "")
        options = {a.option_strings[0]: a for a in p._actions
                   if a.option_strings and a.option_strings[0] not in ("-h", "--json")}
        named = set(re.findall(r"`(--[a-z-]+)", row))
        if named != set(options):
            found.append((command, sorted(named ^ set(options))))
        for option, action in options.items():
            said = re.search(r"`%s` \(([^)]*)\)" % option, row)
            items = re.split(r"[,;] ", said.group(1)) if said else []
            stated = [i for i in items if re.fullmatch(r"≥ -?\d+|from -?\d+ to -?\d+", i)]
            least, most = getattr(action.type, "least", None), getattr(action.type, "most", None)
            bound = [] if least is None else [
                "≥ %d" % least if most is None else "from %d to %d" % (least, most)]
            default = action.default
            if stated != bound or default is not None and items[:1] != [str(default)]:
                found.append((command, option, items, default, bound))
            library = defaults.get((command, option))
            if library is not None and floats(items[0] if items else "") != library:
                found.append((command, option, items, library))
    return found


def test_readme_options_table_is_the_parser():
    assert options_table_mismatches(build_parser()) == []


def test_a_moved_bound_fails_the_sweep_and_the_readme(monkeypatch):
    """The control: residue's --weight bound moved by one, to 2-10, in the
    parser alone."""
    real = cli._int
    monkeypatch.setattr(cli, "_int", lambda least, most=None: real(least, most if most is None
                                                                  else most + 1))
    parser = build_parser()
    assert ("residue", "--weight", 2, 10) in bounds(parser)
    moved = [(argv, want) for argv, want in sweep_argvs() if argv[0] == "residue"]
    assert [argv for argv, *_ in sweep_failures(moved)] == [
        ["residue", "--samples", "1", "--weight", "10"],
        ["residue", "--weight", "10", "--samples", "1"]]
    assert [m[:2] for m in options_table_mismatches(parser)] == [("residue", "--weight")]


def test_a_moved_library_default_fails_the_readme(monkeypatch):
    """The control: loop_residue_check's default tol moved, 1e-3 to 1e-2, in
    the library alone; and RegulatorConfig's radii."""
    monkeypatch.setattr(loop_residue_check, "__defaults__", (None, 1, 1e-2))
    monkeypatch.setattr(RegulatorConfig.__init__, "__defaults__", tuple(
        (2e-2, 3e-3, 1e-3) if value == (1e-2, 3e-3, 1e-3) else value
        for value in RegulatorConfig.__init__.__defaults__))
    assert library_defaults()[("loop-check", "--radii")] == (2e-2, 3e-3, 1e-3)
    assert [m[:2] for m in options_table_mismatches(build_parser())] == [
        ("loop-check", "--radii"), ("loop-check", "--tol")]


class TestReports:
    def test_beta_row(self, capsys):
        code, out = run_json(capsys, ["beta", "--max-k", "8", "--max-p", "1", "--json"])
        assert code == 0
        manifest = json.loads(out)
        values = {c["input"]: c["value"] for r in manifest["results"] for c in r["cases"]}
        assert values["beta(6)"] == "2/945"
        assert values["beta(1)"] == "-1"
        assert values["beta(4)"] == "-1/45"

    def test_manifest_shape(self, capsys):
        code, out = run_json(capsys, ["golden", "--json"])
        manifest = json.loads(out)
        assert set(manifest) == {"command", "config", "versions", "results", "pass"}
        assert manifest["command"] == "golden"
        assert "golden" in manifest["versions"]
        for report in manifest["results"]:
            assert {"suite", "cases", "pass"} <= set(report)
            for case in report["cases"]:
                assert {"input", "pass"} <= set(case)

    def test_sv_polylog_value(self, capsys):
        code, out = run_json(
            capsys, ["sv-polylog", "--weight", "2", "--at", "1j", "--json"]
        )
        assert code == 0
        case = json.loads(out)["results"][0]["cases"][0]
        want = sv_polylog(2, 1j)
        assert abs(complex(case["value"][0], case["value"][1]) - want) < 1e-15

    @pytest.mark.parametrize("precision", [53, 80])
    @pytest.mark.parametrize("at, z", [("1+2i", 1 + 2j), ("1 + 2i", 1 + 2j), ("1j", 1j),
                                       ("0.3+0.2j", 0.3 + 0.2j), ("i", 1j), ("1+j", 1 + 1j),
                                       ("(1_0+2J)", 10 + 2j), ("2e-3-1E+1i", 0.002 - 10j),
                                       ("2I", 2j), ("1+I", 1 + 1j)])
    def test_sv_polylog_point_as_written(self, capsys, at, z, precision):
        # complex()'s grammar on both routes, with i read as j in either case
        code, out = run_json(capsys, ["sv-polylog", "--weight", "2", "--at", at,
                                      "--precision", str(precision), "--json"])
        case = json.loads(out)["results"][0]["cases"][0]
        assert code == 0 and case["input"] == "L_2(%s)" % at
        if precision == 53:
            want = sv_polylog(2, z)
            assert case["value"] == [want.real, want.imag]
        else:
            import mpmath as mp

            # above 53 bits each part's text is read at the precision; the
            # shortest repr of each part of z is the decimal written in at
            with mp.workprec(precision):
                z = mp.mpc(repr(z.real), repr(z.imag))
            assert case["value"] == mp.nstr(sv_polylog(2, z, precision_bits=precision), 24)

    def test_sv_polylog_point_past_the_double_range_keeps_its_value(self, capsys):
        import mpmath as mp

        with mp.workprec(80):  # each part's text read at the precision asked for
            points = (("1e400", mp.mpf("1e400")), ("1e-400", mp.mpf("1e-400")),
                      ("2-1e400i", mp.mpc(2, "-1e400")))
        for at, z in points:
            code, out = run_json(capsys, ["sv-polylog", "--weight", "3", "--at", at,
                                          "--precision", "80", "--json"])
            case = json.loads(out)["results"][0]["cases"][0]
            assert code == 0 and case["value"] == mp.nstr(sv_polylog(3, z, precision_bits=80), 24)

    def test_verify_identities(self, capsys):
        code, out = run_json(
            capsys,
            ["verify-identities", "--max-m", "10", "--max-n", "8",
             "--max-p", "8", "--max-k", "10", "--json"],
        )
        assert code == 0
        suites = {r["suite"] for r in json.loads(out)["results"]}
        assert suites == {"coefficient-rows", "proposition", "beta-recursion-grid"}

    def test_chain_check_element(self, capsys):
        code, out = run_json(
            capsys,
            ["chain-check", "--weight", "3", "--element", "{(1-t)/(1+t)}_2 (x) t",
             "--samples", "4", "--json"],
        )
        assert code == 0
        case = json.loads(out)["results"][0]["cases"][0]
        assert case["max_defect"] < 1e-6
        # every term reduces to zero: the element keeps the degree it is written in
        assert run(["chain-check", "--weight", "4", "--element", "{1}_3 (x) t"]) == 0
        # an element of its own is checked past the standard shapes' weights
        element = "{(1-t)/(1+t)}_5 (x) t ^ (t+2)"
        assert run(["chain-check", "--weight", "7", "--element", element, "--samples", "1"]) == 0

    def test_loop_check_defaults(self, capsys):
        code, out = run_json(capsys, ["loop-check", "--json"])
        assert code == 0
        reports = json.loads(out)["results"]
        assert len(reports) == 3
        assert any("reversed" in r["cases"][0]["input"] for r in reports)


class TestDeterminism:
    def test_byte_identical(self, capsys):
        argv = ["chain-check", "--weight", "3", "--seed", "5",
                "--samples", "4", "--json"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        assert first == second

    def test_seed_changes_nothing_symbolic(self, capsys):
        _, a = run_json(capsys, ["golden", "--json"])
        _, b = run_json(capsys, ["golden", "--json"])
        assert a == b

    @pytest.mark.parametrize(
        "argv, digest, exit_code",
        [
            (["verify-identities"],
             "86f793e98b3c5f2f452a306edcdc7404b82bb3656f61a93f9d2c4008cddf5d87", 0),
            (["beta", "--max-k", "20", "--max-p", "20"],
             "f3daee8e637115eafc952b9b0732d53064a4432a90e2ad64e9f6719f8d6aba5e", 0),
            (["golden"],
             "d26fb8992760d74b483bea0bf3a40ef5c0471a9d92db27a33b073a658ba2187a", 0),
            (["residue", "--weight", "3"],
             "f50d645971056a46e7f928ec3545be88697229c0c4ba39d766586ab0ad192f60", 0),
            (["residue", "--weight", "4"],  # the deliberate red test
             "d50b3d5b0b0ab69dab735fb3bb5b6802a36a746f1a0e5843691fd6d637c56c4a", 1),
        ],
    )
    def test_exact_results_pinned(self, capsys, argv, digest, exit_code):
        # sha256 of the results as the all-Fraction implementation printed
        # them: every beta and beta_kp string, form, residue, verdict and defect
        code, out = run_json(capsys, argv + ["--json"])
        assert code == exit_code
        results = json.dumps(json.loads(out)["results"], sort_keys=True, indent=2)
        assert hashlib.sha256(results.encode()).hexdigest() == digest


def test_all_runs_the_pinned_cases(capsys):
    """What `all` runs: one suite|input|pass line per case in manifest order,
    hashed, and the number of reports of each suite.  No float enters the
    listing, so the pin does not depend on the platform's libm."""
    code, out = run_json(capsys, ["all", "--seed", "89", "--samples", "1", "--json"])
    assert code == 0
    results = json.loads(out)["results"]
    lines = ["%s|%s|%s" % (r["suite"], c["input"], c["pass"]) for r in results for c in r["cases"]]
    assert len(lines) == 118
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "31acb78a6f789ea3"
    assert Counter(r["suite"] for r in results) == {
        "beta-table": 1,
        "coefficient-rows": 1,
        "proposition": 1,
        "beta-recursion-grid": 1,
        "polylog-symmetries": 2,
        "residue-chain": 1,
        "golden-formulas": 1,
        "chain-map": 1,
        "top-cycle": 9,
        "loop-residue": 3,
    }


def test_parser_lists_all_subcommands():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    assert set(sub.choices) == {
        "beta", "verify-identities", "sv-polylog", "polylog-symmetries",
        "residue", "chain-check", "top-check", "loop-check", "golden", "all",
    }


ALL_ARGV = ["all", "--seed", "89", "--samples", "1", "--json"]


def shares_lines() -> bool:
    """Whether `all` forks here: the affinity mask holds more than one CPU
    and the process runs one thread."""
    forks, real = [], os.fork
    os.fork = lambda: forks.append(None) or real()
    try:
        cli._run_lines(("x", "y"), lambda line: [line])
    finally:
        os.fork = real
    return bool(forks)


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wrap_lines(monkeypatch, act):
    """Run each line of `all` as act(in_worker, command, call): in_worker
    tells a worker, a process other than this one, and call() runs the line."""
    parent, real = os.getpid(), cli._reports

    def reports(args, cfg, parse):
        if args.command == "all":
            return real(args, cfg, parse)
        return act(os.getpid() != parent, args.command, lambda: real(args, cfg, parse))
    monkeypatch.setattr(cli, "_reports", reports)


need_workers = pytest.mark.skipif(not shares_lines(), reason="`all` runs in one process here")


class TestSharedLines:
    """`all` runs its lines on the CPUs of its affinity mask (`cli._run_lines`):
    the manifest and the first failing line's error are those of one process,
    and no worker outlives `cli.run`."""

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs sched_setaffinity and two CPUs")
    def test_one_cpu_and_every_cpu_give_the_same_bytes(self, capsys, monkeypatch):
        mask, forks, real = os.sched_getaffinity(0), [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real())
        try:
            os.sched_setaffinity(0, {min(mask)})
            alone = run_json(capsys, ALL_ARGV)
            assert forks == []  # one CPU: every line in this process
        finally:
            os.sched_setaffinity(0, mask)
        assert os.sched_getaffinity(0) == mask
        shared = run_json(capsys, ALL_ARGV)
        assert shared == alone and alone[0] == 0
        assert len(forks) == (min(len(mask), len(cli.ALL_LINES)) - 1 if shares_lines() else 0)
        assert_no_worker_left()

    def test_first_failing_line_raises_its_error(self, capsys, monkeypatch):
        # golden is an earlier line than loop-check, which is handed out first
        def act(in_worker, command, call):
            if command in ("golden", "loop-check"):
                raise ValueError(command + " broke")
            return call()

        wrap_lines(monkeypatch, act)
        assert run(ALL_ARGV) == 2
        assert capsys.readouterr().err == "error: golden broke\n"
        assert_no_worker_left()

    def test_every_line_once_in_order(self):
        # 256 lines, as many as one-byte indices can name; each reports its index
        lines = tuple(map(str, range(256)))
        assert cli._run_lines(lines, lambda line: [int(line)]) == list(range(256))
        assert_no_worker_left()

    def test_a_second_thread_keeps_the_lines_in_this_process(self, monkeypatch):
        def forbidden():
            raise AssertionError("forked beside a second thread")
        monkeypatch.setattr(os, "fork", forbidden)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert cli._run_lines(("a", "b"), lambda line: [line]) == ["a", "b"]
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @need_workers
    def test_a_refused_fork_leaves_the_lines_to_this_process(self, capsys, monkeypatch):
        expected, fds = run_json(capsys, ALL_ARGV), set(os.listdir("/proc/self/fd"))

        def refused():
            raise BlockingIOError("fork: resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", refused)
        assert run_json(capsys, ALL_ARGV) == expected
        assert set(os.listdir("/proc/self/fd")) == fds  # the refused fork's pipe is closed
        assert_no_worker_left()

    @need_workers
    @pytest.mark.parametrize("mode", ["raises", "dies", "interrupted", "unmarshallable"])
    def test_a_line_failing_in_a_worker_is_rerun(self, capsys, monkeypatch, mode):
        expected = run_json(capsys, ALL_ARGV)

        def act(in_worker, command, call):
            reports = call()
            if not in_worker:
                return reports
            if mode == "raises":
                raise ValueError("only in a worker: " + command)
            if mode == "dies":
                os._exit(3)
            if mode == "interrupted":
                raise KeyboardInterrupt
            return [{"suite": object()}]

        wrap_lines(monkeypatch, act)
        assert run_json(capsys, ALL_ARGV) == expected
        assert_no_worker_left()

    @need_workers
    def test_interrupted_parent_reaps_its_workers(self, monkeypatch, tmp_path):
        # the parent's first line raises; its workers start no line after that
        ran = tmp_path / "ran"

        def act(in_worker, command, call):
            if not in_worker:
                raise KeyboardInterrupt
            with open(ran, "a") as log:
                log.write(command + "\n")
            return call()

        wrap_lines(monkeypatch, act)
        with pytest.raises(KeyboardInterrupt):
            run(ALL_ARGV)
        assert_no_worker_left()
        assert len(ran.read_text().split() if ran.exists() else []) < len(cli.ALL_LINES) - 1
