"""Command-line entry point wiring the verification suites.

Every subcommand produces a run manifest, a dict: the command name, the
effective configuration, content digests of the golden files, the list of
suite reports and whether all of them passed.  With --json the manifest is
printed as sorted JSON, so a fixed (command, seed, precision) reproduces
byte-identical output.  Exit code 0 means every suite passed, 1 means a suite failed,
2 is a usage error.  `build_parser` is the table of options, their defaults and
bounds, and `_NEEDS` says which option needs which: argparse refuses a value
past a bound, naming the option, and `_reports` an option without the one it needs.
An --element carries its weight; an unset option leaves the library's default standing.

`all` is the list of subcommand lines ALL_LINES: the same parser reads each
line, and `_reports` runs it as that subcommand runs, but under the
RegulatorConfig of `all`.  So its --seed and --samples reach every sampled
suite, and its --tol chain-check and top-check; polylog-symmetries and
loop-check keep their library's bounds, which only their own --tol sets.
The lines run on the CPUs of the process's affinity mask, in forked
workers (`_run_lines`), so `taskset -c 0 polyreg all` runs them in one
process; the manifest is the same bytes either way, and the first line
in ALL_LINES order that fails raises its error.
"""

import argparse
import cmath
import hashlib
import inspect
import json
import marshal
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import List, Sequence

from . import __version__
from .exact import (
    _beta_grid_disagreement,
    _beta_kp_cells,
    beta,
    report_case,
    suite_report,
    verify_proposition,
    verify_row_identities,
)
from .funcfield import parse_function
from .polycomplex import _WEDGE_POOL, parse_element, residue_chain_check
from .polylog import sv_polylog, sv_polylog_check_symmetries
from .regulator import (
    _GOLDEN_DIR,
    RegulatorConfig,
    chain_check,
    chain_suite,
    golden_formula_tests,
    loop_residue_check,
    top_check,
)

TOP_FAMILIES = (
    "t;1-t",
    "t;t+2",
    "(1-t)/(1+t);t",
    "x;y;x+y",
    "x;1-x;y",
    "x;x+y;x-y",
    "x;y;x+y;x-y",
    "x;y;1-x;1-y",
    "x;y;x+2*y;x+1",
)

_LOOP_AT = "0"  # the point of loop-check --element when --at is not given

LOOP_CASES = (
    ("(t+2)^t", "0", 1),
    ("(t+2)^t", "0", -1),
    ("{(2+t)/(1+t)}_2 (x) t", "0", 1),
)

# handed out last first (`_run_lines`), so the longest lines, listed last, start first
ALL_LINES = (
    "beta",
    "verify-identities",
    "polylog-symmetries --weight 2",
    "polylog-symmetries --weight 3",
    "residue",
    "golden",
    "chain-check",
    "top-check",
    "loop-check",
)

ELEMENT_HELP = (
    "chain element text, e.g. '2*{(1-t)/(1+t)}_2 (x) t'; '^', '+' and '-' end a wedge slot,"
    " so write sums, differences and powers in a slot inside parentheses: '{t}_3 (x) (t-1)'"
)

# per subcommand, option -> the option it needs
_NEEDS = {"loop-check": dict(weight="element", tol="element", at="element", orientation="element")}

# option -> the RegulatorConfig field it sets
_CONFIG = dict(seed="seed", tol="tol", samples="samples", nodes="loop_nodes", radii="loop_radii")
# not echoed under "config": what its RegulatorConfig holds, and what a loop case names
_UNECHOED = ("command", "json", *_CONFIG, "orientation")


def _versions() -> dict:
    digests = {}
    for path in sorted(_GOLDEN_DIR.glob("*.txt")):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    return {"package": __version__, "golden": digests}


def _config_dict(cfg: RegulatorConfig, args) -> dict:
    out = asdict(cfg)
    out["loop_radii"] = list(out["loop_radii"])
    # sv-polylog's case names its weight and point
    skip = _UNECHOED + (("weight", "at") if args.command == "sv-polylog" else ())
    out.update((name, value) for name, value in vars(args).items() if name not in skip)
    if args.command == "loop-check" and args.at is None:
        out["at"] = _LOOP_AT  # the point the run used
    return out


# ---------------------------------------------------------------------------
# suite runners


def _beta_report(max_k: int, max_p: int) -> dict:
    """The beta-table suite: each beta_k, and each closed beta_{k,p} with the
    verdict of the recursion route on it (exact._beta_kp_cells)."""
    cases = [
        {"input": "beta(%d)" % k, "value": str(beta(k)), "tol": 0.0, "pass": True}
        for k in range(max_k + 1)
    ]
    cases += [
        {"input": "beta(%d,%d)" % (k, p), "value": str(Fraction(*value)), "tol": 0.0,
         "pass": other is None}
        for k, p, value, other in _beta_kp_cells(max_k, max_p)
    ]
    return suite_report("beta-table", cases)


def _identities_report(max_m: int, max_n: int, max_p: int, max_k: int) -> List[dict]:
    reports = [verify_row_identities(max_m), verify_proposition(max_n, max_p)]
    disagreement = _beta_grid_disagreement(max_k, max_k)
    if disagreement is None:
        case = report_case("closed vs recursive, k,p <= %d" % max_k, True)
    else:
        case = report_case(disagreement, False)
    return reports + [suite_report("beta-recursion-grid", [case])]


def _sv_report(weight: int, at: str, precision: int) -> dict:
    text = re.sub(r"(?i:(inf)|i)", lambda m: m[1] or "j", "".join(at.split()))  # not inf's i
    try:  # complex()'s grammar on both routes
        z = complex(text)
    except ValueError:
        raise ValueError("sv-polylog: --at %r is not a complex number" % at) from None
    if precision > 53:  # mpmath reads each part's text at the precision, past the double range too
        import mpmath as mp

        # real, then an imaginary part from the last sign that follows no exponent's e
        real, imag = re.fullmatch(r"\(?(.*?)(?:([-+]?(?:[^-+eE]|[eE][-+]?)*)j)?\)?",
                                  text.replace("_", ""), re.I).groups()
        with mp.workprec(precision):
            z = mp.mpf(real) if imag is None else mp.mpc(real or 0, imag + "1" * (imag in "+-"))
    elif not cmath.isfinite(z) and not re.search("inf|nan", text, re.I):
        raise ValueError("sv-polylog: --at %r is outside the double range; "
                         "it needs --precision > 53" % at)
    try:
        value = sv_polylog(weight, z, precision_bits=precision)
    except OverflowError:
        raise ValueError("sv-polylog: L_%d(%s) is outside the double range; "
                         "it needs --precision > 53" % (weight, at)) from None
    if precision <= 53:
        rendered = [value.real, value.imag]
    else:
        rendered = mp.nstr(value, max(17, round(precision * 0.302)))
    case = {
        "input": "L_%d(%s)" % (weight, at),
        "value": rendered,
        "precision_bits": precision,
        "pass": True,
    }
    return suite_report("sv-polylog", [case])


def _top_report(functions: str, cfg: RegulatorConfig) -> dict:
    fs = [parse_function(p.strip()) for p in functions.split(";") if p.strip()]
    return top_check(fs, cfg)


def _given(**options) -> dict:  # those not None: the library's defaults stand for the rest
    return {name: value for name, value in options.items() if value is not None}


def _reports(args, cfg: RegulatorConfig, parse) -> List[dict]:
    """The suite reports of one parsed subcommand line, run under cfg; parse
    is the parser's parse_args, which reads the lines of `all`.

    Every suite is called through its name in this module at call time, so
    a wrapper installed on that name sees each call made in its process:
    from `all`, those of the lines no worker ran."""
    command = args.command
    for option, needed in _NEEDS.get(command, {}).items():
        if getattr(args, option) is not None and getattr(args, needed) is None:
            raise ValueError("%s: --%s needs --%s" % (command, option, needed))
    if command == "beta":
        return [_beta_report(args.max_k, args.max_p)]
    if command == "verify-identities":
        return _identities_report(args.max_m, args.max_n, args.max_p, args.max_k)
    if command == "sv-polylog":
        return [_sv_report(args.weight, args.at, args.precision)]
    if command == "polylog-symmetries":
        return [sv_polylog_check_symmetries(args.weight, samples=cfg.samples, seed=cfg.seed,
                                            **_given(tol=args.tol))]
    if command == "residue":
        return [residue_chain_check(args.weight, samples=cfg.samples, seed=cfg.seed)]
    if command == "chain-check":
        if args.element is not None:
            return [chain_check(parse_element(args.element, weight=args.weight), cfg)]
        if args.weight is None:
            return [chain_suite(cfg=cfg)]
        return [chain_suite((args.weight,), cfg)]
    if command == "top-check":
        families = TOP_FAMILIES if args.functions is None else [args.functions]
        return [_top_report(f, cfg) for f in families]
    if command == "loop-check":
        cases = LOOP_CASES
        if args.element is not None:
            cases = [(args.element, _LOOP_AT if args.at is None else args.at, args.orientation)]
        return [loop_residue_check(parse_element(text, weight=args.weight), at, cfg,
                                   **_given(orientation=sign, tol=args.tol))
                for text, at, sign in cases]
    if command == "golden":
        return [golden_formula_tests()]
    # all, since the parser admits no other command
    return _run_lines(ALL_LINES, lambda line: _reports(parse(line.split()), cfg, parse))


def _take(tasks: int, lines: Sequence[str], run) -> dict:
    """index -> run(line) of each line whose index this process reads off the
    pipe tasks, a byte each, until it is empty; a line that raises gets none."""
    results = {}
    for index in iter(lambda: os.read(tasks, 1), b""):
        try:
            results[index[0]] = run(lines[index[0]])
        except Exception:  # the parent reruns the line
            continue
    return results


def _run_lines(lines: Sequence[str], run) -> List[dict]:
    """The reports of run(line) for each line, chained in the order of lines.

    A process per CPU of the affinity mask, at most one per line, takes the
    next index off a pipe, last first, with a one-byte read, which a pipe
    keeps atomic (so up to 256 lines); one process runs them where fork or
    the mask is missing, or beside a thread, which a fork would not copy.  A
    worker marshals its results back and ends in os._exit.  The parent
    drains the indices left, reads each worker's results and reaps it in a
    finally, then runs in order each line with no result (it raised, its
    worker died, or its reports did not marshal): so the first failing line
    raises its error, and with one process that loop is the whole run."""
    try:
        alone = hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1
        processes = min(len(os.sched_getaffinity(0)), len(lines)) if alone else 1
    except (AttributeError, OSError):
        processes = 1
    results, workers = {}, {}
    if processes > 1:
        tasks, feed = os.pipe()
        os.write(feed, bytes(reversed(range(len(lines)))))
        os.close(feed)
        try:
            for _ in range(processes - 1):
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no more processes: those started share the lines
                    os.close(read)
                    os.close(write)
                    break
                if pid == 0:  # a worker
                    try:
                        with os.fdopen(write, "wb") as pipe:
                            marshal.dump(_take(tasks, lines, run), pipe)
                    finally:
                        os._exit(0)
                os.close(write)
                workers[pid] = read
            results = _take(tasks, lines, run)
        finally:
            os.read(tasks, len(lines))
            os.close(tasks)
            for pid, read in workers.items():
                with os.fdopen(read, "rb") as pipe:
                    try:
                        results.update(marshal.load(pipe))
                    except (EOFError, ValueError):  # none from this worker
                        pass
                os.waitpid(pid, 0)
    return [report for index, line in enumerate(lines)
            for report in (results[index] if index in results else run(line))]


# ---------------------------------------------------------------------------
# argument plumbing


def _int(least: int, most: int = None):
    """The type of an int option from least to most (None: no upper bound).
    It keeps them as .least and .most, and is named int, as argparse names a
    type in its errors ("invalid int value: 'x'")."""
    def read(text: str) -> int:
        value = int(text)
        if value < least or most is not None and value > most:
            raise argparse.ArgumentTypeError("must be " + (
                ">= %d" % least if most is None else "from %d to %d" % (least, most)))
        return value
    read.__name__, read.least, read.most = "int", least, most
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyreg",
        description="verification suites for polylogarithmic regulator maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def radii(text: str) -> tuple:  # named in argparse's errors; RegulatorConfig checks them
        return tuple(map(float, text.split(",")))

    def common(p, tol_help=None, samples=None, tol=RegulatorConfig.tol):
        p.add_argument("--seed", type=int, default=None,
                       help="default %d" % RegulatorConfig.seed)
        if tol_help:
            p.add_argument("--tol", type=float, default=None, help=tol_help % tol)
        p.add_argument("--samples", type=int, default=samples,
                       help="default %d" % (samples or RegulatorConfig.samples))

    p = sub.add_parser("beta", help="exact coefficient table")
    p.add_argument("--max-k", type=_int(0), default=8)
    p.add_argument("--max-p", type=_int(1), default=6)

    p = sub.add_parser("verify-identities", help="exact coefficient lemma grids")
    # each least is its grid's smallest: the rows' m, the proposition's n and p, the beta grid's k
    p.add_argument("--max-m", type=_int(1), default=50)
    p.add_argument("--max-n", type=_int(3), default=30)
    p.add_argument("--max-p", type=_int(1), default=30)
    p.add_argument("--max-k", type=_int(1), default=40)

    p = sub.add_parser("sv-polylog", help="evaluate one single-valued polylog")
    p.add_argument("--weight", type=_int(1), required=True)
    p.add_argument("--at", required=True, help="complex point, e.g. '0.3+0.2j'")
    p.add_argument("--precision", type=_int(1), default=53)

    p = sub.add_parser("polylog-symmetries", help="inversion/conjugation/parity suite")
    p.add_argument("--weight", type=_int(2), default=2)
    common(p, "bound on each symmetry defect (default %g, kept under all)", samples=25,
           tol=inspect.signature(sv_polylog_check_symmetries).parameters["tol"].default)

    p = sub.add_parser("residue", help="residue/differential commutation suite")
    # past the wedge pool's size, a wedge of weight - 2 slots can run out of functions
    p.add_argument("--weight", type=_int(2, len(_WEDGE_POOL) + 1), default=3)
    common(p)

    p = sub.add_parser("chain-check", help="d(r(e)) == r(delta(e)) at generic frames")
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--element", default=None, help=ELEMENT_HELP)
    common(p, "bound on each sampled defect (default %g)")

    p = sub.add_parser("top-check", help="top-row cycle condition")
    p.add_argument("--functions", default=None, help="semicolon-separated list")
    common(p, "bound on each sampled defect (default %g)", samples=10)

    p = sub.add_parser("loop-check", help="loop integral against 2*pi*i residues")
    loop = inspect.signature(loop_residue_check).parameters  # its defaults, for the help
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--element", default=None, help=ELEMENT_HELP)
    p.add_argument("--at", default=None, help="point of --element (default %s)" % _LOOP_AT)
    p.add_argument("--radii", type=radii, default=None, help="comma-separated decreasing radii")
    p.add_argument("--nodes", type=int, default=None,
                   help="per loop (default %d)" % RegulatorConfig.loop_nodes)
    p.add_argument("--orientation", type=int, default=None, choices=(1, -1),
                   help="of --element's loops (default %d)" % loop["orientation"].default)
    p.add_argument("--tol", type=float, default=None,
                   help="bound on the defect of --element (default %g)" % loop["tol"].default)

    p = sub.add_parser("golden", help="symbolic comparison against stored formulas")

    p = sub.add_parser(
        "all",
        help="run every suite",
        description="run the subcommand lines %s under this command's --seed and --samples"
        % ", ".join(map(repr, ALL_LINES)),
    )
    common(p, "bound on each sampled defect of chain-check and top-check (default %g)")

    for p in set(sub.choices.values()):
        p.add_argument("--json", action="store_true", help="emit the manifest as JSON")

    return parser


def _make_config(args) -> RegulatorConfig:
    given = vars(args)
    kw = {field: given[name] for name, field in _CONFIG.items() if given.get(name) is not None}
    return RegulatorConfig(**kw)


def _manifest(args, parse) -> dict:
    cfg = _make_config(args)
    results = sorted(_reports(args, cfg, parse), key=lambda r: r["suite"])
    return {
        "command": args.command,
        "config": _config_dict(cfg, args),
        "versions": _versions(),
        "results": results,
        "pass": all(r["pass"] for r in results),
    }


def _render_text(manifest: dict) -> str:
    lines = []
    for report in manifest["results"]:
        lines.append("== %s ==" % report.get("suite", "?"))
        for case in report.get("cases", []):
            mark = "PASS" if case.get("pass") else "FAIL"
            bits = []
            if "value" in case:
                bits.append("value=%s" % (case["value"],))
            if "max_defect" in case:
                bits.append("max_defect=%.3e" % case["max_defect"])
            if "tol" in case and case.get("tol"):
                bits.append("tol=%g" % case["tol"])
            lines.append("  [%s] %s  %s" % (mark, case.get("input", ""), " ".join(bits)))
        if "failures" in report and report["failures"]:
            lines.append("  failures: %s" % (report["failures"],))
        lines.append("  suite pass: %s" % report.get("pass"))
    lines.append("overall: %s" % ("PASS" if manifest["pass"] else "FAIL"))
    return "\n".join(lines)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        manifest = _manifest(args, parser.parse_args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(manifest, sort_keys=True, indent=2))
    else:
        print(_render_text(manifest))
    return 0 if manifest["pass"] else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
