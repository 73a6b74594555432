"""Command-line entry point wiring the verification suites.

Every subcommand produces a run manifest, a dict: the command name, the
effective configuration, content digests of the golden files, the list of
suite reports and whether all of them passed.  With --json the manifest is
printed as sorted JSON, so a fixed (command, seed, precision) reproduces
byte-identical output.  Exit code 0 means every suite passed, 1 means a suite failed,
2 is a usage error.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from typing import List, Optional

from . import __version__
from .exact import (
    BetaTable,
    _beta_kp_cells,
    beta,
    report_case,
    verify_proposition,
    verify_row_identities,
)
from .funcfield import parse_function
from .polycomplex import parse_element, residue_chain_check
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

LOOP_CASES = (
    (2, "(t+2)^t", "0", 1),
    (2, "(t+2)^t", "0", -1),
    (3, "{(2+t)/(1+t)}_2 (x) t", "0", 1),
)


def _versions() -> dict:
    digests = {}
    for path in sorted(_GOLDEN_DIR.glob("*.txt")):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    return {"package": __version__, "golden": digests}


def _config_dict(cfg: RegulatorConfig, extra: Optional[dict] = None) -> dict:
    out = asdict(cfg)
    out["loop_radii"] = list(out["loop_radii"])
    if extra:
        out.update(extra)
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
        {"input": "beta(%d,%d)" % (k, p), "value": str(value), "tol": 0.0, "pass": other is None}
        for k, p, value, other in _beta_kp_cells(max_k, max_p)
    ]
    return {
        "suite": "beta-table",
        "cases": cases,
        "pass": all(c["pass"] for c in cases),
    }


def _identities_report(max_m: int, max_n: int, max_p: int, max_k: int) -> List[dict]:
    rows = verify_row_identities(max_m)
    rows["cases"] = [report_case("coefficient rows, m <= %d" % max_m, rows["pass"])]
    proposition = verify_proposition(max_n, max_p)
    proposition["cases"] = [
        report_case(
            "main identity grid, n <= %d, p <= %d" % (max_n, max_p), proposition["pass"]
        )
    ]
    try:
        BetaTable(max_k, max_k)
        case = report_case("closed vs recursive, k,p <= %d" % max_k, True)
    except AssertionError as exc:
        case = report_case(str(exc), False)
    grid = {"suite": "beta-recursion-grid", "cases": [case], "pass": case["pass"]}
    return [rows, proposition, grid]


def _sv_report(weight: int, at: str, precision: int) -> dict:
    if precision <= 53:
        z = complex(at.replace("i", "j").replace(" ", ""))
        value = sv_polylog(weight, z, precision_bits=precision)
        rendered = [value.real, value.imag]
    else:
        import mpmath as mp

        value = sv_polylog(weight, _mp_number(at), precision_bits=precision)
        rendered = mp.nstr(value, max(17, round(precision * 0.302)))
    return {
        "suite": "sv-polylog",
        "cases": [
            {
                "input": "L_%d(%s)" % (weight, at),
                "value": rendered,
                "precision_bits": precision,
                "pass": True,
            }
        ],
        "pass": True,
    }


def _mp_number(text: str):
    import mpmath as mp

    return mp.mpmathify(text.replace("i", "j"))


def _top_report(functions: str, cfg: RegulatorConfig) -> dict:
    fs = [parse_function(p.strip()) for p in functions.split(";") if p.strip()]
    return top_check(fs, cfg)


def _loop_case_reports(cfg: RegulatorConfig) -> List[dict]:
    return [
        loop_residue_check(weight, parse_element(text, weight=weight), at, cfg, orientation=sign)
        for weight, text, at, sign in LOOP_CASES
    ]


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyreg",
        description="verification suites for polylogarithmic regulator maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples=20):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--samples", type=int, default=samples)

    p = sub.add_parser("beta", help="exact coefficient table")
    p.add_argument("--max-k", type=int, default=8)
    p.add_argument("--max-p", type=int, default=6)

    p = sub.add_parser("verify-identities", help="exact coefficient lemma grids")
    p.add_argument("--max-m", type=int, default=50)
    p.add_argument("--max-n", type=int, default=30)
    p.add_argument("--max-p", type=int, default=30)
    p.add_argument("--max-k", type=int, default=40)

    p = sub.add_parser("sv-polylog", help="evaluate one single-valued polylog")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--at", required=True, help="complex point, e.g. '0.3+0.2j'")
    p.add_argument("--precision", type=int, default=53)

    p = sub.add_parser("polylog-symmetries", help="inversion/conjugation/parity suite")
    p.add_argument("--weight", type=int, default=2)
    common(p, samples=25)

    p = sub.add_parser("residue", help="residue/differential commutation suite")
    p.add_argument("--weight", type=int, default=3)
    common(p)

    p = sub.add_parser("chain-check", help="d(r(e)) == r(delta(e)) at generic frames")
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--element", default=None)
    common(p)

    p = sub.add_parser("top-check", help="top-row cycle condition")
    p.add_argument("--functions", default=None, help="semicolon-separated list")
    common(p, samples=10)

    p = sub.add_parser("loop-check", help="loop integral against 2*pi*i residues")
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--element", default=None)
    p.add_argument("--at", default="0")
    p.add_argument("--radii", default=None, help="comma-separated decreasing radii")
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--orientation", type=int, default=1, choices=(1, -1))
    common(p)

    p = sub.add_parser("golden", help="symbolic comparison against stored formulas")

    p = sub.add_parser("all", help="run every suite")
    common(p)

    for p in set(sub.choices.values()):
        p.add_argument("--json", action="store_true", help="emit the manifest as JSON")

    return parser


def _make_config(args) -> RegulatorConfig:
    kw = {}
    if getattr(args, "seed", None) is not None:
        kw["seed"] = args.seed
    if getattr(args, "tol", None) is not None:
        kw["tol"] = args.tol
    if getattr(args, "samples", None) is not None:
        kw["samples"] = args.samples
    if getattr(args, "radii", None):
        kw["loop_radii"] = tuple(float(r) for r in args.radii.split(","))
    if getattr(args, "nodes", None) is not None:
        kw["loop_nodes"] = args.nodes
    return RegulatorConfig(**kw)


def _dispatch(args) -> dict:
    command = args.command
    if command == "beta":
        cfg = RegulatorConfig()
        results = [_beta_report(args.max_k, args.max_p)]
        extra = {"max_k": args.max_k, "max_p": args.max_p}
    elif command == "verify-identities":
        cfg = RegulatorConfig()
        results = _identities_report(args.max_m, args.max_n, args.max_p, args.max_k)
        extra = {
            "max_m": args.max_m,
            "max_n": args.max_n,
            "max_p": args.max_p,
            "max_k": args.max_k,
        }
    elif command == "sv-polylog":
        cfg = RegulatorConfig()
        results = [_sv_report(args.weight, args.at, args.precision)]
        extra = {"precision": args.precision}
    elif command == "polylog-symmetries":
        cfg = _make_config(args)
        results = [
            sv_polylog_check_symmetries(
                args.weight,
                samples=cfg.samples,
                tol=cfg.tol if args.tol is not None else 1e-8,
                seed=cfg.seed,
            )
        ]
        extra = {"weight": args.weight}
    elif command == "residue":
        cfg = _make_config(args)
        results = [
            residue_chain_check(args.weight, samples=cfg.samples, seed=cfg.seed)
        ]
        extra = {"weight": args.weight}
    elif command == "chain-check":
        cfg = _make_config(args)
        if args.element:
            if args.weight is None:
                raise ValueError("--element needs --weight")
            e = parse_element(args.element, weight=args.weight)
            results = [chain_check(args.weight, e, cfg)]
        else:
            weights = (args.weight,) if args.weight else (3, 4, 5, 6)
            results = [chain_suite(weights, cfg)]
        extra = {"weight": args.weight, "element": args.element}
    elif command == "top-check":
        cfg = _make_config(args)
        families = [args.functions] if args.functions else list(TOP_FAMILIES)
        results = [_top_report(f, cfg) for f in families]
        extra = {"functions": args.functions}
    elif command == "loop-check":
        cfg = _make_config(args)
        if args.element:
            if args.weight is None:
                raise ValueError("--element needs --weight")
            e = parse_element(args.element, weight=args.weight)
            results = [
                loop_residue_check(
                    args.weight, e, args.at, cfg, orientation=args.orientation,
                    tol=args.tol if args.tol is not None else 1e-3,
                )
            ]
        else:
            results = _loop_case_reports(cfg)
        extra = {"weight": args.weight, "element": args.element, "at": args.at}
    elif command == "golden":
        cfg = RegulatorConfig()
        results = [golden_formula_tests()]
        extra = None
    elif command == "all":
        cfg = _make_config(args)
        results = [_beta_report(8, 6)]
        results += _identities_report(50, 30, 30, 40)
        results += [
            sv_polylog_check_symmetries(n, samples=cfg.samples, tol=1e-8, seed=cfg.seed)
            for n in (2, 3)
        ]
        results += [residue_chain_check(3, samples=cfg.samples, seed=cfg.seed)]
        results += [golden_formula_tests()]
        results += [chain_suite((3, 4, 5, 6), cfg)]
        results += [_top_report(f, cfg) for f in TOP_FAMILIES]
        results += _loop_case_reports(cfg)
        extra = None
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError("unknown command %r" % command)

    results.sort(key=lambda r: r.get("suite", ""))
    return {
        "command": command,
        "config": _config_dict(cfg, extra),
        "versions": _versions(),
        "results": results,
        "pass": all(r.get("pass", False) for r in results),
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
        manifest = _dispatch(args)
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
