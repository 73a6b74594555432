"""Acceptance run: one test per numbered contract item.

Every test times itself against the item's budget, checks the stated
tolerance, and prints a single summary line.  Run with `pytest -s` to see
the lines on a green suite; a failing item shows its line in the report.
"""

import cmath
import math
import random
import time
from fractions import Fraction

from oracles import PathError, numeric_d, sv_transport
from polyreg import (
    RegulatorConfig,
    beta,
    chain_suite,
    delta,
    evaluate,
    exterior_derivative,
    golden_formula_tests,
    loop_residue_check,
    parse_element,
    parse_function,
    residue_chain_check,
    sv_polylog,
    sv_polylog_check_symmetries,
    sv_scalar,
    top_check,
    verify_proposition,
    verify_row_identities,
)
from polyreg.exact import BetaTable
from polyreg.polycomplex import random_element

# shared between items 7 and 11 so the chain suite runs once
_SHARED = {}


def _line(num, label, ok, detail, elapsed, budget):
    print(
        "[%s] item %02d %-24s %s  (%.2fs, budget %ds)"
        % ("PASS" if ok else "FAIL", num, label, detail, elapsed, budget)
    )


def _finish(num, label, ok, detail, elapsed, budget):
    _line(num, label, ok, detail, elapsed, budget)
    assert ok, "item %02d: %s" % (num, detail)
    assert elapsed < budget, "item %02d over budget: %.2fs" % (num, elapsed)


def test_item_01_beta_values():
    t0 = time.perf_counter()
    table = {
        0: Fraction(1),
        1: Fraction(-1),
        2: Fraction(1, 3),
        3: Fraction(0),
        4: Fraction(-1, 45),
        5: Fraction(0),
        6: Fraction(2, 945),
        8: Fraction(-1, 4725),
    }
    bad = {k: beta(k) for k, want in table.items() if beta(k) != want}
    elapsed = time.perf_counter() - t0
    _finish(1, "beta-values", not bad, "8 pinned values exact" if not bad else str(bad), elapsed, 1)


def test_item_02_coefficient_grid():
    t0 = time.perf_counter()
    rep = verify_row_identities(50)
    # both construction routes over the full k,p <= 40 grid; a mismatch
    # anywhere raises at construction time
    BetaTable(40, 40)
    elapsed = time.perf_counter() - t0
    ok = rep["pass"] and not rep["failures"]
    _finish(2, "coefficient-grid", ok, "rows m<=50 and 41x40 routes exact", elapsed, 5)


def test_item_03_depth_two_identity():
    t0 = time.perf_counter()
    rep = verify_proposition(30, 30)
    elapsed = time.perf_counter() - t0
    ok = (
        rep["pass"]
        and "corrected" in rep["quadratic_variants_holding"]
        and "full_convolution" in rep["quadratic_variants_holding"]
        and "printed" in rep["quadratic_variant_failures"]
    )
    detail = "n,p<=30 exact; quadratic bounds pinned (%s hold)" % ",".join(
        rep["quadratic_variants_holding"]
    )
    _finish(3, "depth-two-identity", ok, detail, elapsed, 10)


def test_item_04_polylog_values():
    t0 = time.perf_counter()
    checks = []

    worst_real = max(abs(sv_polylog(2, k / 25.0)) for k in range(1, 25))
    checks.append(("real-line", worst_real, 1e-10))

    val_i = sv_polylog(2, 1j)
    hi = complex(sv_polylog(2, 1j, precision_bits=130))
    checks.append(("value-at-i", abs(val_i - 0.9159655942j), 1e-8))
    checks.append(("oracle-at-i", abs(val_i - hi), 1e-10))
    checks.append(("value-at-1", abs(sv_polylog(3, 1.0) - 1.2020569032), 1e-8))

    rng = random.Random(41)
    worst_path = 0.0
    pairs = 0
    weights = (2, 3, 4)
    attempts = 0
    while pairs < 50 and attempts < 4000:
        attempts += 1
        r = math.exp(rng.uniform(math.log(0.7), math.log(4.0)))
        z = cmath.rect(r, rng.uniform(0.0, 2 * math.pi))
        if abs(z - 1) < 0.3 or abs(z - 0.5) < 0.2:
            continue
        w = 0.5 + 1.2j if z.imag >= 0 else 0.5 - 1.2j
        n = weights[pairs % 3]
        try:
            routed = sv_transport(n, z, (w,))
        except PathError:
            continue
        worst_path = max(worst_path, abs(routed - sv_polylog(n, z)))
        pairs += 1
    assert pairs == 50
    checks.append(("paired-paths", worst_path, 1e-8))

    five = sv_polylog_check_symmetries(2, samples=25, tol=1e-8, seed=11)
    case = next(c for c in five["cases"] if c["input"] == "five-term relation")
    checks.append(("five-term", case["max_defect"], 1e-8))

    elapsed = time.perf_counter() - t0
    bad = [(n, d, tol) for n, d, tol in checks if d > tol]
    detail = "; ".join("%s %.1e" % (n, d) for n, d, _ in checks)
    _finish(4, "polylog-values", not bad, detail, elapsed, 30)


def test_item_05_scalar_derivative():
    t0 = time.perf_counter()
    f = parse_function("t")
    rng = random.Random(17)
    worst = 0.0
    for n in (3, 4, 5):
        a = sv_scalar(n, f)
        da = exterior_derivative(a)
        done = 0
        while done < 20:
            z = cmath.rect(
                math.exp(rng.uniform(math.log(0.3), math.log(3.0))),
                rng.uniform(0.0, 2 * math.pi),
            )
            if abs(z - 1) < 0.25:
                continue
            v = cmath.rect(1.0, rng.uniform(0.0, 2 * math.pi))
            worst = max(worst, abs(evaluate(da, z, [v]) - numeric_d(a, z, [v])))
            done += 1
    elapsed = time.perf_counter() - t0
    _finish(5, "scalar-derivative", worst < 1e-5, "n=3,4,5 worst %.2e" % worst, elapsed, 30)


def test_item_06_golden_formulas():
    t0 = time.perf_counter()
    rep = golden_formula_tests()
    elapsed = time.perf_counter() - t0
    ok = rep["pass"] and len(rep["cases"]) == 16
    _finish(6, "golden-formulas", ok, "%d stored displays exact" % len(rep["cases"]), elapsed, 5)


def test_item_07_chain_map():
    t0 = time.perf_counter()
    rep = chain_suite((3, 4, 5, 6), RegulatorConfig(samples=20, seed=1))
    _SHARED["chain"] = rep
    elapsed = time.perf_counter() - t0
    worst = max(c["max_defect"] for c in rep["cases"])
    ok = rep["pass"] and worst < 1e-6
    detail = "%d shapes, worst %.2e" % (len(rep["cases"]), worst)
    _finish(7, "chain-map", ok, detail, elapsed, 180)


def test_item_08_top_cycles():
    t0 = time.perf_counter()
    families = (
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
    cfg = RegulatorConfig(samples=10, seed=3)
    worst = 0.0
    ok = True
    for fam in families:
        fs = [parse_function(s) for s in fam.split(";")]
        rep = top_check(fs, cfg)
        worst = max(worst, rep["cases"][0]["max_defect"])
        ok = ok and rep["pass"]
    elapsed = time.perf_counter() - t0
    ok = ok and worst < 1e-6
    _finish(8, "top-cycles", ok, "n=2,3,4 x3 families, worst %.2e" % worst, elapsed, 30)


def test_item_09_complex_structure():
    t0 = time.perf_counter()
    rng = random.Random(5)
    square_ok = True
    for _ in range(100):
        w = rng.choice([3, 4, 5, 6])
        # depth >= 3 keeps both applications inside the complex; depth-2
        # images already sit in the top group
        e = random_element(w, rng, depth=rng.choice(range(3, w + 1)))
        if not delta(delta(e)).is_zero():
            square_ok = False
    rep = residue_chain_check(3, samples=20, seed=2)
    elapsed = time.perf_counter() - t0
    ok = square_ok and rep["pass"] and rep["sign"] in (1, -1)
    detail = "square zero on 100 elements; residue sign %s" % rep["sign"]
    _finish(9, "complex-structure", ok, detail, elapsed, 10)


def test_item_10_loop_residues():
    t0 = time.perf_counter()
    e2 = parse_element("(t+2)^t", weight=2)
    e3 = parse_element("{(2+t)/(1+t)}_2 (x) t", weight=3)

    w2 = loop_residue_check(e2, 0)
    w2r = loop_residue_check(e2, 0, orientation=-1)
    w3 = loop_residue_check(e3, 0)
    w3r = loop_residue_check(e3, 0, orientation=-1)
    elapsed = time.perf_counter() - t0

    want = -2 * math.pi * math.log(2)
    c2, c2r = w2["cases"][0], w2r["cases"][0]
    pinned = abs(complex(*c2["expected"]) - want * 1j) < 1e-12
    flipped = abs(complex(*c2r["loop_value"]) + complex(*c2["loop_value"])) < 1e-3 * abs(want)
    # the weight-3 residue lands at a real argument, where even-weight
    # values vanish; the loop must extrapolate to zero as well
    zero3 = abs(complex(*w3["cases"][0]["expected"])) < 1e-8

    ok = all(r["pass"] for r in (w2, w2r, w3, w3r)) and pinned and flipped and zero3
    detail = "w2 defect %.1e, w3 defect %.1e, flips negate" % (
        c2["max_defect"],
        w3["cases"][0]["max_defect"],
    )
    _finish(10, "loop-residues", ok, detail, elapsed, 60)


def test_item_11_twist_parity():
    t0 = time.perf_counter()
    rep = _SHARED.get("chain") or chain_suite((3, 4, 5, 6), RegulatorConfig(samples=20, seed=1))
    worst = max(c["twist_defect"] for c in rep["cases"])
    elapsed = time.perf_counter() - t0
    detail = "values in i^(weight-1)R, worst %.2e" % worst
    _finish(11, "twist-parity", worst < 1e-8, detail, elapsed, 180)
