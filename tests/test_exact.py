"""Exact-arithmetic tests for the Bernoulli-coefficient machinery.

Oracle policy: frozen literal values for the pinned table entries, sympy's
bernoulli() (an independent implementation) for the scaling cross-check, the
closed form as ground truth for the recursion route, and the Fraction
recursions of tests/oracles.py as second routes for both.
"""

import hashlib
import json
from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bernoulli_recurrence, beta_kp_recursive
from polyreg import cli, exact
from polyreg.exact import (
    BetaTable,
    bernoulli,
    beta,
    beta_kp,
    verify_proposition,
    verify_row_identities,
)

FROZEN_BETA = {
    0: Fraction(1),
    1: Fraction(-1),
    2: Fraction(1, 3),
    3: Fraction(0),
    4: Fraction(-1, 45),
    5: Fraction(0),
    6: Fraction(2, 945),
    8: Fraction(-1, 4725),
}


def test_beta_frozen_values():
    for k, value in FROZEN_BETA.items():
        assert beta(k) == value


def test_beta_odd_vanishing():
    assert all(beta(2 * m + 1) == 0 for m in range(1, 31))


def test_beta_two_routes_agree_to_60():
    # convolution recurrence vs classical B_k recurrence, rescaled
    from math import factorial

    for k in range(61):
        assert beta(k) == bernoulli_recurrence(k) * 2**k / factorial(k)


def test_beta_against_sympy():
    # sympy >= 1.12 uses the B_1 = +1/2 convention; ours is forced to -1/2.
    # The conventions agree everywhere else.
    from math import factorial

    for k in range(61):
        b = Fraction(int(sympy.bernoulli(k).p), int(sympy.bernoulli(k).q))
        if k == 1:
            assert bernoulli(1) == -abs(b)
            continue
        assert bernoulli(k) == b
        assert beta(k) == b * 2**k / factorial(k)


def test_bernoulli_convention():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)  # forced by beta_1 = -1
    assert bernoulli(4) == Fraction(-1, 30)


def test_beta_kp_pinned_values():
    for k in range(11):
        assert beta_kp(k, 1) == -beta(k + 1)
    assert beta_kp(0, 2) == Fraction(1, 3)
    assert beta_kp(1, 2) == 0
    assert beta_kp(1, 1) == Fraction(-1, 3)
    assert beta_kp(1, 3) == Fraction(-1, 15)
    assert beta_kp(3, 1) == Fraction(1, 45)
    assert beta_kp(2, 2) == Fraction(-1, 45)


def test_beta_kp_recursive_matches_closed_form_40():
    for k in range(41):
        for p in range(1, 41):
            assert beta_kp_recursive(k, p) == beta_kp(k, p), (k, p)


def test_beta_kp_recursive_examples():
    assert beta_kp_recursive(0, 2) == Fraction(1, 3)
    assert beta_kp_recursive(2, 3) == beta_kp(2, 3)


@given(st.integers(0, 25), st.integers(1, 25))
@settings(max_examples=60, deadline=None)
def test_recursions_hold_on_closed_form(k, p):
    # the two published recursions, checked directly against the closed form
    assert 2 * p * beta_kp(k + 1, 2 * p) == -beta_kp(k, 2 * p + 1) - beta(k + 1) / (
        2 * p + 1
    )
    assert (2 * p - 1) * beta_kp(k + 1, 2 * p - 1) == -beta_kp(k, 2 * p)


def test_domain_errors():
    with pytest.raises(ValueError):
        beta(-1)
    with pytest.raises(ValueError):
        beta_kp(0, 0)
    with pytest.raises(ValueError):
        beta_kp_recursive(-1, 2)


def test_beta_table_consistency():
    table = BetaTable(max_k=12, max_p=12)
    assert table.beta[6] == Fraction(2, 945)
    assert table.beta_kp[(0, 2)] == Fraction(1, 3)
    assert len(table.beta_kp) == 13 * 12


def test_row_identities_grid_50():
    report = verify_row_identities(50)
    assert report["pass"], report
    assert report["sign_beta_1_odd"] == [-1]  # lemma statement sign, not the proof's


def test_row_identities_pinned():
    assert beta_kp(0, 2) == Fraction(1, 3)
    assert beta_kp(1, 2) == 0
    assert beta_kp(1, 5) == Fraction(-1, 35)


def test_proposition_grid_30():
    report = verify_proposition(30, 30)
    assert report["pass"], report
    # the n-1 middle coefficient really does fail, with defect beta_{n-1,p}
    assert report["printed_variant_defect_count"] > 0
    assert all(d["equals_beta_{n-1,p}"] for d in report["printed_variant_first_defects"])
    assert report["quadratic_variants_holding"] == ["corrected", "full_convolution"]


def test_quadratic_identity_n4_probe():
    # the flagged probe: printed bounds give beta_2^2 + 4*beta_4 = 1/45
    assert beta(2) ** 2 + 4 * beta(4) == Fraction(1, 45)
    assert beta(2) ** 2 + 5 * beta(4) == 0


def test_beta_grown_stepwise_equals_one_jump(monkeypatch):
    # the table runs Brent and Harvey's loop one column at a time, keeping
    # the stages of its last tangent number; growing it one index at a time
    # (as the sv expansion tables do) must give the same values
    monkeypatch.setattr(exact, "_table", exact._Table())
    stepwise = [beta(k) for k in range(121)]
    monkeypatch.setattr(exact, "_table", exact._Table())
    assert beta(120) == stepwise[120]
    assert [beta(k) for k in range(121)] == stepwise
    for k in (60, 61, 66, 100, 102, 120):
        assert stepwise[k] == bernoulli_recurrence(k) * 2**k / factorial(k), k
        assert bernoulli(k) == bernoulli_recurrence(k), k


def reference_defect(n, p, middle_coeff):
    """The proposition's defect summed term by term in Fractions."""
    acc = beta_kp(n - 2, p + 1) - middle_coeff * beta_kp(n - 1, p)
    for k in range(1, n - 2):
        acc -= beta_kp(k, p) * beta(n - k - 1)
    return acc


def test_proposition_cells_match_fraction_reference():
    cells = list(exact._proposition_cells(15, 15))
    assert [(n, p) for n, p, *_ in cells] == [
        (n, p) for n in range(3, 16) for p in range(1, 16)
    ]
    printed = []
    for n, p, main, printed_num, scale in cells:
        assert Fraction(main, scale) == reference_defect(n, p, n), (n, p)
        d = reference_defect(n, p, n - 1)
        assert Fraction(printed_num, scale) == d, (n, p)
        if d:
            ok = d == beta_kp(n - 1, p)
            printed.append({"n": n, "p": p, "defect": str(d), "equals_beta_{n-1,p}": ok})
    report = verify_proposition(15, 15)
    assert report["failures"] == []
    assert report["printed_variant_defect_count"] == len(printed)
    assert report["printed_variant_first_defects"] == printed[:4]


# sha256 of the lines "k:numerator/denominator" of beta_0 .. beta_1030, from
# the integer table that grew by the convolution recurrence of a_m = 2^m B_m
# over a product of primes
BETA_1030_SHA256 = "5d89b3c18de83211b9c6d551d66d06d67384a5930ff10bb0ab773ca74139efb8"


def test_beta_pinned_to_1030(monkeypatch):
    monkeypatch.setattr(exact, "_table", exact._Table())
    values = [beta(k) for k in range(1031)]
    lines = "\n".join("%d:%d/%d" % (k, v.numerator, v.denominator) for k, v in enumerate(values))
    assert hashlib.sha256(lines.encode()).hexdigest() == BETA_1030_SHA256


# sha256 of the "k,p:beta_{k,p}" listing over k <= 40, 1 <= p <= 40, from the
# all-Fraction implementation
RECURSION_LISTING_SHA256 = "212333b7a8dbbf56386cbf7cc94fd4984d90d5fbaf1ed7ef1befe341266a9d7b"


def recursion_listing(value):
    return "\n".join("%d,%d:%s" % (k, p, value(k, p)) for k in range(41) for p in range(1, 41))


@pytest.fixture
def closed_form_forbidden(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the recursion route reached the closed form")

    monkeypatch.setattr(exact, "beta_kp", forbidden)
    monkeypatch.setattr(exact, "_closed_sum", forbidden)
    monkeypatch.setattr(exact, "_closed_weights", forbidden)
    monkeypatch.setattr(exact._Table, "common", forbidden)


def test_recursion_independent_of_closed_form(closed_form_forbidden):
    beta_kp_recursive.cache_clear()
    values = recursion_listing(beta_kp_recursive)
    assert hashlib.sha256(values.encode()).hexdigest() == RECURSION_LISTING_SHA256


def test_integer_recursion_independent_of_closed_form(closed_form_forbidden):
    # BetaTable's recursion route: R[p][k] = p! * D * beta_{k,p} from beta() alone
    scale, grid = exact._recursion_grid(40, 40)
    values = recursion_listing(lambda k, p: Fraction(grid[p][k], factorial(p) * scale))
    assert hashlib.sha256(values.encode()).hexdigest() == RECURSION_LISTING_SHA256


def test_beta_table_stores_closed_values():
    table = BetaTable(40, 40)
    assert list(table.beta_kp) == [(k, p) for k in range(41) for p in range(1, 41)]
    assert all(v == beta_kp(*key) for key, v in table.beta_kp.items())
    assert table.beta == {k: beta(k) for k in range(41)}


# Fraction references of the grid checks, summed term by term from beta_kp and
# beta, for the integer versions in exact to match report for report.


def reference_row_report(max_m):
    failures = []
    signs = set()
    for m in range(1, max_m + 1):
        target = Fraction(1, 2 * m + 1)
        if beta_kp(0, 2 * m) != target:
            failures.append((m, "beta_{0,2m} = 1/(2m+1)"))
            break
        if beta_kp(0, 2 * m + 1) != target:
            failures.append((m, "beta_{0,2m+1} = 1/(2m+1)"))
            break
        if beta_kp(1, 2 * m) != 0:
            failures.append((m, "beta_{1,2m} = 0"))
            break
        odd = beta_kp(1, 2 * m - 1)
        if abs(odd) != Fraction(1, (2 * m - 1) * (2 * m + 1)):
            failures.append((m, "|beta_{1,2m-1}| = 1/((2m-1)(2m+1))"))
            break
        signs.add(1 if odd > 0 else -1)
    ok = not failures and signs == {-1}
    return {
        "suite": "coefficient-rows",
        "max_m": max_m,
        "sign_beta_1_odd": sorted(signs),
        "failures": failures,
        "cases": [reference_case("coefficient rows, m <= %d" % max_m, ok)],
        "pass": ok,
    }


def reference_case(label, ok):
    """The one case row of a grid report: exact, so its defect reads 0.0 on
    a pass and inf on a failure."""
    return {"input": label, "max_defect": 0.0 if ok else float("inf"), "tol": 0.0, "pass": ok}


def reference_quadratic_defect(n, variant):
    def conv(lo, hi):
        return sum((beta(k) * beta(n - k) for k in range(lo, hi)), Fraction(0))

    if variant == "printed":
        return conv(2, n - 1) + n * beta(n)
    if variant == "corrected":
        return conv(2, n - 1) + (n + 1) * beta(n)
    if variant == "k1_endpoints":
        return conv(1, n) + (n + 1) * beta(n)
    if variant == "full_convolution":
        return conv(0, n + 1) + (n - 1) * beta(n) + 2 * beta(n - 1)
    raise ValueError(variant)


def reference_proposition_report(max_n, max_p):
    failures, printed = [], []
    for n in range(3, max_n + 1):
        for p in range(1, max_p + 1):
            if reference_defect(n, p, n):
                failures.append(("main", n, p))
            d = reference_defect(n, p, n - 1)
            if d:
                ok = d == beta_kp(n - 1, p)
                printed.append({"n": n, "p": p, "defect": str(d), "equals_beta_{n-1,p}": ok})
    variant_fail = {
        v: [n for n in range(4, max_n + 1) if reference_quadratic_defect(n, v)]
        for v in ("printed", "corrected", "k1_endpoints", "full_convolution")
    }
    holding = sorted(v for v, bad in variant_fail.items() if not bad)
    ok = not failures and "corrected" in holding and "full_convolution" in holding
    return {
        "suite": "proposition",
        "max_n": max_n,
        "max_p": max_p,
        "failures": failures[:5],
        "main_identity_middle_coefficient": "n (the printed n-1 variant fails)",
        "printed_variant_first_defects": printed[:4],
        "printed_variant_defect_count": len(printed),
        "quadratic_variants_holding": holding,
        "quadratic_variant_failures": {v: bad[:4] for v, bad in variant_fail.items() if bad},
        "cases": [reference_case("main identity grid, n <= %d, p <= %d" % (max_n, max_p), ok)],
        "pass": ok,
    }


def test_row_report_matches_fraction_reference():
    for max_m in (1, 2, 7, 50):
        assert verify_row_identities(max_m) == reference_row_report(max_m), max_m


def test_proposition_report_matches_fraction_reference():
    for max_n, max_p in ((3, 1), (4, 2), (30, 30)):
        assert verify_proposition(max_n, max_p) == reference_proposition_report(max_n, max_p)


def test_quadratic_defects_match_fraction_reference():
    den, num = exact._table.common(40)
    for variant in exact._QUADRATIC_VARIANTS:
        for n in range(4, 41):
            got = Fraction(exact._quadratic_defect(n, variant, den, num), den * den)
            assert got == reference_quadratic_defect(n, variant), (variant, n)


# {index: change} of the numerators num[j] = den * beta_j of the table; the
# last pair leaves beta_{0,3} = -(num[1] + 6 num[3]) / (3 den) as it is and
# breaks beta_{1,2} = 0, the first row check to fail
PERTURBATIONS = [{7: 1}, {10: 1}, {40: 1}, {3: 1, 1: -6}]

# what each perturbation breaks: the row failures, the first two proposition
# failures and the first (k, p) where BetaTable's routes disagree
PERTURBED_CHECKS = {
    "{7: 1}": ([(3, "beta_{0,2m+1} = 1/(2m+1)")], [("main", 3, 5), ("main", 3, 7)], (0, 7)),
    "{10: 1}": ([(5, "beta_{0,2m} = 1/(2m+1)")], [("main", 3, 8), ("main", 3, 10)], (0, 10)),
    "{40: 1}": ([(20, "beta_{0,2m} = 1/(2m+1)")], [("main", 11, 30), ("main", 12, 29)], (0, 40)),
    "{3: 1, 1: -6}": ([(1, "beta_{1,2m} = 0")], [("main", 3, 1), ("main", 3, 3)], (0, 1)),
}


@pytest.fixture(params=PERTURBATIONS, ids=str)
def perturbed_table(request, monkeypatch):
    """A table whose closed-route numerators are off: beta() keeps the
    table's Fractions, while the numerators that common(120) keeps for the
    closed route are moved."""
    table = exact._Table()
    den, num = table.common(120)
    for index, change in request.param.items():
        num[index] += change
    monkeypatch.setattr(exact, "_table", table)
    beta_kp.cache_clear()
    beta_kp_recursive.cache_clear()
    yield request.param
    beta_kp.cache_clear()
    beta_kp_recursive.cache_clear()


def test_integer_checks_fail_on_perturbed_table(perturbed_table, capsys):
    first = next(
        (k, p)
        for k in range(41)
        for p in range(1, 41)
        if beta_kp(k, p) != beta_kp_recursive(k, p)
    )
    k, p = first
    message = (
        f"beta_kp routes disagree at (k,p)=({k},{p}): "
        f"{beta_kp(k, p)} vs {beta_kp_recursive(k, p)}"
    )
    with pytest.raises(AssertionError) as info:
        BetaTable(40, 40)
    assert str(info.value) == message
    # the CLI's grid verdict, read without a BetaTable, names the same cell
    assert cli.run(["verify-identities", "--json"]) == 1
    (grid,) = [r for r in json.loads(capsys.readouterr().out)["results"]
               if r["suite"] == "beta-recursion-grid"]
    assert [(c["input"], c["pass"]) for c in grid["cases"]] == [(message, False)]

    rows = verify_row_identities(50)
    assert not rows["pass"] and rows["failures"]
    assert rows == reference_row_report(50)

    proposition = verify_proposition(30, 30)
    assert not proposition["pass"] and proposition["failures"]

    assert (rows["failures"], proposition["failures"][:2], first) == PERTURBED_CHECKS[
        str(perturbed_table)
    ]


def reference_beta_report(max_k, max_p):
    """The beta-table suite built cell by cell from beta_kp and the Fraction
    recursion, as cli._beta_report built it before the integer grid."""
    cases = []
    for k in range(max_k + 1):
        cases.append({"input": "beta(%d)" % k, "value": str(beta(k)), "tol": 0.0, "pass": True})
    for k in range(max_k + 1):
        for p in range(1, max_p + 1):
            closed = beta_kp(k, p)
            okay = closed == beta_kp_recursive(k, p)
            cases.append(
                {"input": "beta(%d,%d)" % (k, p), "value": str(closed), "tol": 0.0, "pass": okay}
            )
    return {"suite": "beta-table", "cases": cases, "pass": all(c["pass"] for c in cases)}


@pytest.mark.parametrize("max_k, max_p",
                         [(-1, 3), (-5, 3), (3, 0), (2, -3), (-1, 0), (-3, -3), (0, 0)])
def test_an_empty_grid_yields_no_cell(max_k, max_p):
    assert list(exact._beta_kp_cells(max_k, max_p)) == []


@pytest.mark.parametrize("max_k, max_p", [(12, 9), (8, 6), (0, 1), (5, 0), (-1, 3)])
def test_beta_report_matches_fraction_reference(max_k, max_p):
    assert cli._beta_report(max_k, max_p) == reference_beta_report(max_k, max_p)


@pytest.mark.parametrize("max_k, max_p", [(8, 6), (40, 6)])
def test_beta_report_fails_on_perturbed_cells(perturbed_table, max_k, max_p):
    """The suite fails exactly on the cells where the closed value differs
    from the Fraction recursion, and on at least one whenever a perturbed
    index is within reach: index 40 lies beyond the 8 x 6 grid, which then
    passes, and the 40 x 6 grid reaches it."""
    report = cli._beta_report(max_k, max_p)
    failed = [c["input"] for c in report["cases"] if not c["pass"]]
    assert failed == [
        "beta(%d,%d)" % (k, p)
        for k in range(max_k + 1)
        for p in range(1, max_p + 1)
        if beta_kp(k, p) != beta_kp_recursive(k, p)
    ]
    assert bool(failed) == (min(perturbed_table) <= max_k + max_p)
    assert report["pass"] == (not failed)
