"""Exact-arithmetic tests for the Bernoulli-coefficient machinery.

Oracle policy: frozen literal values for the pinned table entries, sympy's
bernoulli() (an independent implementation) for the scaling cross-check, and
the closed form as ground truth for the recursion route.
"""

import hashlib
from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreg import exact
from polyreg.exact import (
    BetaTable,
    bernoulli,
    bernoulli_recurrence,
    beta,
    beta_kp,
    beta_kp_recursive,
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
    # the integer table rescales at each prime m + 1; growing it one index at
    # a time (as the sv expansion tables do) must give the same values
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


def test_recursion_independent_of_closed_form(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the recursion route reached the closed form")

    monkeypatch.setattr(exact, "beta_kp", forbidden)
    monkeypatch.setattr(exact, "_closed_sum", forbidden)
    monkeypatch.setattr(exact._Table, "common", forbidden)
    beta_kp_recursive.cache_clear()
    values = "\n".join(
        "%d,%d:%s" % (k, p, beta_kp_recursive(k, p)) for k in range(41) for p in range(1, 41)
    )
    # sha256 of this listing from the all-Fraction implementation
    assert hashlib.sha256(values.encode()).hexdigest() == (
        "212333b7a8dbbf56386cbf7cc94fd4984d90d5fbaf1ed7ef1befe341266a9d7b"
    )
