"""Exact rational arithmetic for the scaled Bernoulli coefficients.

Everything here is exact; no floating point.  The module also holds
`report_case` and `suite_report`, the one builders of a suite report's case
rows and of the report itself, since every module that runs a suite imports
this one or can without a cycle.

Conventions
-----------
beta_k := 2^k B_k / k!, equivalently  sum_{k>=0} beta_k t^k = 2t/(e^{2t} - 1).
This forces the Bernoulli convention B_1 = -1/2 (many references use +1/2).

beta_kp(k, p) := (-1)^p (p-1)! * sum_{0 <= i <= (p-1)//2} beta_{k+p-2i}/(2i+1)!

Representation
--------------
The table behind beta() holds beta_0 .. beta_t as Fractions, t odd, grown
from the tangent numbers T_n, tan x = sum_{n>=1} T_n x^(2n-1)/(2n-1)!:

    beta_{2n} = (-1)^(n-1) T_n / ((4^n - 1) (2n - 1)!),

beta_0 = 1, beta_1 = -1 and every other odd beta is 0.  T_n comes from
Brent and Harvey's in-place loop (Fast computation of Bernoulli, Tangent
and Secant numbers, 2011), T_n = T_n^(n) with

    T_n^(1) = (n-1)!,   T_n^(i) = (n-i) T_{n-1}^(i) + (n-i+2) T_n^(i-1),

run one column n at a time: the table keeps the stages of its last T_n,
so it grows one index at a time at the loop's own cost, n multiply-adds
of big integers by small ones per T_n.  The closed form of beta_kp works over
the common denominator den, the lcm of the table's denominators, with
integer numerators num[j] = den * beta_j built once per growth, so
p * den * beta_{k,p} is an integer (_closed_sum).  The grid checks
(coefficient rows, proposition cells, quadratic companion, BetaTable) stay
in integers: an identity a/b = c/d is tested as a * d == c * b.  Beyond the
table's entries, a Fraction is built only where a value leaves the module:
the closed values that BetaTable stores and the beta-table suite prints,
the printed defects of a report, a disagreement's text.

Independence
------------
The closed form above is the single source of truth for beta_kp; the
recursion route, _recursion_grid, shares only beta() with it, never reads
the closed form, its memo or the numerators num, and must agree with it
exactly.  Its integers p! * D * beta_{k,p}, over D = lcm of the
denominators of beta(), meet the closed sums in one place, _beta_kp_cells,
by cross-multiplication, and its cells carry both values as (numerator,
denominator) pairs.  The beta-table suite reads its cells, and one
function, _beta_grid_disagreement, judges the grid and writes the text of
the first cell where the routes differ: BetaTable's AssertionError and the
beta-recursion-grid suite's case label, read without a table.  BetaTable's
values are the closed route's, from the memo of beta_kp.  The Fraction
forms of both recursions (beta_{k,p} and the classical Bernoulli
recurrence) are the tests' independent references (tests/oracles.py), not
a second route in the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul
from typing import Optional

__all__ = [
    "beta",
    "bernoulli",
    "beta_kp",
    "BetaTable",
    "verify_row_identities",
    "verify_proposition",
    "report_case",
    "suite_report",
]


class _Table:
    """Grow-only table of beta_0 .. beta_t as Fractions, t odd, from the
    tangent numbers (see the module docstring)."""

    def __init__(self):
        self.values = [Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(0)]
        self._column = [1]  # T_n at stages 1 .. n of the loop, n = (t - 1) / 2
        self._common = None  # (den, num) over the current table, see common()

    def grow(self, k: int) -> None:
        column = self._column
        while len(self.values) <= k:
            n = len(column) + 1
            # T_n^(1) = (n-1)!, T_n^(i) = (n-i) T_{n-1}^(i) + (n-i+2) T_n^(i-1)
            new = [(n - 1) * column[0]]
            for i, prev in enumerate(column[1:] + [0], 2):
                new.append((n - i) * prev + (n - i + 2) * new[-1])
            tangent = new[-1] if n % 2 else -new[-1]
            self.values += [Fraction(tangent, (4**n - 1) * factorial(2 * n - 1)), Fraction(0)]
            self._column = column = new
            self._common = None

    def common(self, top: int) -> tuple:
        """(den, num) with num[j] = den * beta_j for every j in the table,
        den the lcm of the denominators; kept until the table grows."""
        self.grow(top)
        if self._common is None:
            den = lcm(*(v.denominator for v in self.values))
            self._common = (den, [v.numerator * (den // v.denominator) for v in self.values])
        return self._common


_table = _Table()


def beta(k: int) -> Fraction:
    """beta_k, from the table (see the module docstring)."""
    if k < 0:
        raise ValueError("beta: k must be >= 0")
    _table.grow(k)
    return _table.values[k]


def bernoulli(k: int) -> Fraction:
    """B_k = beta_k * k! / 2^k  (so B_1 = -1/2)."""
    if k < 0:
        raise ValueError("bernoulli: k must be >= 0")
    return beta(k) * factorial(k) / 2**k


@lru_cache(maxsize=None)
def _closed_weights(p: int) -> tuple:
    """p!/(2i+1)! for i = (p-1)//2 down to 0: the weights of num[k+p-2i] in
    _closed_sum, lowest index first."""
    weights, ratio = [], factorial(p)  # ratio = p!/(2i+1)!
    for i in range((p - 1) // 2 + 1):
        weights.append(ratio)
        ratio //= (2 * i + 2) * (2 * i + 3)
    return tuple(reversed(weights))


def _closed_sum(num: list, k: int, p: int) -> int:
    """p * den * beta_{k,p} = (-1)^p sum_i num[k+p-2i] * p!/(2i+1)!, an
    integer, for num[j] = den * beta_j."""
    acc = sum(map(mul, num[k + 2 - p % 2 : k + p + 1 : 2], _closed_weights(p)))
    return -acc if p % 2 else acc


@lru_cache(maxsize=None)
def beta_kp(k: int, p: int) -> Fraction:
    """The closed-form coefficient combination (definition route), over the
    table's common denominator; the recursion route never reads this memo."""
    if k < 0 or p < 1:
        raise ValueError("beta_kp: need k >= 0 and p >= 1")
    den, num = _table.common(k + p)
    return Fraction(_closed_sum(num, k, p), p * den)


def _recursion_grid(max_k: int, max_p: int) -> tuple:
    """(D, R) with R[p][k] = p! * D * beta_{k,p} for k <= max_k, 1 <= p <= max_p,
    from beta_{k,1} = -beta_{k+1} and the recursions

        2p * beta_{k+1,2p}       = -beta_{k,2p+1} - beta_{k+1}/(2p+1)
        (2p-1) * beta_{k+1,2p-1} = -beta_{k,2p}

    solved for descending p and scaled to integers:

        R(k, 1) = -D beta_{k+1}
        R(k, p) = -p (p-1) R(k+1, p-1) - [p odd] (p-1)! D beta_{k+1}

    D is the lcm of the denominators of beta_j, j <= max_k + max_p.  Reads
    only beta(); never the closed form, its memo or the numerators num.
    """
    values = [beta(j) for j in range(max_k + max_p + 1)]
    scale = lcm(*(v.denominator for v in values))
    d_beta = [v.numerator * (scale // v.denominator) for v in values[1:]]  # D beta_{k+1}
    column = [-a for a in d_beta]  # R(k, 1) for k <= max_k + max_p - 1
    grid = [None, column]
    factor = 1  # (p-1)!
    for p in range(2, max_p + 1):
        factor *= p - 1
        column = [-p * (p - 1) * r for r in column[1:]]
        if p % 2:
            column = [r - factor * a for r, a in zip(column, d_beta)]
        grid.append(column)
    return scale, grid


def _beta_kp_cells(max_k: int, max_p: int):
    """Yield (k, p, value, other) for 0 <= k <= max_k, 1 <= p <= max_p, k
    outer: value is the closed route's beta_{k,p} as an integer pair
    (numerator, denominator), and other is None where the recursion route
    agrees with it, else the recursion's value as such a pair.  The routes
    meet by integer cross-multiplication: p * den * beta_{k,p} from
    _closed_sum against p! * D * beta_{k,p} from _recursion_grid.  An empty
    grid (max_k < 0 or max_p < 1) yields nothing."""
    den, num = _table.common(max_k + max_p)
    scale, recursive = _recursion_grid(max_k, max_p)
    # closed / (p den) = rec / (p! D)  <=>  closed (p-1)! D = rec den
    rec_den = [None, scale]  # (p-1)! D
    for p in range(2, max_p + 1):
        rec_den.append(rec_den[-1] * (p - 1))
    for k in range(max_k + 1):
        for p in range(1, max_p + 1):
            closed, rec = _closed_sum(num, k, p), recursive[p][k]
            other = None if closed * rec_den[p] == rec * den else (rec, p * rec_den[p])
            yield k, p, (closed, p * den), other


def _beta_grid_disagreement(max_k: int, max_p: int) -> Optional[str]:
    """The recursion route's verdict on the grid of _beta_kp_cells: None
    where it agrees with the closed route on every cell, else the text of
    the first cell where they differ (BetaTable's AssertionError)."""
    if max_k < 0 or max_p < 1:
        raise ValueError("BetaTable: need max_k >= 0, max_p >= 1")
    for k, p, value, other in _beta_kp_cells(max_k, max_p):
        if other is not None:
            return (f"beta_kp routes disagree at (k,p)=({k},{p}): "
                    f"{Fraction(*value)} vs {Fraction(*other)}")
    return None


class BetaTable:
    """Memoized beta / beta_kp tables, frozen after construction.

    Both construction routes are compared on every entry
    (_beta_grid_disagreement).  A mismatch anywhere is a construction-time
    error, so shared read-only use is safe.  The stored values are the
    closed route's, from beta_kp.
    """

    def __init__(self, max_k: int = 64, max_p: int = 64):
        disagreement = _beta_grid_disagreement(max_k, max_p)
        if disagreement is not None:
            raise AssertionError(disagreement)
        self.max_k = max_k
        self.max_p = max_p
        self.beta = {k: beta(k) for k in range(max_k + 1)}
        self.beta_kp = {(k, p): beta_kp(k, p)
                        for k in range(max_k + 1) for p in range(1, max_p + 1)}


def verify_row_identities(max_m: int) -> dict:
    """Exact grid check of the first-row/second-row coefficient lemma.

    For 1 <= m <= max_m:
        beta_{0,2m} = beta_{0,2m+1} = 1/(2m+1)
        beta_{1,2m} = 0
        |beta_{1,2m-1}| = 1/((2m-1)(2m+1))   (actual sign recorded)

    Returns a report dict; 'failures' lists the first failing (m, identity).
    """
    if max_m < 1:
        raise ValueError("verify_row_identities: max_m must be >= 1")
    # beta_{k,p} = a/b  <=>  _closed_sum(num, k, p) * b = a * p * den
    den, num = _table.common(2 * max_m + 1)
    failures = []
    signs = set()
    for m in range(1, max_m + 1):
        if _closed_sum(num, 0, 2 * m) * (2 * m + 1) != 2 * m * den:
            failures.append((m, "beta_{0,2m} = 1/(2m+1)"))
            break
        if _closed_sum(num, 0, 2 * m + 1) != den:
            failures.append((m, "beta_{0,2m+1} = 1/(2m+1)"))
            break
        if _closed_sum(num, 1, 2 * m):
            failures.append((m, "beta_{1,2m} = 0"))
            break
        odd = _closed_sum(num, 1, 2 * m - 1)
        if abs(odd) * (2 * m + 1) != den:
            failures.append((m, "|beta_{1,2m-1}| = 1/((2m-1)(2m+1))"))
            break
        signs.add(1 if odd > 0 else -1)
    ok = not failures and signs == {-1}
    return suite_report(
        "coefficient-rows",
        [report_case("coefficient rows, m <= %d" % max_m, ok)],
        max_m=max_m,
        sign_beta_1_odd=sorted(signs),
        failures=failures,
    )


def _proposition_cells(max_n: int, max_p: int):
    """Yield (n, p, main, printed, scale) for 3 <= n <= max_n, 1 <= p <= max_p,
    n outer: main and printed are the defects of the proposition with middle
    coefficient n and n-1, both times the positive integer scale.

    With den, num from the table, p * den * beta_{k,p} = _closed_sum(num, k, p)
    and den * beta_j = num[j], so over scale = p (p+1) den^2 the shared part
    beta_{n-2,p+1} - sum_{k=1}^{n-3} beta_{k,p} beta_{n-k-1} is an integer,
    computed once per cell for both middle coefficients.  Each closed sum is
    formed once, in one row per p.
    """
    den, num = _table.common(max_n + max_p - 1)
    # closed[p][k] = _closed_sum(num, k, p): k < max_n, and k < max_n - 1 in
    # row max_p + 1, which only feeds beta_{n-2,p+1}
    closed = [None] + [
        [_closed_sum(num, k, p) for k in range(max_n - (p > max_p))]
        for p in range(1, max_p + 2)
    ]
    for n in range(3, max_n + 1):
        tail = num[n - 2 : 1 : -1]  # num[n-k-1] for k = 1 .. n-3
        for p in range(1, max_p + 1):
            row = closed[p]
            conv = sum(map(mul, row[1 : n - 2], tail))
            shared = p * den * closed[p + 1][n - 2] - (p + 1) * conv
            middle = (p + 1) * den * row[n - 1]
            yield n, p, shared - n * middle, shared - (n - 1) * middle, p * (p + 1) * den * den


# variant: (first k, c - n, coefficient of beta_{n-1}) in
# sum_{k=first}^{n-first} beta_k beta_{n-k} + c*beta_n + c'*beta_{n-1}
_QUADRATIC_VARIANTS = {
    "printed": (2, 0, 0),  # sum_{k=2}^{n-2} + n*beta_n
    "corrected": (2, 1, 0),  # sum_{k=2}^{n-2} + (n+1)*beta_n
    "k1_endpoints": (1, 1, 0),  # sum_{k=1}^{n-1} + (n+1)*beta_n
    "full_convolution": (0, -1, 2),  # sum_{k=0}^{n} + (n-1)*beta_n + 2*beta_{n-1}
}


def _quadratic_defect(n: int, variant: str, den: int, num: list) -> int:
    """den^2 times the variant's defect at n, for num[j] = den * beta_j."""
    first, offset, previous = _QUADRATIC_VARIANTS[variant]
    part = num[first : n - first + 1]
    acc = sum(map(mul, part, reversed(part)))
    return acc + den * ((n + offset) * num[n] + previous * num[n - 1])


def verify_proposition(max_n: int, max_p: int) -> dict:
    """Exact grid check of the coefficient proposition and its quadratic companion.

    Main identity, asserted for 3 <= n <= max_n, 1 <= p <= max_p:

        beta_{n-2,p+1} - n*beta_{n-1,p} - sum_{k=1}^{n-3} beta_{k,p} beta_{n-k-1} = 0

    The middle coefficient is n, not the n-1 one would first write down: the
    n-1 variant is probed on the same grid and its nonzero defect (equal to
    beta_{n-1,p}) is recorded, so the resolution is part of the report.

    Quadratic companion: the bound/coefficient variants of
    sum beta_k beta_{n-k} + c*beta_n = 0 are probed for 4 <= n <= max_n;
    the ones that hold identically are pinned in the report. The corrected
    form is sum_{k=2}^{n-2} beta_k beta_{n-k} + (n+1) beta_n = 0, which is
    the t^n coefficient of the generating-function identity
    t f' = f - 2tf - f^2 with the k=0,1 endpoint terms moved across.
    """
    if max_n < 3 or max_p < 1:
        raise ValueError("verify_proposition: need max_n >= 3, max_p >= 1")
    failures = []
    printed_defects = []  # (n, p, defect), the defect built only for the shown ones
    printed_count = 0
    for n, p, main, printed, scale in _proposition_cells(max_n, max_p):
        if main:
            failures.append(("main", n, p))
        if printed:
            printed_count += 1
            if len(printed_defects) < 4:
                printed_defects.append((n, p, Fraction(printed, scale)))
    den, num = _table.common(max_n)
    variant_fail = {
        variant: [n for n in range(4, max_n + 1) if _quadratic_defect(n, variant, den, num)]
        for variant in _QUADRATIC_VARIANTS
    }
    holding = sorted(v for v, bad in variant_fail.items() if not bad)
    ok = not failures and "corrected" in holding and "full_convolution" in holding
    return suite_report(
        "proposition",
        [report_case("main identity grid, n <= %d, p <= %d" % (max_n, max_p), ok)],
        max_n=max_n,
        max_p=max_p,
        failures=failures[:5],
        main_identity_middle_coefficient="n (the printed n-1 variant fails)",
        printed_variant_first_defects=[
            {"n": n, "p": p, "defect": str(d), "equals_beta_{n-1,p}": d == beta_kp(n - 1, p)}
            for (n, p, d) in printed_defects
        ],
        printed_variant_defect_count=printed_count,
        quadratic_variants_holding=holding,
        quadratic_variant_failures={v: bad[:4] for v, bad in variant_fail.items() if bad},
    )


def report_case(label: str, ok: bool, max_defect=None, tol=0.0, **extra) -> dict:
    """One case row of a suite report, every value kept as given.  An exact
    check leaves out max_defect, which then reads 0.0 on a pass and inf on a
    failure; extra keys (a twist defect, the two sides) are added as given."""
    if max_defect is None:
        max_defect = 0.0 if ok else float("inf")
    return {"input": label, "max_defect": max_defect, "tol": tol, "pass": ok, **extra}


def suite_report(suite: str, cases: list, ok: bool = True, **extra) -> dict:
    """A suite report: its name, its case rows and extra keys as given.  It
    passes when ok holds and every case passes; ok carries a condition on
    the suite as a whole, such as one global sign."""
    passes = bool(ok) and all(c["pass"] for c in cases)
    return {"suite": suite, **extra, "cases": cases, "pass": passes}
