"""Exact rational arithmetic for the scaled Bernoulli coefficients.

Everything here is computed with fractions.Fraction; no floating point.

Conventions
-----------
beta_k := 2^k B_k / k!, equivalently  sum_{k>=0} beta_k t^k = 2t/(e^{2t} - 1).
This forces the Bernoulli convention B_1 = -1/2 (many references use +1/2).

beta_kp(k, p) := (-1)^p (p-1)! * sum_{0 <= i <= (p-1)//2} beta_{k+p-2i}/(2i+1)!

The closed form above is the single source of truth; the recursion route
(beta_kp_recursive) must agree with it exactly and is tested as such.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

__all__ = [
    "beta",
    "bernoulli",
    "bernoulli_recurrence",
    "beta_kp",
    "beta_kp_recursive",
    "BetaTable",
    "verify_row_identities",
    "verify_proposition",
]

_ZERO = Fraction(0)
_beta_cache: list[Fraction] = [Fraction(1)]


def beta(k: int) -> Fraction:
    """beta_k, by the convolution recurrence from (e^{2t}-1) * sum beta_k t^k = 2t.

    Matching coefficients of t^{m+1} gives, for m >= 1,
        beta_m = -(1/2) * sum_{j=2}^{m+1} (2^j / j!) beta_{m+1-j}.
    """
    if k < 0:
        raise ValueError("beta: k must be >= 0")
    cache = _beta_cache
    while len(cache) <= k:
        m = len(cache)
        acc = _ZERO
        for j in range(2, m + 2):
            acc += Fraction(2**j, factorial(j)) * cache[m + 1 - j]
        cache.append(-acc / 2)
    return cache[k]


def bernoulli(k: int) -> Fraction:
    """B_k = beta_k * k! / 2^k  (so B_1 = -1/2)."""
    if k < 0:
        raise ValueError("bernoulli: k must be >= 0")
    return beta(k) * factorial(k) / 2**k


def bernoulli_recurrence(k: int) -> Fraction:
    """B_k by the classical recurrence sum_{j=0}^{m} C(m+1,j) B_j = 0 (m >= 1).

    Independent of beta(); used to cross-check the convolution route.
    """
    if k < 0:
        raise ValueError("bernoulli_recurrence: k must be >= 0")
    bs = [Fraction(1)]
    from math import comb

    for m in range(1, k + 1):
        acc = _ZERO
        for j in range(m):
            acc += comb(m + 1, j) * bs[j]
        bs.append(-acc / (m + 1))
    return bs[k]


@lru_cache(maxsize=None)
def beta_kp(k: int, p: int) -> Fraction:
    """The closed-form coefficient combination (definition route), memoized
    like beta; beta_kp_recursive never reads this memo."""
    if k < 0 or p < 1:
        raise ValueError("beta_kp: need k >= 0 and p >= 1")
    acc = _ZERO
    for i in range((p - 1) // 2 + 1):
        acc += beta(k + p - 2 * i) / factorial(2 * i + 1)
    sign = -1 if p % 2 else 1
    return sign * factorial(p - 1) * acc


def beta_kp_recursive(k: int, p: int) -> Fraction:
    """beta_kp computed only from beta_{k,1} = -beta_{k+1} and the recursions

        2p * beta_{k+1,2p}     = -beta_{k,2p+1} - beta_{k+1}/(2p+1)
        (2p-1) * beta_{k+1,2p-1} = -beta_{k,2p}

    solved for descending p:
        p even:       beta_{k,p} = -(p-1) * beta_{k+1,p-1}
        p odd, p>=3:  beta_{k,p} = -(p-1) * beta_{k+1,p-1} - beta_{k+1}/p
    Never consults the closed form.
    """
    if k < 0 or p < 1:
        raise ValueError("beta_kp_recursive: need k >= 0 and p >= 1")
    if p == 1:
        return -beta(k + 1)
    prev = beta_kp_recursive(k + 1, p - 1)
    if p % 2 == 0:
        return -(p - 1) * prev
    return -(p - 1) * prev - beta(k + 1) / p


class BetaTable:
    """Memoized beta / beta_kp tables, frozen after construction.

    Both construction routes are stored and compared; a mismatch anywhere
    is a construction-time error, so shared read-only use is safe.
    """

    def __init__(self, max_k: int = 64, max_p: int = 64):
        if max_k < 0 or max_p < 1:
            raise ValueError("BetaTable: need max_k >= 0, max_p >= 1")
        self.max_k = max_k
        self.max_p = max_p
        self.beta = {k: beta(k) for k in range(max_k + 1)}
        self.beta_kp = {}
        for k in range(max_k + 1):
            for p in range(1, max_p + 1):
                closed = beta_kp(k, p)
                rec = beta_kp_recursive(k, p)
                if closed != rec:
                    raise AssertionError(
                        f"beta_kp routes disagree at (k,p)=({k},{p}): "
                        f"{closed} vs {rec}"
                    )
                self.beta_kp[(k, p)] = closed


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
    return {
        "suite": "coefficient-rows",
        "max_m": max_m,
        "sign_beta_1_odd": sorted(signs),
        "failures": failures,
        "pass": not failures and signs == {-1},
    }


def _proposition_defect(n: int, p: int, middle_coeff: int) -> Fraction:
    acc = beta_kp(n - 2, p + 1) - middle_coeff * beta_kp(n - 1, p)
    for k in range(1, n - 2):
        acc -= beta_kp(k, p) * beta(n - k - 1)
    return acc


def _quadratic_defect(n: int, variant: str) -> Fraction:
    if variant == "printed":  # sum_{k=2}^{n-2} + n*beta_n
        acc = sum((beta(k) * beta(n - k) for k in range(2, n - 1)), _ZERO)
        return acc + n * beta(n)
    if variant == "corrected":  # sum_{k=2}^{n-2} + (n+1)*beta_n
        acc = sum((beta(k) * beta(n - k) for k in range(2, n - 1)), _ZERO)
        return acc + (n + 1) * beta(n)
    if variant == "k1_endpoints":  # sum_{k=1}^{n-1} + (n+1)*beta_n
        acc = sum((beta(k) * beta(n - k) for k in range(1, n)), _ZERO)
        return acc + (n + 1) * beta(n)
    if variant == "full_convolution":  # sum_{k=0}^{n} + (n-1)*beta_n + 2*beta_{n-1}
        acc = sum((beta(k) * beta(n - k) for k in range(n + 1)), _ZERO)
        return acc + (n - 1) * beta(n) + 2 * beta(n - 1)
    raise ValueError(f"unknown variant {variant!r}")


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
    printed_defects = []
    for n in range(3, max_n + 1):
        for p in range(1, max_p + 1):
            if _proposition_defect(n, p, n) != 0:
                failures.append(("main", n, p))
            d = _proposition_defect(n, p, n - 1)
            if d != 0:
                ok = d == beta_kp(n - 1, p)
                printed_defects.append((n, p, str(d), ok))
    variant_fail = {}
    for variant in ("printed", "corrected", "k1_endpoints", "full_convolution"):
        bad = [n for n in range(4, max_n + 1) if _quadratic_defect(n, variant) != 0]
        variant_fail[variant] = bad
    holding = sorted(v for v, bad in variant_fail.items() if not bad)
    report = {
        "suite": "proposition",
        "max_n": max_n,
        "max_p": max_p,
        "failures": failures[:5],
        "main_identity_middle_coefficient": "n (the printed n-1 variant fails)",
        "printed_variant_first_defects": [
            {"n": n, "p": p, "defect": d, "equals_beta_{n-1,p}": ok}
            for (n, p, d, ok) in printed_defects[:4]
        ],
        "printed_variant_defect_count": len(printed_defects),
        "quadratic_variants_holding": holding,
        "quadratic_variant_failures": {
            v: bad[:4] for v, bad in variant_fail.items() if bad
        },
        "pass": not failures
        and "corrected" in holding
        and "full_convolution" in holding,
    }
    return report
