"""Single-valued polylogarithms.

The weight-n function is the projection

    sv(n, z) = pi_n( sum_{k=0}^{n-1} beta_k Li_{n-k}(z) log^k|z| )

with pi_n keeping the real part for odd n and the imaginary part for even n,
and beta_k the exact coefficients from `exact`.  Weight 1 is -log|1-z|,
weight 2 is the Bloch-Wigner function times i.  Values lie in i^(n-1) R and
are continuous on C minus {0, 1} with limits sv(n, 0) = 0 and, for n >= 2,
sv(n, 1) = pi_n(zeta(n)).

Double precision (precision_bits <= 53) takes one of three routes by |z|:
  * |z| <= 1/2: the power series of Li_1 .. Li_n, each one loop that adds
    z^k/k^n until a term falls to eps times the sum (`_li_series`);
  * 1/2 < |z| <= 2: the log-expansion of Li_k(e^w) in w = log z, or of
    Li_k(-e^u) in u = log(-z) when Re z < 0 (D. C. Wood 1992, R. Crandall 2006);
  * |z| > 2: inversion, sv(n, z) = (-1)^(n-1) sv(n, 1/z) for n >= 2.
Where log^k|z| overflows a double (from weight 110 at |z| = 1e-300 or
1e300), or beta_k Li_j(z) of the series falls below the normal range
(`_normal_radius`: from weight 17 at |z| = 1e-300 or 1e300), the
high-precision route below gives the value at 53 bits; a value that
leaves the double range there raises OverflowError where `sv_polylog` or
`sv_state` would return it, never +-inf.  The log-expansion
and inversion routes set weight 1 to -log|1-z| in double; the series and
that fallback keep their own weight-1 value, which stays Re z to first
order where 1 - z rounds to 1.  The log-expansion tables are built once per
(weight, center) from integers alone, every entry one correctly rounded
int / int division: the rational entries from the exact layer, the
irrational heads, zeta(s) for s >= 2 and log 2, from integer series (see
`_expansion`), so the double routes never load mpmath.  High precision
(precision_bits > 53) evaluates the defining combination with mpmath,
imported where it is used, an int or a Fraction z at the working
precision; it is the certification oracle for the double routes.  Its
independent second route, RK4 transport of the differential system, lives
with the tests (`tests/oracles.py`); `ConvergenceError` stays here because
that transport and perfbench raise it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import List, Sequence

from .exact import beta, report_case, suite_report


class ConvergenceError(ArithmeticError):
    """Raised when step doubling fails to reach the requested tolerance
    (by the transport oracle of the tests and by perfbench)."""


# bound on |log z| over 1/2 < |z| <= 2, Re z >= 0, and on |log(-z)| over its mirror
_HALF_ANNULUS_RADIUS = 1.72
_PY_NUMBERS = (complex, float, int)
# the Li_n series reads float(k) ** n from a per-weight table for k <= 64
# (|z| <= 1/2 reaches 2^-53 within 49 terms) and computes it past the table,
# until k ** n leaves the double range
_SERIES_POWERS = 64
# the heads' integer series: Borwein's zeta series to _BORWEIN_TERMS terms
# leaves an error below 2^-200; each series is summed in _HEAD_BITS-bit
# fixed point
_BORWEIN_TERMS = 80
_HEAD_BITS = 256


@functools.lru_cache(maxsize=None)
def _betas_float(n: int) -> tuple:
    return tuple(float(beta(k)) for k in range(n + 1))


@functools.lru_cache(maxsize=None)
def _normal_radius(n: int) -> float:
    """2^-1022 / min |beta_k| over the beta_k, k < n, that are normal
    doubles: below this |z| some product beta_k Li_j(z) of the weight-n
    series route leaves the normal range.  (Past weight 620 the smallest
    beta_k are subnormal or zero as doubles, whatever z is.)"""
    return 2.0**-1022 / min(abs(b) for b in _betas_float(n)[:n] if abs(b) >= 2.0**-1022)


def pi_projection(n: int, w: complex) -> complex:
    """Keep Re for odd weight, i Im for even weight: a complex for a Python
    number, an mpc for an mpmath value."""
    if n < 1:
        raise ValueError("weight must be >= 1")
    if isinstance(w, _PY_NUMBERS):
        return complex(w.real, 0.0) if n % 2 else complex(0.0, w.imag)
    import mpmath as mp

    return mp.mpc(mp.re(w), 0) if n % 2 else mp.mpc(0, mp.im(w))


def li(n: int, z: complex, precision_bits: int = 53):
    """Polylogarithm by its power series; defined for |z| <= 1/2 only."""
    _check_argument("li", n, z, precision_bits)
    if not abs(z) <= 0.5:
        raise ValueError("li: series route requires |z| <= 1/2")
    if precision_bits <= 53:
        return _li_series(n, complex(z), 2.0 ** (-precision_bits))
    return _li_mp(n, z, precision_bits)


@functools.lru_cache(maxsize=None)
def _series_powers(n: int) -> tuple:
    """float(k) ** n for k = 0, 1, .. up to _SERIES_POWERS, stopping before
    the first that overflows: the Li_n series denominators."""
    powers = []
    for k in range(_SERIES_POWERS + 1):
        try:
            powers.append(float(k) ** n)
        except OverflowError:
            break
    return tuple(powers)


def _li_series(n: int, z: complex, eps: float) -> complex:
    powers = _series_powers(n)
    size = len(powers)
    total, zk = 0j, 1 + 0j
    for k in itertools.count(1):
        zk *= z
        try:
            term = zk / (powers[k] if k < size else float(k) ** n)
        except OverflowError:  # k ** n past the double range: later terms < eps
            return total
        total += term
        if abs(term) <= eps * (abs(total) + 1e-300):
            return total


def _li_mp(n: int, z, precision_bits: int):
    """Li_n(z) by its series at precision_bits + 12 working bits; z an mpc
    as it is, any other number built at that precision by `_mp_point`."""
    import mpmath as mp

    with mp.workprec(precision_bits + 12):
        if not isinstance(z, mp.mpc):
            z = _mp_point(z)
        total = mp.mpc(0)
        zk = mp.mpc(1)
        eps = mp.mpf(2) ** (-precision_bits - 6)
        for k in range(1, 200000):
            zk *= z
            term = zk / mp.mpf(k) ** n
            total += term
            if abs(term) <= eps * (abs(total) + mp.mpf("1e-600")):
                return +total
    raise ArithmeticError("mp series did not converge")


def _mp_fraction(q):
    """An int or a Fraction as an mpf at the working precision."""
    import mpmath as mp

    return mp.mpf(q.numerator) / q.denominator


def _mp_point(z):
    """z as an mpc at the working precision; an int or a Fraction, which
    mpmath does not take, through `_mp_fraction`."""
    import mpmath as mp

    return mp.mpc(_mp_fraction(z) if isinstance(z, (int, Fraction)) else z)


def _project(lis: Sequence, l0, betas: Sequence) -> list:
    """[sv(1) .. sv(n)] from Li_1 .. Li_n at z and l0 = log|z|."""
    return [
        pi_projection(m, sum(betas[k] * lis[m - k - 1] * l0**k for k in range(m)))
        for m in range(1, len(lis) + 1)
    ]


# ---------------------------------------------------------------------------
# double-precision evaluation


@functools.lru_cache(maxsize=None)
def _borwein_weights() -> tuple:
    """(d_n - d_k) 2^_HEAD_BITS for k < n = _BORWEIN_TERMS, and d_n, of
    Borwein's series: d_k = sum_{i <= k} u_i with u_0 = 1 and
    u_{i+1} = 4 u_i (n+i)(n-i) / ((2i+1)(2i+2)), an exact division."""
    n, u, d = _BORWEIN_TERMS, 1, [1]
    for i in range(n):
        u = 4 * u * (n + i) * (n - i) // ((2 * i + 1) * (2 * i + 2))
        d.append(d[-1] + u)
    return tuple((d[n] - dk) << _HEAD_BITS for dk in d[:n]), d[n]


@functools.lru_cache(maxsize=None)
def _zeta_head(s: int) -> tuple:
    """zeta(s), s >= 2, as the fixed-point quotient (num, den), within
    2^-200 of zeta(s).  Borwein's alternating series (An efficient algorithm
    for the Riemann zeta function, 2000):
    zeta(s) (1 - 2^(1-s)) d_n = sum_{k<n} (-1)^k (d_n - d_k) / (k+1)^s,
    each term truncated in fixed point."""
    weights, dn = _borwein_weights()
    total = sum((-w if k & 1 else w) // (k + 1) ** s for k, w in enumerate(weights))
    return total << (s - 1), (dn * ((1 << (s - 1)) - 1)) << _HEAD_BITS


@functools.lru_cache(maxsize=None)
def _log2_head() -> tuple:
    """log 2 = 2 atanh(1/3) = 2 sum_m 3^-(2m+1) / (2m+1), as (num, den)."""
    one, total, m, power = 1 << _HEAD_BITS, 0, 0, 3
    while one // power:
        total += one // ((2 * m + 1) * power)
        m, power = m + 1, power * 9
    return 2 * total, one


@functools.lru_cache(maxsize=None)
def _expansion(k: int, center: int) -> tuple:
    """Taylor coefficients c_j of Li_k(center * e^v) in v, cut where the
    tail drops below 1e-20 on |v| <= _HALF_ANNULUS_RADIUS.  Center 1:
    zeta(k-j)/j!, but H_{k-1}/(k-1)! at j = k-1, where Li_k also carries
    -v^(k-1)/(k-1)! log(-v).  Center -1: Li_{k-j}(-1)/j!, with
    Li_s(-1) = (2^(1-s) - 1) zeta(s) and Li_1(-1) = -log 2.

    Every entry is one correctly rounded int / int division, of num times
    the center factor by den j!, where num/den is exact for the rational
    entries: zeta(0) = -1/2, zeta(s) = -beta_{1-s} (-s)!/2^(1-s) for s < 0
    (that is -B_{1-s}/(1-s)) from the cached Fractions of `exact.beta`, and
    H_{k-1} at s = 1 about 1; and the integer heads for zeta(s), s >= 2
    (`_zeta_head`), and log 2 (`_log2_head`), within 2^-200."""
    out, fact = [], 1  # fact = j!
    for j in itertools.count():
        s, fact = k - j, fact * (j or 1)
        if s >= 2:
            num, den = _zeta_head(s)
            if center == -1:  # times 2^(1-s) - 1
                num, den = num * (1 - (1 << (s - 1))), den << (s - 1)
        elif s == 1 and center == -1:
            num, den = _log2_head()
            num = -num
        elif s == 1:
            h = sum(Fraction(1, i) for i in range(1, k))
            num, den = h.numerator, h.denominator
        elif s == 0:
            num, den = -1, 2
        else:
            b = beta(1 - s)
            num, den = -b.numerator * math.factorial(-s), b.denominator << (1 - s)
        if center == -1 and s < 1:
            num *= (1 << (1 - s)) - 1
        out.append(num / (den * fact))
        # past j = k the nonzero terms decay geometrically; zeros alternate
        if s < 0 and max(map(abs, out[-2:])) * _HALF_ANNULUS_RADIUS**j < 1e-20:
            return tuple(out[:-2])


def _annulus_state(n: int, z: complex) -> List[complex]:
    """Log-expansion route, 1/2 < |z| <= 2, about z = 1 if Re z >= 0, else
    about z = -1.  About 1, log(-v) and log(v) shift every Li_k by the same
    multiple i*pi of v^(k-1)/(k-1)!, the monodromy around 1, which pi_n
    annihilates; the branch with argument in [-pi/2, pi/2] keeps even weights
    accurate next to the real axis and the cut (1, oo) blind to signed zeros."""
    center = 1 if z.real >= 0.0 else -1
    v = cmath.log(z if center == 1 else -z)
    tables = [_expansion(k, center) for k in range(1, n + 1)]
    powers = [1 + 0j]
    for _ in range(max(map(len, tables)) - 1):
        powers.append(powers[-1] * v)
    lis = [sum(map(operator.mul, c, powers)) for c in tables]
    if center == 1:
        lv = cmath.log(v if v.real >= 0.0 else -v)
        lis = [li - lv * powers[k] / math.factorial(k) for k, li in enumerate(lis)]
    return _project(lis, v.real, _betas_float(n))


def _series_state(n: int, z: complex, l0: float) -> List[complex]:
    if abs(z) < _normal_radius(n):
        raise FloatingPointError("beta_k Li_j(z) underflows")
    lis = [_li_series(m, z, 2.0 ** -53) for m in range(1, n + 1)]
    return _project(lis, l0, _betas_float(n))


@functools.lru_cache(maxsize=8192)
def _sv_state_double(n: int, z: complex) -> tuple:
    """Values [sv(1,z) .. sv(n,z)] at double precision."""
    if z == 0:
        return (0j,) * n
    if z == 1:  # weight 1 diverges at z = 1; sv(m, 1) = zeta(m) for odd m
        heads = (operator.truediv(*_zeta_head(m)) if m % 2 else 0 for m in range(2, n + 1))
        return (None, *map(complex, heads))
    try:
        if abs(z) <= 0.5:
            return tuple(_series_state(n, z, math.log(abs(z))))
        if abs(z) <= 2.0:
            out = _annulus_state(n, z)
        else:  # log|1/z| from z itself: 1/z underflows to 0 near the overflow limit
            inverse = _series_state(n, 1 / z, -cmath.log(z).real)
            out = [v if m % 2 else -v for m, v in enumerate(inverse, 1)]
    except (OverflowError, FloatingPointError):  # a product out of range: the sum at 53 bits
        # complex() of a value past the double range is +-inf: the entry
        # points raise where the caller receives such a weight
        return tuple(complex(v) for v in _sv_state_mp(n, z, 53))
    out[0] = complex(-cmath.log(1 - z).real, 0.0)
    return tuple(out)


# ---------------------------------------------------------------------------
# high-precision evaluation


def _guard_bits(n: int, z) -> int:
    """Extra working bits for the defining sum at |z| > 1: its terms grow
    like log^n|z| while sv itself falls like 1/|z|, so the sum cancels about
    log2|z| + n log2(log|z|) bits.  Even weights next to the real axis fall
    faster, like |Im z|/|z|^2, which costs log2(|z|/|Im z|) bits more."""
    import mpmath as mp

    with mp.workprec(53):
        zz = _mp_point(z)
        r = abs(zz)
        if r <= 1:
            return 0
        bits = int(mp.ceil(mp.log(r, 2))) + n * int(mp.ceil(mp.log(mp.log(r) + 2, 2)))
        if zz.imag != 0:
            bits += int(mp.ceil(mp.log(r / abs(zz.imag), 2)))
        return bits


def _sv_state_mp(n: int, z: complex, precision_bits: int) -> list:
    import mpmath as mp

    with mp.workprec(precision_bits + 16 + _guard_bits(n, z)):
        zz = _mp_point(z)
        if zz == 0:
            return [mp.mpc(0)] * n
        betas = [_mp_fraction(beta(k)) for k in range(n)]
        if abs(zz) <= 0.5:
            lis = [_li_mp(m, zz, precision_bits) for m in range(1, n + 1)]
        else:
            lis = [mp.polylog(m, zz) for m in range(1, n + 1)]
        out = [+v for v in _project(lis, mp.log(abs(zz)), betas)]
        if zz.imag == 0:  # sv(n, conj z) = -sv(n, z) for even n: zero on the real axis
            out[1::2] = [mp.mpc(0)] * (n // 2)
        return out


# ---------------------------------------------------------------------------
# public entry points


def _check_argument(name: str, n: int, z, precision_bits: int = 53) -> None:
    if n < 1:
        raise ValueError("weight must be >= 1")
    if precision_bits < 1:
        raise ValueError("%s: precision_bits must be >= 1, got %s" % (name, precision_bits))
    # floats and complexes take cmath.isfinite, about 15 times cheaper than
    # mp.isfinite; an int or a Fraction is finite, and past the double range
    # where complex() overflows; mpmath values, which may lie beyond it, keep
    # mp.isfinite, and only they load mpmath
    beyond = False
    if isinstance(z, (complex, float)):
        finite = cmath.isfinite(z)
    elif isinstance(z, (int, Fraction)):
        finite = True
        if precision_bits <= 53:
            try:
                complex(z)
            except OverflowError:
                beyond = True
    else:
        import mpmath as mp

        finite = mp.isfinite(z)
        beyond = finite and precision_bits <= 53 and not cmath.isfinite(complex(z))
    if not finite:
        raise ValueError("%s: z must be finite, got %s" % (name, z))
    if beyond:
        raise ValueError("%s: z = %s is outside the double range; it needs "
                         "precision_bits > 53" % (name, z))
    if n == 1 and z == 1:
        raise ValueError("%s: weight 1 diverges at z = 1" % name)


def _past_double_range(m: int, z) -> OverflowError:
    return OverflowError("sv(%d, %s) is outside the double range; it needs "
                         "precision_bits > 53" % (m, z))


def sv_polylog(n: int, z: complex, precision_bits: int = 53):
    """Single-valued polylogarithm of weight n at z.

    Up to 53 bits the value is a double from the route that |z| picks
    (series, log-expansion or inversion), and OverflowError where that
    value is past the double range; above, an mpmath number from the
    defining combination at that precision.
    """
    _check_argument("sv_polylog", n, z, precision_bits)
    if precision_bits > 53:
        import mpmath as mp

        if z == 1:  # built at the working precision, which the caller's would round
            with mp.workprec(precision_bits + 12):
                return mp.mpc(mp.zeta(n) if n % 2 else 0, 0)
        return _sv_state_mp(n, z, precision_bits)[n - 1]
    v = _sv_state_double(n, complex(z))[n - 1]
    if cmath.isfinite(v):
        return v
    raise _past_double_range(n, z)


def sv_state(n: int, z: complex) -> tuple:
    """All weights 1..n at once (double route); the weight-1 slot is None at
    z = 1 for n >= 2.  Raises ValueError where sv_polylog does at 53 bits,
    and OverflowError, naming the first such weight, where one of the n
    values is past the double range."""
    _check_argument("sv_state", n, z)
    state = _sv_state_double(n, complex(z))
    for m, v in enumerate(state, 1):
        if v is not None and not cmath.isfinite(v):
            raise _past_double_range(m, z)
    return state


def clear_cache() -> None:
    _sv_state_double.cache_clear()


# ---------------------------------------------------------------------------
# symmetry suite


def _sample_points(rng, count, lo=0.15, hi=6.0):
    pts = []
    while len(pts) < count:
        r = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        z = r * cmath.exp(1j * phi)
        if abs(z) < lo or abs(z - 1) < 0.2:
            continue
        pts.append(z)
    return pts


def sv_polylog_check_symmetries(
    n: int, samples: int = 20, tol: float = 1e-8, seed: int = 0
) -> dict:
    """Numerical checks: inversion, conjugation, parity, and for n = 2 the
    five-term relation.  Returns a report dict with per-case defects."""
    import random

    if n < 2:  # L_1(1/z) = L_1(z) + log|z|: the weight-n inversion starts at 2
        raise ValueError("the symmetry checks run weights >= 2, got %d" % n)

    rng = random.Random(seed)
    sign = -1.0 if n % 2 == 0 else 1.0
    cases = []

    def record(name, defect):
        cases.append(report_case(name, bool(defect <= tol), float(defect), float(tol)))

    worst_inv = worst_conj = worst_par = 0.0
    for z in _sample_points(rng, samples):
        a = sv_polylog(n, z)
        worst_inv = max(worst_inv, abs(sv_polylog(n, 1.0 / z) - sign * a))
        worst_conj = max(worst_conj, abs(sv_polylog(n, z.conjugate()) - sign * a))
        worst_par = max(worst_par, abs(a - pi_projection(n, a)))
    record("inversion z -> 1/z", worst_inv)
    record("conjugation z -> conj z", worst_conj)
    record("parity (value in i^(n-1) R)", worst_par)

    if n == 2:
        worst5 = 0.0
        picked = 0
        while picked < samples:
            x = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            y = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            args = _five_term_args(x, y)
            if args is None:
                continue
            picked += 1
            total = sum(sv_polylog(2, w) for w in args)
            worst5 = max(worst5, abs(total))
        record("five-term relation", worst5)

    return suite_report("polylog-symmetries", cases, weight=n, samples=samples, seed=seed)


def _five_term_args(x: complex, y: complex):
    """The five arguments of the dilogarithm relation, or None if degenerate."""
    if abs(1 - x * y) < 0.05:
        return None
    args = [x, y, (1 - x) / (1 - x * y), 1 - x * y, (1 - y) / (1 - x * y)]
    for w in args:
        if abs(w) < 0.02 or abs(w - 1) < 0.02 or abs(w) > 60.0:
            return None
    return args
