"""Single-valued polylog: frozen values, oracle cross-checks, symmetries.

The frozen constants below were produced once with mpmath at 120 bits
(li(2, 1/2) = pi^2/12 - log^2(2)/2, the weight-2 value at i is Catalan's
constant, the odd values at 1 are zeta values) and must never be edited to
make a failing run pass.
"""

import cmath
import hashlib
import itertools
import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polyreg import polylog as P
from polyreg.exact import bernoulli

LN2 = 0.6931471805599453
LI2_HALF = 0.5822405264650125
CATALAN = 0.9159655941772190
ZETA3 = 1.2020569031595943


def mp_oracle(n, z):
    """Independent reference: mpmath polylog combination at 130 bits."""
    return complex(P.sv_polylog(n, z, precision_bits=130))


def mp_oracle_state(n, z):
    """mp_oracle at weights 1..n from one defining sum at 130 bits, its
    guard bits those of weight n."""
    return [complex(v) for v in P._sv_state_mp(n, z, 130)]


class TestSeries:
    def test_frozen_values(self):
        assert abs(P.li(1, 0.5) - LN2) < 1e-15
        assert abs(P.li(2, 0.5) - LI2_HALF) < 1e-15

    def test_weight_one_is_log(self):
        for z in (0.3, -0.4 + 0.2j, 0.1 - 0.45j):
            assert abs(P.li(1, z) + cmath.log(1 - z)) < 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            P.li(2, 0.7)
        with pytest.raises(ValueError):
            P.li(0, 0.3)

    def test_high_precision_route(self):
        with mp.workprec(160):
            v = P.li(3, mp.mpf(1) / 3, precision_bits=150)
            w = mp.polylog(3, mp.mpf(1) / 3)
            assert abs(v - w) < mp.mpf(2) ** -140

    def test_high_precision_route_takes_a_fraction(self):
        # z is built at the working precision, not first rounded to 53 bits
        with mp.workprec(80):
            want = P.li(3, mp.mpf(1) / 3, precision_bits=80)
        got = P.li(3, Fraction(1, 3), precision_bits=80)
        rounded = P.li(3, 1 / 3, precision_bits=80)
        with mp.workprec(200):
            assert abs(got - want) < abs(want) * mp.mpf(2) ** -78
            assert abs(rounded - want) > abs(want) * mp.mpf(2) ** -60


class TestFrozenSpecials:
    def test_weight2_at_i(self):
        v = P.sv_polylog(2, 1j)
        assert abs(v - 1j * CATALAN) < 1e-14

    def test_weight3_at_one(self):
        assert abs(P.sv_polylog(3, 1) - ZETA3) < 1e-14

    def test_even_weight_at_one_vanishes(self):
        assert P.sv_polylog(2, 1) == 0
        assert P.sv_polylog(4, 1) == 0

    @pytest.mark.parametrize("bits", [60, 130, 300])
    def test_high_precision_at_one(self, bits):
        """sv(n, 1) at more than 53 bits keeps that many bits of zeta(n)."""
        for n in (3, 4, 7):
            v = P.sv_polylog(n, 1, precision_bits=bits)
            with mp.workprec(bits + 40):
                want = mp.zeta(n) if n % 2 else 0
                assert abs(v - want) <= mp.mpf(2) ** -bits, (n, bits)

    def test_zero_limit(self):
        for n in range(1, 6):
            assert P.sv_polylog(n, 0) == 0

    def test_weight1(self):
        assert abs(P.sv_polylog(1, 0.75) + math.log(0.25)) < 1e-14
        assert abs(P.sv_polylog(1, 3 + 4j) + math.log(abs(1 - (3 + 4j)))) < 1e-14
        with pytest.raises(ValueError):
            P.sv_polylog(1, 1)

    def test_weight2_vanishes_on_reals(self):
        # Bloch-Wigner is zero on the real line, including across the cut
        for x in (0.1, 0.45, 0.9, -2.0, 3.0):
            assert abs(P.sv_polylog(2, x)) < 1e-12


class TestOracleAgreement:
    # one 130-bit defining sum per point serves the weights of each test: on
    # their points its doubles equal mp_oracle(n, z) for each n, bit for bit

    def test_double_route_matches_mp_route(self):
        rng = random.Random(7)
        worst = 0.0
        for _ in range(12):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) < 0.1 or abs(z - 1) < 0.2:
                continue
            refs = mp_oracle_state(6, z)
            for n in range(2, 7):
                d = abs(P.sv_polylog(n, z) - refs[n - 1])
                worst = max(worst, d)
        assert worst < 5e-9, worst

    def test_direct_region_tight(self):
        rng = random.Random(11)
        for _ in range(10):
            z = cmath.rect(rng.uniform(0.05, 0.49), rng.uniform(0, 2 * math.pi))
            refs = mp_oracle_state(5, z)
            for n in range(1, 6):
                assert abs(P.sv_polylog(n, z) - refs[n - 1]) < 1e-13


def floored_error(value, ref, z):
    """|value - ref| relative to |ref| floored at min(1, |z|, 1/|z|), the
    size of sv next to 0 and infinity, so that zeros of sv (even weights on
    the real axis, the curves where a value changes sign) do not divide by
    almost nothing."""
    return abs(value - ref) / max(abs(ref), min(1.0, abs(z), 1.0 / abs(z)))


def seeded_points(seed, count):
    rng = random.Random(seed)
    phase = lambda: cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))  # noqa: E731
    regions = {
        "disc": lambda: 10 ** rng.uniform(-6.0, math.log10(0.5)) * phase(),
        "annulus": lambda: 2.0 ** rng.uniform(-1.0, 1.0) * phase(),
        "far": lambda: 10 ** rng.uniform(math.log10(2.0), 12.0) * phase(),
        "near-1": lambda: 1.0 + 10 ** rng.uniform(-8.0, -1.0) * phase(),
    }
    return [(name, draw()) for name, draw in regions.items() for _ in range(count)]


NAMED_POINTS = [1 + 1e-6j, 1 - 1e-8 + 1e-8j, 1e6 + 1j, 1e12j, 1e30 + 1j, 1e200 + 3e199j] + [
    complex(x, s) for x in (1.5, 1.999, 2.0, 3.0) for s in (0.0, -0.0)
] + [-2 + 0j, 4 + 1e-9j]


class TestAccuracy:
    """The default double route against the 130-bit oracle, weights 1-8."""

    def test_seeded_regions(self):
        # one 130-bit defining sum per point serves weights 1-8: on these 48
        # points its doubles equal mp_oracle(n, z) for each n, bit for bit
        bad = []
        for region, z in seeded_points(2024, 12):
            refs = mp_oracle_state(8, z)
            bad += [(region, n, z, err) for n in range(1, 9)
                    if (err := floored_error(P.sv_polylog(n, z), refs[n - 1], z)) > 1e-14]
        assert not bad, bad

    # the three tests below take all their weights from one 130-bit
    # defining sum per point: on their points its doubles equal
    # mp_oracle(n, z) for each n, bit for bit

    @pytest.mark.parametrize("z", NAMED_POINTS, ids=repr)
    def test_named_points(self, z):
        refs = mp_oracle_state(8, z)
        errs = [floored_error(P.sv_polylog(n, z), refs[n - 1], z) for n in range(1, 9)]
        assert max(errs) <= 1e-14, errs

    @pytest.mark.parametrize(
        "z", [1e100 + 1j, 1e30 + 1e-20j, 1e12 + 1e-3j, 1e200 + 3e199j], ids=repr
    )
    def test_oracle_next_to_real_axis(self, z):
        # even weights fall like |Im z|/|z|^2 here, far below the floor of
        # floored_error, so the oracle is held to a bare relative error
        refs = mp_oracle_state(6, z)
        for n in range(2, 7):
            ref = refs[n - 1]
            assert abs(P.sv_polylog(n, z) - ref) <= 1e-14 * abs(ref), (n, ref)

    @pytest.mark.parametrize("x", [1.5, 3.0, 1e12, 1e100])
    def test_oracle_on_real_axis(self, x):
        # sv(n, conj z) = -sv(n, z) for even n, so even weights vanish on
        # the real axis exactly; the oracle's cancelling sum must not leave
        # a residue there, and odd weights keep agreeing with the double route
        for z in (complex(x, 0.0), complex(x, -0.0)):
            for n in (2, 4, 6):
                assert P.sv_polylog(n, z, precision_bits=130) == 0, (n, z)
            refs = mp_oracle_state(7, z)
            for n in (1, 3, 5, 7):
                assert floored_error(P.sv_polylog(n, z), refs[n - 1], z) <= 1e-14, (n, z)

    @pytest.mark.parametrize("x", [1.5, 1.999, 2.0, 3.0])
    def test_cut_sides_agree(self, x):
        # sv is continuous across (1, oo); signed zeros must not pick sides
        for n in range(1, 9):
            above, below = P.sv_polylog(n, complex(x, 0.0)), P.sv_polylog(n, complex(x, -0.0))
            assert abs(above - below) <= 1e-15, (n, above, below)

    def test_extreme_finite_inputs(self):
        # |z| overflows to inf and 1/z underflows to 0, or z is subnormal
        for z in (complex(1e308, 1e308), complex(-1e308, 1e-300), 5e-324 + 0j):
            state = P.sv_state(6, z)
            assert all(cmath.isfinite(v) for v in state), (z, state)

    @pytest.mark.parametrize(
        "z", [float("nan"), complex(1, float("nan")), complex(float("inf"), 0), -1j * float("inf")]
    )
    def test_non_finite_rejected(self, z):
        with pytest.raises(ValueError, match="finite"):
            P.sv_polylog(3, z)
        with pytest.raises(ValueError, match="finite"):
            P.sv_polylog(3, z, precision_bits=130)
        with pytest.raises(ValueError, match="finite"):
            P.sv_state(3, z)


def polar(center, lo, hi):
    """center + 10^e e^(i phi), e in [lo, hi]."""
    return st.builds(
        lambda e, phi: center + 10**e * cmath.exp(1j * phi),
        st.floats(lo, hi),
        st.floats(0.0, 2.0 * math.pi),
    )


SYMMETRY_POINTS = st.one_of(
    polar(1, -8, -1),  # next to 1
    polar(0, -12, 12),  # |z| up to 1e12 and, inverted, down to 1e-12
    st.builds(complex, st.floats(1.0, 1e12, exclude_min=True), st.sampled_from([0.0, -0.0])),
)


class TestSymmetryProperties:
    """sv(n, 1/z) = sv(n, conj z) = (-1)^(n-1) sv(n, z), weights 2-8."""

    @given(SYMMETRY_POINTS)
    @settings(max_examples=150, deadline=None)
    def test_inversion(self, z):
        for n in range(2, 9):
            ref = (-1) ** (n - 1) * P.sv_polylog(n, z)
            assert floored_error(P.sv_polylog(n, 1 / z), ref, z) <= 2e-14, n

    @given(SYMMETRY_POINTS)
    @settings(max_examples=150, deadline=None)
    def test_conjugation(self, z):
        for n in range(2, 9):
            ref = (-1) ** (n - 1) * P.sv_polylog(n, z)
            assert floored_error(P.sv_polylog(n, z.conjugate()), ref, z) <= 2e-14, n


class TestPaths:
    def test_path_independence(self):
        rng = random.Random(3)
        worst = 0.0
        for _ in range(10):
            z = cmath.rect(rng.uniform(0.8, 5.0), rng.uniform(0, 2 * math.pi))
            if abs(z - 1) < 0.3:
                continue
            detour = 0.5 * (0.5 + z) + 0.9j * (z - 0.5) / abs(z - 0.5)
            if min(abs(detour), abs(detour - 1)) < 0.15:
                detour = 0.5 * (0.5 + z) - 0.9j * (z - 0.5) / abs(z - 0.5)
            for n in (2, 3, 4):
                a = P.sv_polylog(n, z)
                b = oracles.sv_transport(n, z, (detour,))
                worst = max(worst, abs(a - b))
        assert worst < 1e-8, worst

    def test_direct_vs_path_inside_disc(self):
        z = 0.42 - 0.21j  # |z| <= 1/2: the series route
        a = P.sv_polylog(3, z)
        b = oracles.sv_transport(3, z, (0.4 + 0.4j,))
        assert abs(a - b) < 1e-9

    def test_path_through_singularity_rejected(self):
        with pytest.raises(oracles.PathError):
            oracles.sv_transport(2, 3.0)  # straight through 1
        with pytest.raises(oracles.PathError):
            oracles.sv_transport(2, 2 + 2j, (1 + 0j,))


class TestSymmetries:
    def test_report_passes_n2(self):
        rep = P.sv_polylog_check_symmetries(2, samples=8, tol=1e-8, seed=5)
        assert rep["pass"], rep
        names = [c["input"] for c in rep["cases"]]
        assert "five-term relation" in names

    @pytest.mark.parametrize("n", [3, 4])
    def test_report_passes_higher(self, n):
        rep = P.sv_polylog_check_symmetries(n, samples=6, tol=1e-8, seed=5)
        assert rep["pass"], rep

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_refuses_weights_below_two(self, n):
        # the weight-1 inversion is L_1(1/z) = L_1(z) + log|z|, not the one checked
        with pytest.raises(ValueError, match="weights >= 2"):
            P.sv_polylog_check_symmetries(n, samples=1)

    def test_determinism(self):
        a = P.sv_polylog_check_symmetries(2, samples=4, tol=1e-8, seed=9)
        b = P.sv_polylog_check_symmetries(2, samples=4, tol=1e-8, seed=9)
        assert a == b

    def test_parity_structure(self):
        for n, z in ((2, 2.3 + 1j), (3, -0.7 + 0.4j), (4, 5 - 2j), (5, 0.2 + 0.1j)):
            v = P.sv_polylog(n, z)
            if n % 2:
                assert v.imag == 0.0
            else:
                assert v.real == 0.0


class TestDifferentialSystem:
    def test_rhs_matches_numeric_derivative(self):
        # d/ds sv(m, z0 + s v) at s=0 against the transported system
        betas = [float(b) for b in map(P.beta, range(7))]
        pts = [1.7 + 0.8j, -1.2 + 0.5j, 0.8 - 1.5j]
        dirs = [1 + 0j, 0.6 - 0.8j]
        h = 1e-5
        for z0 in pts:
            state = [P.sv_polylog(m, z0) for m in range(2, 7)]
            for v in dirs:
                rhs = oracles._rhs(6, betas, z0, v, state)
                for m in range(2, 7):
                    num = (
                        P.sv_polylog(m, z0 + h * v)
                        - P.sv_polylog(m, z0 - h * v)
                    ) / (2 * h)
                    assert abs(num - rhs[m - 2]) < 2e-6, (m, z0, v)


def test_sv_state_bundle():
    st = P.sv_state(4, 0.3 + 0.2j)
    for m in range(1, 5):
        assert st[m - 1] == P.sv_polylog(m, 0.3 + 0.2j)
    st1 = P.sv_state(3, 1)
    assert st1[0] is None and abs(st1[2] - ZETA3) < 1e-12


@pytest.mark.parametrize("n, z", [(0, 0.3), (-1, 0.3), (1, 1), (1, 1 + 0j), (1, 1.0)])
def test_sv_state_rejects_what_sv_polylog_rejects(n, z):
    for fn in (P.sv_polylog, P.sv_state):
        with pytest.raises(ValueError):
            fn(n, z)


def test_pi_projection():
    w = 1.25 - 0.5j
    assert P.pi_projection(3, w) == 1.25
    assert P.pi_projection(4, w) == -0.5j
    with pytest.raises(ValueError):
        P.pi_projection(0, w)
    # every Python number gives a complex, an mpmath value an mpc
    for n, x, want in [(1, 0.5, 0.5 + 0j), (2, 0.5, 0j), (3, 3, 3 + 0j), (2, 3, 0j)]:
        got = P.pi_projection(n, x)
        assert type(got) is complex and got == want, (n, x, got)
    assert isinstance(P.pi_projection(1, mp.mpf(0.5)), mp.mpc)


def _expansion_80bit(k, center):
    """The log-expansion table as first built: every entry an 80-bit mpmath
    value, zeta(s) for s <= 0 from Bernoulli numbers, one rounding to a
    double at the end; the same truncation rule."""

    def mp_fraction(q):
        return mp.mpf(q.numerator) / q.denominator

    out = []
    with mp.workprec(80):
        harmonic = mp_fraction(sum(Fraction(1, i) for i in range(1, k)))
        for j in itertools.count():
            s = k - j
            if s == 1:
                c = harmonic if center == 1 else -mp.log(2)
            else:
                if s >= 2:
                    with mp.workprec(65):
                        zeta = +mp.zeta(s)
                else:
                    zeta = mp_fraction(Fraction(-1, 2) if s == 0 else -bernoulli(1 - s) / (1 - s))
                c = zeta * (1 if center == 1 else mp.mpf(2) ** (1 - s) - 1)
            out.append(float(c / mp.factorial(j)))
            if s < 0 and max(map(abs, out[-2:])) * 1.72**j < 1e-20:
                return tuple(out[:-2])


def test_expansion_tables_pinned():
    """The integer-built tables equal the 80-bit ones bit for bit: same
    length, same sign, same float.hex of every entry."""
    P._expansion.cache_clear()
    for k in range(1, 31):
        for center in (1, -1):
            got = [x.hex() for x in P._expansion(k, center)]
            assert got == [x.hex() for x in _expansion_80bit(k, center)], (k, center)


def _mpf_value(x):
    """The exact value of an mpf."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _exact_heads():
    """zeta(2) .. zeta(60) and log 2 from mpmath at 400 bits, as Fractions."""
    with mp.workprec(400):
        return {s: _mpf_value(mp.zeta(s)) for s in range(2, 61)}, _mpf_value(mp.log(2))


def test_integer_heads_within_2_to_minus_200():
    """The integer heads num/den of zeta(s), s = 2..60, and of log 2 lie
    within 2^-200 of the value, relative."""
    zetas, log2 = _exact_heads()
    cases = [(P._zeta_head(s), zetas[s]) for s in range(2, 61)] + [(P._log2_head(), log2)]
    for (num, den), want in cases:
        assert abs(Fraction(num, den) - want) < want / 2**200, float(want)


def _expansion_reference(k, center, zetas, log2):
    """The log-expansion table with every entry an exact rational, or a
    400-bit zeta value or log 2 times one, rounded to a double once; the
    same truncation rule."""
    out = []
    for j in itertools.count():
        s = k - j
        if s == 1:
            c = sum(Fraction(1, i) for i in range(1, k)) if center == 1 else -log2
        else:
            if s >= 2:
                zeta = zetas[s]
            else:
                zeta = Fraction(-1, 2) if s == 0 else -bernoulli(1 - s) / (1 - s)
            c = zeta * (1 if center == 1 else Fraction(2) ** (1 - s) - 1)
        out.append(float(c / math.factorial(j)))
        if s < 0 and max(map(abs, out[-2:])) * 1.72**j < 1e-20:
            return tuple(out[:-2])


def test_expansion_tables_correctly_rounded():
    """Every entry of the tables for weights 1..60 is the correctly rounded
    double, those about 1 of weights 53..55 with zeta(53) = 1 + 2^-52 too."""
    zetas, log2 = _exact_heads()
    P._expansion.cache_clear()
    for k in range(1, 61):
        for center in (1, -1):
            got = [x.hex() for x in P._expansion(k, center)]
            want = [x.hex() for x in _expansion_reference(k, center, zetas, log2)]
            assert got == want, (k, center)


def test_sv_state_at_one_is_the_rounded_zeta():
    zetas, _ = _exact_heads()
    st = P.sv_state(60, 1)
    for m in range(3, 61, 2):
        assert _hex(st[m - 1]) == _hex(complex(float(zetas[m]))), m
    assert st[1::2] == (0j,) * 30
    assert P.sv_polylog(53, 1).real.hex() == "0x1.0000000000001p+0"


def test_sv_state_at_one_is_the_65_bit_zeta():
    st = P.sv_state(31, 1)
    for m in range(3, 32, 2):
        with mp.workprec(65):
            want = complex(+mp.zeta(m))
        assert _hex(st[m - 1]) == _hex(want), m
    assert st[1::2] == (0j,) * 15


@pytest.mark.parametrize("bits", [0, -10])
def test_precision_below_one_rejected(bits):
    with pytest.raises(ValueError, match="precision_bits must be >= 1"):
        P.li(2, 0.3, precision_bits=bits)
    with pytest.raises(ValueError, match="precision_bits must be >= 1"):
        P.sv_polylog(3, 0.3, precision_bits=bits)


def test_mpmath_point_outside_the_double_range():
    """An mpmath z beyond the double range is refused on the double route
    and evaluated above 53 bits: sv(3, z) ~ w (1 - log w + log^2 w / 3),
    w = 1/z."""
    for z in (mp.mpf("1e400"), mp.mpc("1e400", 1), mp.mpc(1, "-1e400")):
        with pytest.raises(ValueError, match="outside the double range"):
            P.sv_polylog(3, z)
        with pytest.raises(ValueError, match="outside the double range"):
            P.sv_state(3, z)
    z = mp.mpf("1e400")
    v = P.sv_polylog(3, z, precision_bits=80)
    with mp.workprec(80):
        w = 1 / z
        lw = mp.log(w)
        assert abs(v - w * (1 - lw + lw**2 / 3)) <= mp.mpf(2) ** -70 * abs(v)


@pytest.mark.parametrize("z", [10**400, -(10**400), Fraction(10**400, 3), Fraction(-(10**401), 7)],
                         ids=["int", "negative int", "Fraction", "negative Fraction"])
def test_exact_point_outside_the_double_range(z):
    """An int or a Fraction beyond the double range is refused on the double
    route as an mpmath value is, and evaluated above 53 bits:
    sv(3, z) ~ w (1 - log|w| + log^2|w| / 3) with w = 1/z, as at 1/z."""
    with pytest.raises(ValueError, match="outside the double range"):
        P.sv_polylog(3, z)
    with pytest.raises(ValueError, match="outside the double range"):
        P.sv_state(3, z)
    v = P.sv_polylog(3, z, precision_bits=80)
    inverse = P.sv_polylog(3, 1 / Fraction(z), precision_bits=80)
    with mp.workprec(80):
        w = mp.mpf(z.denominator) / z.numerator
        lw = mp.log(abs(w))
        assert abs(v - w * (1 - lw + lw**2 / 3)) <= mp.mpf(2) ** -70 * abs(v)
        assert abs(v - inverse) <= mp.mpf(2) ** -70 * abs(v)


def test_exact_points_in_range():
    """An int or a Fraction in the double range takes the double route at its
    correctly rounded value, and above 53 bits keeps the digits a double
    would lose."""
    for n, z in ((3, Fraction(1, 3)), (4, 7), (2, Fraction(-5, 2)), (5, Fraction(3, 10**300))):
        assert P.sv_polylog(n, z) == P.sv_polylog(n, complex(float(z)))
        assert P.sv_state(n, z) == P.sv_state(n, complex(float(z)))
    with mp.workprec(200):
        third = mp.mpf(1) / 3
    v = P.sv_polylog(3, Fraction(1, 3), precision_bits=130)
    assert abs(v - P.sv_polylog(3, third, precision_bits=130)) <= mp.mpf(2) ** -125 * abs(v)
    assert abs(v - P.sv_polylog(3, 1 / 3, precision_bits=130)) > mp.mpf(2) ** -60 * abs(v)
    assert P.sv_polylog(3, Fraction(1), precision_bits=130) == P.sv_polylog(3, 1, precision_bits=130)


def test_value_past_the_double_range_raises():
    """Where a value the caller receives leaves the double range, the 53-bit
    fallback raises OverflowError naming it, not +-inf: sv_polylog for its
    own weight, sv_state for the first of its n weights.  At
    2e-290 - 1e-291j the first weight past it is 259 (9.4e310 at 60 bits)."""
    z = 2e-290 - 1e-291j
    with pytest.raises(OverflowError, match=r"sv\(300, .*precision_bits > 53"):
        P.sv_polylog(300, z)
    with pytest.raises(OverflowError, match=r"sv\(259, .*precision_bits > 53"):
        P.sv_state(300, z)
    assert abs(P.sv_polylog(259, z, precision_bits=60)) > sys.float_info.max
    with pytest.raises(OverflowError, match=r"sv\(261, .*precision_bits > 53"):
        P.sv_state(400, 1e-300 + 1e-300j)


def test_value_in_range_beside_lower_weights_past_it():
    """A weight in the double range is returned though lower weights at the
    same point are past it (weight 261 at 1e-300): the even weight is 0 on
    the real axis, and just off it equals the 130-bit value."""
    assert P.sv_polylog(262, 1e-300) == 0j
    z = 1e-300 + 1e-320j
    assert P.sv_polylog(262, z) == complex(P.sv_polylog(262, z, precision_bits=130))
    with pytest.raises(OverflowError, match=r"sv\(261, "):
        P.sv_state(262, z)


def _li_series_reference(n, z, eps):
    """The Li_n series with float(k) ** n computed on every term."""
    total, zk = 0j, 1 + 0j
    for k in itertools.count(1):
        zk *= z
        term = zk / float(k) ** n
        total += term
        if abs(term) <= eps * (abs(total) + 1e-300):
            return total


def _hex(w):
    return (w.real.hex(), w.imag.hex())


def test_li_series_power_table_bit_identical():
    """The tabulated denominators, and the prefix summed without the stop
    test, give the reference series bit for bit: on the disc |z| <= 1/2,
    where the double routes call it, with |z| in [0.45, 0.5] where the
    prefix is longest, out to |z| = 0.97, at subnormal |z|, and with stop
    bounds from 2^-60 to 2^-1."""
    rng = random.Random(20)
    points = [0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), 0.5 + 0j, -0.5 + 0j]
    points += [cmath.rect(0.5, rng.uniform(-math.pi, math.pi)) for _ in range(40)]
    points += [cmath.rect(0.5 * rng.random(), rng.uniform(-math.pi, math.pi)) for _ in range(40)]
    points += [complex(x, s) for x in (0.25, -0.5, 0.5) for s in (0.0, -0.0)]
    points += [cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))
               for lo, hi, count in ((0.45, 0.5, 30), (0.5, 0.97, 12)) for _ in range(count)]
    points += [complex(x, s) for x in (0.97, -0.96875, 0.984375) for s in (0.0, 1e-310)]
    points += [5e-324 + 0j, complex(-1e-310, 2e-320), cmath.rect(2.0**-1030, 1.0)]
    for n in range(1, 10):
        for z in points:
            for eps in (2.0**-53, 2.0**-20, 2.0**-60, 2.0**-1):
                got = P._li_series(n, z, eps)
                assert _hex(got) == _hex(_li_series_reference(n, z, eps)), (n, z, eps)


def test_li_series_past_the_table():
    """Past the table the series gives the reference's value bit for bit.
    Where k ** n leaves the double range the reference raises, and the
    series returns its running total: every later term is below eps."""
    for n, z in ((1, 0.9 + 0j), (3, -0.95 + 0.1j), (200, 0.3 + 0j), (400, 0.5 + 0j)):
        assert _hex(P._li_series(n, z, 2.0**-53)) == _hex(_li_series_reference(n, z, 2.0**-53))
    assert len(P._series_powers(200)) == 35  # 35.0 ** 200 overflows
    with pytest.raises(OverflowError):  # 2.0 ** 2000 overflows
        _li_series_reference(2000, 0.5 + 0j, 2.0**-53)
    assert P._li_series(2000, 0.5 + 0j, 2.0**-53) == 0.5


# sha256 of the float.hex of sv_state(6, z) over _sweep_points(), pinned on
# the double routes as they stood before the Li_n series became one loop
SV_STATE_SHA256 = "b540258f8302556d34f727daf1cd6b4795f1b7a6c45e5d4ff1cd6802e421bf14"


def _sweep_points():
    """40 seeded points in each of the five regions of the sv-sweep
    benchmark: the disc |z| <= 1/2 and the annulus 1/2 < |z| <= 2, each
    uniform in area; |z| log-uniform on [2, 1e12]; |z - 1| log-uniform on
    [1e-8, 1e-2]; and the cut (1, 1e3], log-uniform, with either signed zero."""
    rng = random.Random(42)
    points = []
    for _ in range(40):
        phi = rng.uniform(-math.pi, math.pi)
        points += [cmath.rect(0.5 * math.sqrt(rng.random()), phi),
                   cmath.rect(math.sqrt(0.25 + 3.75 * rng.random()), phi),
                   cmath.rect(2.0 * 5e11 ** rng.random(), phi),
                   1.0 + cmath.rect(1e-8 * 1e6 ** rng.random(), phi),
                   complex(1e3 ** (1.0 - rng.random()), rng.choice((0.0, -0.0)))]
    return points


def _sv_state_digest():
    P.clear_cache()  # every value from its route, none from the cache
    try:
        lines = [" ".join("%s %s" % _hex(v) for v in P.sv_state(6, z)) for z in _sweep_points()]
    finally:
        P.clear_cache()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_double_routes_pinned():
    assert _sv_state_digest() == SV_STATE_SHA256


def test_double_route_pin_finds_a_series_one_term_short(monkeypatch):
    def one_term_short(n, z, eps):
        total, zk = 0j, 1 + 0j
        for k in itertools.count(1):
            zk *= z
            term = zk / float(k) ** n
            if abs(term) <= eps * (abs(total + term) + 1e-300):
                return total
            total += term

    monkeypatch.setattr(P, "_li_series", one_term_short)
    assert _sv_state_digest() != SV_STATE_SHA256


@pytest.mark.parametrize("bits, message", [
    (53, "li: z = %d is outside the double range; it needs precision_bits > 53" % 10**400),
    (200, "li: series route requires |z| <= 1/2")], ids=["double", "high-precision"])
def test_li_point_outside_the_double_range(bits, message):
    # both used to end in OverflowError: int too large to convert to float
    with pytest.raises(ValueError) as info:
        P.li(3, 10**400, precision_bits=bits)
    assert str(info.value) == message


# sv(1030, -0.45+0.1j) at 130 bits, from
#   PYTHONPATH=src python3 -c "from polyreg.polylog import sv_polylog;
#   print(complex(sv_polylog(1030, -0.45+0.1j, precision_bits=130)))"
# which takes 15 s on a 2-vCPU Xeon
SV_1030 = 0.1966747035704972j


def test_huge_weights_past_the_double_range():
    """Weights whose k ** n overflows at k = 2: li and sv_polylog return."""
    assert P.li(2000, 0.5) == 0.5
    assert P.sv_polylog(1100, 0.4) == 0  # even weight on the real axis
    got = P.sv_polylog(1030, -0.45 + 0.1j)
    assert abs(got - SV_1030) <= 1e-14 * abs(SV_1030), got


# where log^k|z| overflows a double: each value below equals the 130-bit route's
OVERFLOW_POINTS = [
    (120, 1e-300, 0j),  # even weight on the real axis
    (120, 1e-300 + 1e-300j, 4.501710367731513e-24j),
    (121, 1e-300 + 1e-300j, -2.174281628632698e-19),
]


@pytest.mark.parametrize("n, z, want", OVERFLOW_POINTS)
def test_log_powers_past_the_double_range(n, z, want):
    """The double routes overflow in log^k|z|, so sv_polylog and sv_state
    take the high-precision route at 53 bits, weight 1 included."""
    reference = complex(P.sv_polylog(n, z, precision_bits=130))
    assert P.sv_polylog(n, z) == reference == want
    state = P.sv_state(n, z)
    assert len(state) == n and state[-1] == reference
    assert state[0] == complex(P.sv_polylog(1, z, precision_bits=130))


# at the first two, beta_k Li_j of the series at z or (inversion) at 1/z leaves
# the normal range of a double from weight 17 on; the last two stay clear of it
UNDERFLOW_POINTS = [1e299 + 1e298j, 1e-299 + 1e-300j, 1e250 + 1e250j, 1e-200 + 1e-200j]


@pytest.mark.parametrize("z", UNDERFLOW_POINTS, ids=repr)
def test_no_silent_underflow(z):
    """At weights 10 to 60 the double value holds the 130-bit route's to
    1e-14 relative, and that route agrees with 400 bits; the weight-1 slot
    of the state is sv_polylog(1, z) on every route."""
    for n in (10, 20, 30, 40, 60):
        reference = P.sv_polylog(n, z, precision_bits=130)
        assert abs(reference - P.sv_polylog(n, z, precision_bits=400)) <= 1e-30 * abs(reference)
        reference = complex(reference)
        assert abs(P.sv_polylog(n, z) - reference) <= 1e-14 * abs(reference), n
        assert P.sv_state(n, z)[0] == P.sv_polylog(1, z), n


def test_seeded_points_far_from_the_unit_circle():
    """Six points with |z| = 10^(+-U(30, 300)) and a uniform phase: at
    weights 9 to 60 the double value holds the 130-bit route's to
    TestAccuracy's bound, and at weight 60 that route agrees with 400 bits.
    The 130-bit values come from one defining sum per point at weight 60,
    which gives sv_polylog(n, z, precision_bits=130) at these weights and
    points bit for bit."""
    rng = random.Random(2025)
    for _ in range(6):
        z = 10 ** (rng.choice((-1, 1)) * rng.uniform(30.0, 300.0))
        z *= cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        state = P._sv_state_mp(60, z, 130)
        fine = P.sv_polylog(60, z, precision_bits=400)
        assert abs(state[59] - fine) <= 1e-30 * abs(state[59]), z
        for n in (9, 20, 40, 60):
            assert floored_error(P.sv_polylog(n, z), complex(state[n - 1]), z) <= 1e-14, (n, z)
