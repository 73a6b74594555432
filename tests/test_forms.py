"""Forms: wedge algebra, derivatives, alternation, evaluation, grammar."""

import cmath
import contextlib
import hashlib
import io
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import alternation_bruteforce, collision_elements, form_record, form_variables
from oracles import fresh_form_key, numeric_d
from oracles import rf_dir_derivative, symbolic_elements, terms_at
from polyreg import forms as F
from polyreg import regulator as R
from polyreg.cli import LOOP_CASES, TOP_FAMILIES
from polyreg.funcfield import PoleError, one_minus, parse_function as pf
from polyreg.funcfield import _as_mapping, _compile
from polyreg.funcfield import rf_eval
from polyreg.polycomplex import bracket_tensor, delta, parse_element, pure_wedge, random_element
from polyreg.polylog import sv_state

T = pf("t")
OM = one_minus(T)
NON_FINITE = [float("nan"), float("inf"), complex(1, float("nan"))]


def rand_point(rng, lo=0.25, hi=3.0):
    while True:
        z = cmath.rect(
            math.exp(rng.uniform(math.log(lo), math.log(hi))),
            rng.uniform(0, 2 * math.pi),
        )
        if abs(z - 1) > 0.25:
            return z


class TestWedgeAlgebra:
    def test_square_dies(self):
        g = pf("g")
        assert F.dlog(g).wedge(F.dlog(g)).is_zero()

    def test_anticommutation(self):
        g, h = pf("g"), pf("h")
        a, b = F.diarg(g), F.dlog(h)
        assert a.wedge(b) == -(b.wedge(a))

    def test_scalar_slides_out(self):
        g, f, h = pf("g"), pf("f"), pf("h")
        lhs = F.log_abs(g).wedge(F.diarg(f)).wedge(F.diarg(h))
        rhs = F.log_abs(g).wedge(F.diarg(f).wedge(F.diarg(h)))
        assert lhs == rhs

    def test_associative_and_graded(self):
        rng = random.Random(1)
        pool = [F.dlog(pf(n)) for n in "fgh"] + [F.diarg(pf(n)) for n in "fgh"]
        for _ in range(15):
            a, b, c = rng.sample(pool, 3)
            assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
            assert a.wedge(b) == -(b.wedge(a))

    def test_degree_mismatch_add(self):
        with pytest.raises(ValueError):
            F.dlog(pf("g")) + F.log_abs(pf("g"))


class TestAlpha:
    def test_self_zero(self):
        f = pf("f")
        assert F.alpha(f, f).is_zero()

    def test_antisym(self):
        f, g = pf("f"), pf("g")
        assert F.alpha(f, g) == -F.alpha(g, f)

    def test_numeric_oracle(self):
        # alpha(1-t, t) at t = 2+i against v = 1, by direct arithmetic
        z = 2 + 1j
        got = F.evaluate(F.alpha(OM, T), z, [1])
        want = -math.log(abs(1 - z)) * (1 / z).real + math.log(abs(z)) * (
            -1 / (1 - z)
        ).real
        assert abs(got - want) < 1e-14


class TestSvPq:
    def test_p2_q1(self):
        f = pf("f")
        assert F.sv_pq(2, 1, f) == F.sv_scalar(2, f).wedge(F.dlog(f))

    def test_p1_q1(self):
        f = pf("f")
        assert F.sv_pq(1, 1, f) == F.alpha(one_minus(f), f)

    def test_p1_q3(self):
        f = pf("f")
        want = F.alpha(one_minus(f), f).wedge(F.log_abs(f)).wedge(F.log_abs(f))
        assert F.sv_pq(1, 3, f) == want

    def test_sv1_rewrites(self):
        f = pf("f")
        assert F.sv_scalar(1, f) == F.log_abs(one_minus(f), -1)


class TestExteriorDerivative:
    def test_log_times_diarg(self):
        g, h = pf("g"), pf("h")
        got = F.exterior_derivative(F.log_abs(g).wedge(F.diarg(h)))
        assert got == F.dlog(g).wedge(F.diarg(h))

    def test_sv2_display(self):
        f = pf("f")
        want = F.log_abs(one_minus(f), -1).wedge(F.diarg(f)) + F.log_abs(f).wedge(
            F.diarg(one_minus(f))
        )
        assert F.exterior_derivative(F.sv_scalar(2, f)) == want

    def test_sv3_display(self):
        f = pf("f")
        want = F.sv_scalar(2, f).wedge(F.diarg(f)) + F.sv_pq(1, 2, f) * Fraction(-1, 3)
        assert F.exterior_derivative(F.sv_scalar(3, f)) == want

    def test_closed_generators(self):
        g = pf("g")
        assert F.exterior_derivative(F.dlog(g)).is_zero()
        assert F.exterior_derivative(F.diarg(g)).is_zero()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_finite_differences(self, n):
        rng = random.Random(n)
        a = F.sv_scalar(n, T)
        da = F.exterior_derivative(a)
        worst = 0.0
        for _ in range(8):
            z = rand_point(rng)
            v = cmath.rect(1.0, rng.uniform(0, 2 * math.pi))
            sym = F.evaluate(da, z, [v])
            num = numeric_d(a, z, [v])
            worst = max(worst, abs(sym - num))
        assert worst < 1e-5, worst

    def test_d_squared_numeric_zero(self):
        # d of d is not the zero term list, but the pair relations kill it
        rng = random.Random(9)
        for n in (3, 4):
            dd = F.exterior_derivative(F.exterior_derivative(F.sv_scalar(n, T)))
            for _ in range(6):
                z = rand_point(rng)
                assert abs(F.evaluate(dd, z, [1, 1j])) < 1e-9


class TestPairRelations:
    def test_mixed_and_matched_wedges(self):
        # the two quadratic relations between f and 1-f that make the
        # chain-map defect cancel exactly
        rng = random.Random(3)
        mixed = F.dlog(OM).wedge(F.diarg(T)) - F.dlog(T).wedge(F.diarg(OM))
        matched = F.dlog(OM).wedge(F.dlog(T)) + F.diarg(OM).wedge(F.diarg(T))
        for _ in range(12):
            z = rand_point(rng)
            v, w = 1, cmath.exp(1j * rng.uniform(0.3, 2.8))
            assert abs(F.evaluate(mixed, z, [v, w])) < 1e-10
            assert abs(F.evaluate(matched, z, [v, w])) < 1e-10


class TestAlternation:
    def test_single_slot(self):
        g1 = pf("g1")
        assert F.weighted_alternation([g1], 1, True) == F.log_abs(g1)

    def test_two_slot_display(self):
        g1, g2 = pf("g1"), pf("g2")
        want = F.log_abs(g1).wedge(F.diarg(g2)) - F.log_abs(g2).wedge(F.diarg(g1))
        assert F.weighted_alternation([g1, g2], 1, True) == want

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_equals_bruteforce(self, m):
        gs = [pf("g%d" % i) for i in range(1, m + 1)]
        for split in range(0, m + 1):
            assert F.weighted_alternation(gs, split, False) == alternation_bruteforce(
                gs, split, False
            )
        for split in range(1, m + 1):
            assert F.weighted_alternation(gs, split, True) == alternation_bruteforce(
                gs, split, True
            )

    def test_built_with_its_weight(self):
        # terms built with c or -c merge to the alternation scaled by c,
        # where a repeated function kills or adds up terms too
        gs = [pf(text) for text in ("t", "1-t", "t+2", "t")]
        for prefixed in (False, True):
            degree = len(gs) - 1 if prefixed else len(gs)
            for split in range(prefixed, len(gs) + 1):
                for c in (1, -1, 3, Fraction(1, 3), Fraction(-2, 5)):
                    got = F._alternation_sum(gs, prefixed, [(split, c)])
                    want = F.weighted_alternation(gs, split, prefixed) * c
                    assert got.degree == want.degree == degree
                    assert [(t.key(), type(t.coefficient), t.coefficient) for t in got.terms] == [
                        (t.key(), type(t.coefficient), t.coefficient) for t in want.terms]

    def test_scaling_by_one_and_minus_one(self):
        a = F.parse_form("(1/3)*log(t)*dlog(1-t) - 2*dlog(t) + (4/3)*darg(t+2)")
        assert a * 1 is a and a * Fraction(1) is a
        for neg in (a * -1, a * Fraction(-1), -a):
            assert [(type(t.coefficient), t.coefficient) for t in neg.terms] == [
                (type(t.coefficient), -t.coefficient) for t in a.terms]

    def test_bad_pattern(self):
        with pytest.raises(ValueError):
            F.weighted_alternation([pf("g1")], 2, False)
        with pytest.raises(ValueError):
            F.weighted_alternation([pf("g1")], 0, True)


class TestEvaluate:
    def test_dlog_example(self):
        assert F.evaluate(F.dlog(T), 2, [1]) == 0.5

    def test_diarg_example(self):
        assert F.evaluate(F.diarg(T), 1j, [1]) == -1j

    def test_det_expansion(self):
        g = pf("(t-1)/(t+1)")
        a = F.dlog(g).wedge(F.diarg(g))
        z, v, w = 0.4 + 1.3j, 1, 0.3 + 0.8j
        got = F.evaluate(a, z, [v, w])

        def cov(kind, vec):
            d = (1 / (z - 1) - 1 / (z + 1)) * vec
            return complex(d.real, 0) if kind == "dlog" else complex(0, d.imag)

        want = cov("dlog", v) * cov("diarg", w) - cov("dlog", w) * cov("diarg", v)
        assert abs(got - want) < 1e-14

    def test_vector_count_enforced(self):
        with pytest.raises(ValueError):
            F.evaluate(F.dlog(T), 2, [])

    def test_genericity_guard(self):
        with pytest.raises(F.GenericityError):
            F.evaluate(F.log_abs(T), 0, [])
        with pytest.raises(F.GenericityError):
            F.evaluate(F.sv_scalar(2, T), 1 + 1e-9j, [])
        with pytest.raises(F.GenericityError):
            F.evaluate(F.log_abs(pf("1/t")), 1e-12, [])

    def test_a_constant_is_exact(self):
        # no point makes a constant non-generic: near 0 and at sv's 1 it is
        # valued, and only 0 itself is refused
        assert F.evaluate(F.log_abs(pf("1/10000000")), 0) == math.log(1e-7)
        assert F.evaluate(F.sv_scalar(2, pf("1")), 0) == 0j
        assert F.evaluate(F.dlog(pf("1/10000000")), 0, [1]) == 0j
        a = F.log_abs(pf("1/10000000")).wedge(F.dlog(T)) + F.sv_scalar(3, pf("1")).wedge(F.diarg(T))
        for x in (2, 0.3 + 0.2j):
            assert F.evaluate(a, x, [1j]) == naive_evaluate(a, x, [1j]) == reference_evaluate(
                a, x, [1j])
        for zero in (F.log_abs(pf("0")), F.sv_scalar(2, pf("0"))):
            with pytest.raises(F.GenericityError, match="function value too close to zero"):
                F.evaluate(zero, 0)
        with pytest.raises(F.GenericityError, match="function value too close to zero"):
            F.evaluate(F.dlog(pf("0")), 0, [1])

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    def test_non_finite_rejected(self, bad):
        xy = F.log_abs(pf("x")).wedge(F.dlog(pf("y")))
        calls = [
            lambda: F.evaluate(F.log_abs(T), bad),
            lambda: F.evaluate(F.dlog(T), 2, [bad]),
            lambda: F.evaluate(xy, {"x": 2, "y": bad}, [{"x": 1, "y": 1}]),
            lambda: F.evaluate(xy, (2, 1j), [(1, bad)]),
            lambda: numeric_d(F.log_abs(T), bad, [1]),
            lambda: numeric_d(F.log_abs(T), 2, [bad]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_scalar_value_route(self):
        z = 0.3 + 0.2j
        got = F.evaluate(F.sv_scalar(3, T), z, [])
        from polyreg.polylog import sv_polylog

        assert abs(got - sv_polylog(3, z)) < 1e-14


class TestNumericD:
    def test_log_slope(self):
        got = numeric_d(F.log_abs(T), 3, [1])
        assert abs(got - 1 / 3) < 1e-6

    def test_closed_one_form(self):
        assert abs(numeric_d(F.dlog(T), 2 + 1j, [1, 1j])) < 1e-6

    def test_multivariate(self):
        x, y = pf("x"), pf("y")
        a = F.log_abs(x).wedge(F.diarg(y))
        pt = {"x": 2 + 1j, "y": 1 - 1j}
        vs = [{"x": 1, "y": 0.5j}, {"x": 1j, "y": 0.2}]
        sym = F.evaluate(F.exterior_derivative(a), pt, vs)
        num = numeric_d(a, pt, vs)
        assert abs(sym - num) < 1e-8


class TestGrammar:
    def test_round_trip(self):
        f, g, h = pf("f"), pf("g"), pf("h")
        a = F.sv_scalar(2, f).wedge(F.diarg(f)) + F.sv_pq(1, 2, f) * Fraction(-1, 3)
        # format_form joins the generators of one term with '^'
        for b in (a, a.wedge(F.dlog(g)), a.wedge(F.dlog(g)).wedge(F.diarg(h))):
            assert F.parse_form(F.format_form(b)) == b, F.format_form(b)

    def test_zero(self):
        assert F.format_form(F.zero(1)) == "0"

    def test_tokens(self):
        a = F.parse_form("L3(t)*dlog(t)*darg(1-t)")
        want = F.sv_scalar(3, T).wedge(F.dlog(T)).wedge(F.diarg(OM))
        assert a == want

    def test_coefficients(self):
        a = F.parse_form("(1/3)*log(t)^2*dlog(t) - 2*darg(t)")
        want = F.log_abs(T).wedge(F.log_abs(T)).wedge(F.dlog(T)) * Fraction(
            1, 3
        ) + F.diarg(T, -2)
        assert a == want

    def test_alpha_call(self):
        assert F.parse_form("alpha(1-t, t)") == F.alpha(OM, T)

    def test_errors(self):
        for bad in ("", "log(t", "frob(t)", "log(t)*", "1/", "L3(t)^"):
            with pytest.raises(ValueError):
                F.parse_form(bad)

    def test_generator_power_is_wedge(self):
        assert F.parse_form("dlog(t)^2").is_zero()

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, seed, w):
        image = R.r_map(random_element(w, random.Random(seed)))
        for a in (image, F.exterior_derivative(image)):
            assert F.parse_form(F.format_form(a)) == a


class _ReferenceFormParser:
    """The form parser as it was before terms were built as raw triples: each
    factor is a Form, folded into the term with Form.wedge.  Kept as the
    reference the triple-building parser must reproduce."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.functions = {}

    def error(self, msg):
        raise ValueError("%s at offset %d in %r" % (msg, self.pos, self.text))

    def ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t·":
            self.pos += 1

    def peek(self):
        self.ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        lead = 1
        if self.peek() == "-":
            self.pos += 1
            lead = -1
        elif self.peek() == "+":
            self.pos += 1
        parts = [lead * self.term()]
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                parts.append(self.term())
            elif ch == "-":
                self.pos += 1
                parts.append((-1) * self.term())
            elif ch == "":
                break
            else:
                self.error("unexpected character %r" % ch)
        degree = next((p.degree for p in parts if p.terms), parts[-1].degree)
        return F.form(degree, [t for p in parts for t in p.terms])

    def term(self):
        out = self.factor()
        while True:
            ch = self.peek()
            if ch and ch in "*^":
                self.pos += 1
                out = out.wedge(self.factor())
            elif ch and (ch.isalnum() or ch == "("):
                out = out.wedge(self.factor())
            else:
                return out

    def factor(self):
        ch = self.peek()
        if ch == "(":
            save = self.pos
            self.pos += 1
            inner = self.peek()
            if inner.isdigit() or inner == "-":
                c = self.coeff()
                if self.peek() != ")":
                    self.error("expected ) after coefficient")
                self.pos += 1
                return F.scalar(c)
            self.pos = save
            self.error("unexpected (")
        if ch.isdigit():
            return F.scalar(self.coeff())
        if not ch.isalpha():
            self.error("expected a factor")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        name = self.text[start : self.pos]
        if self.peek() != "(":
            self.error("expected ( after %r" % name)
        args = self.call_args()
        out = self.build(name, args)
        if self.peek() == "^":
            save = self.pos
            self.pos += 1
            if self.peek().isdigit():
                power = self.coeff()
                if power.denominator != 1 or power < 1:
                    self.error("bad power")
                base = out
                for _ in range(int(power) - 1):
                    out = out.wedge(base)
            else:
                self.pos = save
        return out

    def call_args(self):
        assert self.peek() == "("
        self.pos += 1
        depth = 1
        start = self.pos
        args = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    args.append(self.text[start : self.pos])
                    self.pos += 1
                    return [a.strip() for a in args]
            elif ch == "," and depth == 1:
                args.append(self.text[start : self.pos])
                start = self.pos + 1
            self.pos += 1
        self.error("unbalanced parentheses in call")

    def function(self, text):
        f = self.functions.get(text)
        if f is None:
            f = self.functions[text] = pf(text)
        return f

    def build(self, name, args):
        fs = [self.function(a) for a in args]
        if name == "log" and len(fs) == 1:
            return F.log_abs(fs[0])
        if name == "dlog" and len(fs) == 1:
            return F.dlog(fs[0])
        if name == "darg" and len(fs) == 1:
            return F.diarg(fs[0])
        if name == "alpha" and len(fs) == 2:
            return F.alpha(fs[0], fs[1])
        if name.startswith("L") and name[1:].isdigit() and len(fs) == 1:
            return F.sv_scalar(int(name[1:]), fs[0])
        self.error("unknown call %s/%d" % (name, len(args)))

    def coeff(self):
        self.ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a number")
        num = int(self.text[start : self.pos])
        if self.peek() == "/":
            self.pos += 1
        else:
            return Fraction(num)
        self.ws()
        dstart = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if dstart == self.pos:
            self.error("expected a denominator")
        return Fraction(num, int(self.text[dstart : self.pos]))


def assert_parsed_as_reference(text):
    """parse_form and the reference agree on text: the same value, degree and
    printed text, or both raise ValueError."""
    try:
        want = _ReferenceFormParser(text).parse()
    except ValueError:
        with pytest.raises(ValueError):
            F.parse_form(text)
        return
    got = F.parse_form(text)
    assert got == want, text
    assert (got.degree, F.format_form(got)) == (want.degree, F.format_form(want)), text


HAND_TEXTS = [
    "alpha(1-t, t)", "alpha(t, t)", "alpha(t,t) + log(t)", "log(t) + alpha(t, t)",
    "alpha(t, 1+t)^2", "alpha(x, y)*alpha(y, x)", "alpha(t, 1-t)*log(t)^2*darg(t+2)",
    "L1(t)", "L1(1-t)*dlog(t)", "L2(t)^2*L1(t)", "L01(t)*darg(t)", "L3(t)*dlog(t)*darg(1-t)",
    "log(t)^3*dlog(t)", "log(t)^2/1*darg(t)", "dlog(t)^2", "dlog(t)^2 + log(t)",
    "0*dlog(t) + log(t)", "log(t) + 0*dlog(t)", "0*dlog(t) - 0*darg(t)", "0", "(0)*log(t)",
    "dlog(t)*darg(1-t) - darg(1-t)*dlog(t)", "darg(1-t)^dlog(t) + dlog(t)^darg(1-t)",
    "log(t) - log(t)", "-log(t) + log(t)*1", "+ log(t)", "- 2*L2(t)·darg(t)",
    "2^3*log(t)", "2 3 log(t)", "log(t)dlog(t)", "(-1/2)*L2(t)*darg(t) + (1/2)*L2(t)*darg(t)",
    "(1/3)*log(t)^2*dlog(t) - 2*darg(t)", "log(x*y)^2*dlog(x)^darg(y)",
    "log((t+1)/(t-2))*dlog(t+1) - log(1+t)*dlog(t+1)", "log(t)*log(1-t) - log(1-t)*log(t)",
    "alpha(x, 1-y)^2^alpha(y, x)", "alpha(t, 1-t)^3*log(t)", "2*alpha(x, y)^2*L2(x)^3",
    "dlog (t)", "log(t)^ 2", "log(t) ^2", "log(t)^02", "L02(t)", "(1/2)(1/3)log(t)",
    "log((t+1))", "log(((t+1)/(t-2)))", "alpha((t+1), (t-2))", "log(t)\t+ log(t)",
    "log(t)·dlog(t)", "log(é)",
]
MALFORMED_TEXTS = [
    "", "log(t", "frob(t)", "log(t)*", "1/", "L3(t)^", "L0(t)", "L(t)", "log(t, t)",
    "alpha(t)", "log(t)^0", "log(t)^3/2", "(log(t))", "dlog(t) - dlog(t) + log(t)",
    "log(t) + dlog(t)", "(- 3)*log(t)", "log(t) $", "log(t))", "(1/2", "log(t +)",
    "log_(t)", "log([t])", "log({t})", "alpha(t,(1,2))", "log(t,)", "log()", "Log(t)",
    "log(t)--log(t)", "log(t) + + log(t)", "L²(t)",
]


class TestParserAgainstReference:
    @pytest.mark.parametrize("text", HAND_TEXTS + MALFORMED_TEXTS)
    def test_hand_cases(self, text):
        assert_parsed_as_reference(text)

    def test_golden_forms(self):
        texts = [block["form"] for block in R._load_golden()]
        assert texts
        for text in texts:
            assert_parsed_as_reference(text)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_images(self, seed, w):
        e = random_element(w, random.Random(seed))
        image = R.r_map(e)
        for a in (image, F.exterior_derivative(image), R.r_map(delta(e))):
            assert_parsed_as_reference(F.format_form(a))

    def test_vanishing_power_stays_small(self, monkeypatch):
        # merged after each step, alpha(t, 1-t)^k keeps at most the 2 x 2
        # raw triples of its square; expanded in full it would build 2^k
        product = F._product

        def bounded(a, b):
            out = product(a, b)
            assert len(out) <= 4, "a power built %d raw triples" % len(out)
            return out

        monkeypatch.setattr(F, "_product", bounded)
        a = F.parse_form("alpha(t, 1-t)^22")
        assert a.is_zero() and a.degree == 22

    def test_vanishing_power_stops_early(self):
        # once the product vanishes, the factors left add only their degree
        started = time.perf_counter()
        a = F.parse_form("dlog(t)^1000000")
        assert a.is_zero() and a.degree == 10**6
        assert F.parse_form("alpha(t, 1-t)^1000000").degree == 10**6
        assert time.perf_counter() - started < 0.5

    def test_a_call_is_built_once_per_text(self):
        F._call.cache_clear()
        text = "log(t+7)*dlog(t+7) + 2*log(t+7)^2*dlog(t+7) - dlog(t+7)"
        assert F.parse_form(text) == F.parse_form(text) == _ReferenceFormParser(text).parse()
        info = F._call.cache_info()
        # log(t+7) and dlog(t+7), and log(t+7)^2, raised by Form.wedge and kept by its text
        assert (info.misses, info.currsize) == (3, 3)
        for _ in range(2):  # an error is raised again, with its position, and not kept
            with pytest.raises(ValueError, match="position 7: unknown call frob/1"):
                F.parse_form("frob(t)")
            with pytest.raises(ValueError, match=r"position 3: .* in 't \+'"):
                F.parse_form("log(t +)")
        assert F._call.cache_info().currsize == 3

    @given(st.lists(st.sampled_from([
        "log(t)", "log(1-t)", "dlog(t)", "darg(1-t)", "darg(x*y)", "alpha(t, 1-t)",
        "alpha(t, t)", "L1(t)", "L2(1/t)", "2", "(-1/3)", "0", "^2", "^", "*", " ",
        " + ", " - ", "(", ")", ",",
    ]), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_token_soup(self, tokens):
        assert_parsed_as_reference("".join(tokens))

    @pytest.mark.parametrize("text", ["1/0*log(t)", "(3/0)*dlog(t)", "log(t)^2/0",
                                      "log(1/(t-t))", "dlog((t-1)^-1/(1-1))"])
    def test_zero_denominator_is_a_usage_error(self, text):
        with pytest.raises(ValueError, match="offset|position"):
            F.parse_form(text)

    def test_a_weight_is_decimal_digits(self):
        # '²' is a digit to str.isdigit but not to int: it used to raise a
        # bare "invalid literal for int()" with no position
        with pytest.raises(ValueError, match=r"^parse error at position 5: unknown call L²/1"):
            F.parse_form("L²(t)")


def naive_evaluate(a, x, vectors, clearance=1e-6):
    """Term by term, each function, scalar, covector and determinant
    computed afresh: the reference the evaluation plans must reproduce."""
    names = form_variables(a)
    xm = _as_mapping(x, names)
    vms = [_as_mapping(v, names) for v in vectors]

    def value(g):
        try:
            val = rf_eval(g, xm, clearance=clearance)
        except PoleError as exc:
            raise F.GenericityError(str(exc))
        if abs(val) < clearance and (g.variables() or val == 0):  # a constant is exact
            raise F.GenericityError("function value too close to zero")
        return val

    def scalar(s):
        if s[0] == "log":
            return math.log(abs(value(s[1])))
        zf = value(s[2])
        if abs(zf - 1.0) < clearance and s[2].variables():
            raise F.GenericityError("sv argument too close to 1")
        return sv_state(s[1], zf)[s[1] - 1]

    def covector(kind, g, v):
        gval = value(g)
        w = rf_dir_derivative(g, xm, v) / gval
        return complex(w.real, 0.0) if kind == "dlog" else complex(0.0, w.imag)

    total = 0j
    for t in a.terms:
        val = complex(Fraction(t.coefficient))
        for s in t.scalars:
            val *= scalar(s)
        if t.generators:
            val *= F._det([[covector(k, g, v) for v in vms] for k, g in t.generators])
        total += val
    return total


def plan_cases():
    for w in range(3, 7):
        for label, e in R.standard_chain_elements(w):
            image = R.r_map(e)
            yield "w%d %s: r" % (w, label), image
            yield "w%d %s: d r" % (w, label), F.exterior_derivative(image)
            yield "w%d %s: r delta" % (w, label), R.r_map(delta(e))
    for family in TOP_FAMILIES:
        fs = [pf(text) for text in family.split(";")]
        yield "top %s: d r" % family, F.exterior_derivative(R.r_map(pure_wedge(fs)))


class TestPlanAgainstNaive:
    """Plans must reproduce the term-by-term evaluation bit for bit."""

    @pytest.mark.parametrize("label,a", list(plan_cases()), ids=lambda v: v if isinstance(v, str) else "")
    def test_bit_identical(self, label, a):
        rng = random.Random(label)
        plan = F._Plan((a,))
        names = plan.names
        for _ in range(3):
            x, (vs,) = R._draw(rng, names, plan.guarded, [a.degree])
            assert F.evaluate(a, x, vs) == naive_evaluate(a, x, vs)

    def test_no_state_between_points(self):
        e = R.standard_chain_elements(5)[1][1]
        a = F.exterior_derivative(R.r_map(e))
        rng = random.Random(5)
        plan = F._Plan((a,))
        names = plan.names
        samples = [R._draw(rng, names, plan.guarded, [a.degree]) for _ in range(3)]
        interleaved = [F.evaluate(a, x, vs) for _ in range(2) for x, (vs,) in samples]
        fresh = [F.evaluate(F.Form(a.degree, a.terms), x, vs) for x, (vs,) in samples]
        assert interleaved == fresh * 2

    @pytest.mark.parametrize(
        "last", ["L2(t+4)*dlog(t-2)", "L2(t+4)*dlog(1/(t-2))", "L2(t-1)*darg(t+5)"]
    )
    def test_guard_in_last_term_only(self, last):
        # at t = 2 only the last term's t-2, 1/(t-2) or sv argument t-1 is
        # degenerate
        a = F.parse_form("log(t+3)*dlog(t+5) + log(t+6)*dlog(t+7) + " + last)
        assert F.form(1, a.terms[-1:]) == F.parse_form(last)
        for x in (2, 2 + 1e-9j):
            with pytest.raises(F.GenericityError):
                naive_evaluate(a, x, [1])
            with pytest.raises(F.GenericityError):
                F.evaluate(a, x, [1])


def test_plan_kept_for_the_same_forms(monkeypatch):
    """A check keeps the one plan it samples by for the forms it evaluates;
    nothing is cached on a form, and evaluate_many builds a plan per call."""
    a, b = F.parse_form("log(t)*dlog(1-t)"), F.parse_form("L2(x)*darg(x+t)")
    plan = F._Plan((a, b))
    assert plan.names == ["t", "x"] and plan.degree == 1
    assert sorted(g.key() for g in plan.guarded) == sorted(
        pf(text).key() for text in ("t", "1-t", "x", "x+t", "1-x")
    )
    assert not hasattr(a, "_plan") and not hasattr(b, "_plan")
    # a chain check builds one plan for both sides, sampling included, and
    # one for the image
    built, init = [], F._Plan.__init__
    monkeypatch.setattr(F._Plan, "__init__",
                        lambda self, forms_: built.append(len(forms_)) or init(self, forms_))
    e = bracket_tensor(pf("(1-t)/(1+t)"), 2, [T])
    R.chain_check(e, R.RegulatorConfig(samples=2))
    assert built == [2, 1]
    built.clear()
    sample = ({"t": 0.3 + 0.2j, "x": 1.7 - 0.4j}, [[{"t": 1, "x": 1j}]])
    first = F.evaluate_many((a, b), [sample])
    assert F.evaluate_many((a, b), [sample]) == first and built == [2, 2]


class _ReferencePlan:
    """The one-form evaluation plan as it was before evaluation was batched,
    kept for `reference_evaluate`."""

    def __init__(self, a):
        self.names = form_variables(a)
        index = {}
        sv_arguments, generator_functions = set(), set()

        def fn(g, role=None):
            i = index.setdefault(g, len(index))
            if role is not None:
                role.add(i)
            return i

        scalars = {}
        generators = {}
        terms = []
        for t in a.terms:
            sidx = []
            for s in t.scalars:
                if s[0] == "log":
                    key = ("log", fn(s[1]))
                else:
                    key = ("sv", s[1], fn(s[2], sv_arguments))
                sidx.append(scalars.setdefault(key, len(scalars)))
            gidx = tuple(
                generators.setdefault((kind, fn(g, generator_functions)), len(generators))
                for kind, g in t.generators
            )
            terms.append((complex(Fraction(t.coefficient)), tuple(sidx), gidx))
        self.functions = tuple(
            (g, i in sv_arguments, i in generator_functions) for g, i in index.items()
        )
        self.scalars = tuple(scalars)
        self.generators = tuple(generators)
        self.terms = tuple(terms)


def reference_evaluate(a, x, vectors=()):
    """`forms.evaluate` as it was before evaluation was batched: one form,
    one frame, every table rebuilt per call, under the one genericity rule
    (a constant is exact: only 0 is refused).  Kept as the reference the
    batched core must reproduce bit for bit, exceptions included."""
    if len(vectors) != a.degree:
        raise ValueError("need exactly %d vectors" % a.degree)
    plan = _ReferencePlan(a)
    xm = _as_mapping(x, plan.names)
    vms = [_as_mapping(v, plan.names) for v in vectors]
    values = []
    ratios = []  # per function, per vector: Dg(x; v) / g(x), generators only
    for g, sv_argument, generator in plan.functions:
        num, den, _ = _compile(g, g.variables())
        xs = _reference_coords(g, xm)
        d = terms_at(den, xs)
        try:
            _reference_pole_guard(d, F._CLEARANCE, xm)
        except PoleError as exc:
            raise F.GenericityError(str(exc))
        n = terms_at(num, xs)
        val = n / d
        if not g.variables():  # a constant is exact: only 0 is refused
            if val == 0:
                raise F.GenericityError("function value too close to zero")
        elif abs(val) < F._CLEARANCE:
            raise F.GenericityError("function value too close to zero")
        elif sv_argument and abs(val - 1.0) < F._CLEARANCE:
            raise F.GenericityError("sv argument too close to 1")
        values.append(val)
        if not generator:
            ratios.append(None)
            continue
        _reference_pole_guard(d, 1e-12, xm)  # rf_dir_derivative's own guard
        slopes = list(zip(g.variables(), _reference_slopes(g, xs, n, d)))
        row = []
        for vm in vms:
            dg = 0j
            for name, slope in slopes:
                dg += slope * complex(vm.get(name, 0))
            row.append(dg / val)
        ratios.append(row)
    scalars = [
        math.log(abs(values[s[1]])) if s[0] == "log" else sv_state(s[1], values[s[2]])[s[1] - 1]
        for s in plan.scalars
    ]
    cov = [
        [complex(w.real, 0.0) if kind == "dlog" else complex(0.0, w.imag) for w in ratios[i]]
        for kind, i in plan.generators
    ]
    cols = tuple(range(len(vms)))
    memo = {}
    total = 0j
    for coeff, sidx, gidx in plan.terms:
        val = coeff
        for i in sidx:
            val *= scalars[i]
        if gidx:
            val *= _reference_minor(gidx, cols, cov, memo)
        total += val
    return total


def _reference_coords(g, point):
    return [complex(point[name]) for name in g.variables()]


def _reference_pole_guard(d, clearance, point):
    if abs(d) <= clearance:
        raise PoleError(f"denominator magnitude {abs(d):.3e} at {point}")
    return d


def _reference_slopes(g, xs, n, d):
    """The partials (dg/dx_j)(x), one per variable of g."""
    return [
        (terms_at(dn, xs) * d - n * terms_at(dd, xs)) / (d * d)
        for _, dn, dd in _compile(g, g.variables())[2]
    ]


def _reference_minor(rows, cols, cov, memo):
    """`forms._minor` as it was before evaluation was batched."""
    if len(rows) == 1:
        return cov[rows[0]][cols[0]]
    key = (rows, cols)
    out = memo.get(key)
    if out is not None:
        return out
    if len(rows) == 2:
        a, b = cov[rows[0]], cov[rows[1]]
        out = a[cols[0]] * b[cols[1]] - a[cols[1]] * b[cols[0]]
    else:
        out = 0j
        head, rest = cov[rows[0]], rows[1:]
        for j, c in enumerate(cols):
            if head[c] == 0:
                continue
            out += (-1) ** j * head[c] * _reference_minor(rest, cols[:j] + cols[j + 1 :], cov, memo)
    memo[key] = out
    return out


def reference_exterior_derivative(a):
    """`exterior_derivative` as it was before the differential of each
    distinct scalar was built once per call: one d per scalar occurrence,
    an sv scalar's by the direct builder `_d_sv`.  Kept as the reference for
    construction."""
    out = []
    for t in a.terms:
        for i, s in enumerate(t.scalars):
            rest = t.scalars[:i] + t.scalars[i + 1 :]
            ds = F._d_sv(s[1], s[2], ()) if s[0] == "sv" else F.dlog(s[1])
            for u in ds.terms:
                out += F._single(a.degree + 1, t.coefficient * u.coefficient,
                                 rest + u.scalars, u.generators + t.generators).terms
    return F.form(a.degree + 1, out)


class TestDerivativeAgainstReference:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_images(self, seed, w):
        e = random_element(w, random.Random(seed))
        image = R.r_map(e)
        for a in (image, F.exterior_derivative(image), R.r_map(delta(e))):
            got, want = F.exterior_derivative(a), reference_exterior_derivative(a)
            assert got == want
            assert (got.degree, F.format_form(got)) == (want.degree, F.format_form(want))


SV_ARGUMENTS = [T, OM, pf("1/2"), pf("(1-t)/(1+t)")]  # 1/2 = 1 - 1/2


class TestDerivativeFreeShape:
    """d sv(p, f) is the pullback of the free shape of `_d_sv` on (f, 1 - f);
    every d equals the reference's, which builds each scalar's d directly,
    term by term, coefficient types and text included."""

    @pytest.mark.parametrize("p", range(2, 9))
    def test_sv_scalar(self, p):
        for f in SV_ARGUMENTS:
            a = F.sv_scalar(p, f).wedge(F.log_abs(one_minus(f))).wedge(F.dlog(f))
            want = F._d_sv(p, f, ()).wedge(F.log_abs(one_minus(f))).wedge(F.dlog(f))
            want += F.sv_scalar(p, f).wedge(F.dlog(one_minus(f))).wedge(F.dlog(f))
            got = form_record(F.exterior_derivative(a))
            assert got == form_record(want) == form_record(reference_exterior_derivative(a)), f

    def test_images(self):
        elements = [random_element(w, random.Random(s)) for w in range(3, 9) for s in range(3)]
        for e in elements + collision_elements():
            image = R.r_map(e)
            got = F.exterior_derivative(image)
            assert form_record(got) == form_record(reference_exterior_derivative(image)), str(e)

    def test_reference_builds_directly(self, monkeypatch):
        a = R.r_map(bracket_tensor(T, 4, [pf("t+2")]))
        want = reference_exterior_derivative(a)

        def refuse(*args):
            raise AssertionError("pulled back from a free shape")

        monkeypatch.setattr(F, "_pullback", refuse)
        assert form_record(reference_exterior_derivative(a)) == form_record(want)
        with pytest.raises(AssertionError, match="free shape"):
            F.exterior_derivative(a)

    def test_a_changed_shape_fails_the_comparison(self, monkeypatch):
        a = F.sv_scalar(4, T)
        factors, ((c, sidx, gidx), *rest) = F._shape(F._d_sv, 4, 0)
        changed = (factors, ((c * 2, sidx, gidx), *rest))
        monkeypatch.setattr(F, "_shape", lambda build, n, m: changed)
        assert form_record(F.exterior_derivative(a)) != form_record(reference_exterior_derivative(a))


# sha256 of the texts of r(e), d r(e) and r(delta e), one per line, for the
# first 20 elements of the symbolic workload at seed 89
SYMBOLIC_TEXTS_SHA256 = "4d23c2153253bd060d38fbef6be98898fbe80e9503f662e3ad393f3a9fa5b602"


@pytest.fixture(scope="module")
def symbolic():
    return symbolic_elements(89, 20)


class TestSymbolicElements:
    def test_term_keys_as_freshly_keyed(self, symbolic):
        """Every term carries the key its factors give it keyed afresh, after
        each way of building terms: wedges, alternations and scalings (in
        r), d, a scaling, a wedge, weighted alternations and the parser."""
        for e in symbolic:
            image = R.r_map(e)
            built = [image, F.exterior_derivative(image), R.r_map(delta(e)),
                     image * Fraction(-2, 3), F.sv_scalar(3, T).wedge(image).wedge(F.diarg(OM))]
            gs = e.terms[0].wedge
            built += [F.weighted_alternation(gs, split, prefixed)
                      for prefixed in (False, True) for split in range(prefixed, len(gs) + 1)]
            built += [F.parse_form(F.format_form(a)) for a in built[:3]]
            for a in built:
                for t in a.terms:
                    assert t._key == fresh_form_key(t), F.format_term(t.coefficient, t)

    def test_texts_pinned(self, symbolic):
        texts = []
        for e in symbolic:
            image = R.r_map(e)
            texts += [F.format_form(image), F.format_form(F.exterior_derivative(image)),
                      F.format_form(R.r_map(delta(e)))]
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == SYMBOLIC_TEXTS_SHA256


def hexed(z):
    return z.real.hex(), z.imag.hex()


def outcome(call):
    """The exact bits of call()'s value, or the type and text of what it raised."""
    try:
        return "value", hexed(call())
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def assert_batch_as_reference(forms_, samples):
    """evaluate_many agrees bit for bit with reference_evaluate on every
    form, point and frame."""
    got = F.evaluate_many(forms_, samples)
    want = [
        [[hexed(reference_evaluate(a, x, vs)) for a in forms_] for vs in frames]
        for x, frames in samples
    ]
    assert [[[hexed(v) for v in per_form] for per_form in per_frame] for per_frame in got] == want


def chain_shapes():
    for w in range(3, 7):
        for label, e in R.standard_chain_elements(w):
            image = R.r_map(e)
            yield "w%d %s" % (w, label), image, F.exterior_derivative(image), R.r_map(delta(e))


def box_point(rng, names):
    return {n: complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for n in names}


class TestBatchedAgainstReference:
    """The batched core reproduces the one-form, one-frame evaluation it
    replaced, kept above as `reference_evaluate`, bit for bit."""

    @pytest.mark.parametrize(
        "label,image,lhs,rhs", list(chain_shapes()), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_chain_shapes(self, label, image, lhs, rhs):
        rng = random.Random(label)
        plan = F._Plan((lhs, rhs))
        names = plan.names
        draws = [R._draw(rng, names, plan.guarded, [lhs.degree] * 3 + [image.degree])
                 for _ in range(3)]
        assert_batch_as_reference((lhs, rhs), [(x, frames[:3]) for x, frames in draws])
        assert_batch_as_reference((image,), [(x, frames[3:]) for x, frames in draws])

    @pytest.mark.parametrize("family", TOP_FAMILIES)
    def test_top_families(self, family):
        fs = [pf(text) for text in family.split(";")]
        lhs = F.exterior_derivative(R.r_map(pure_wedge(fs)))
        rng = random.Random(family)
        plan = F._Plan((lhs,))
        names = plan.names
        functions = list(fs) + plan.guarded
        assert_batch_as_reference(
            (lhs,), [R._draw(rng, names, functions, [len(fs)] * 3) for _ in range(3)])

    # each id leads with the weight of the case's element
    @pytest.mark.parametrize("case", LOOP_CASES,
                             ids=lambda c: str((parse_element(c[0]).weight, *c)))
    def test_loop_nodes(self, case):
        text, at, sign = case
        image = R.r_map(parse_element(text))
        cfg = R.RegulatorConfig()
        center, m = complex(Fraction(at)), cfg.loop_nodes
        for eps in cfg.loop_radii:
            spokes = [cmath.rect(eps, sign * 2 * math.pi * j / m) for j in range(m)]
            assert_batch_as_reference(
                (image,), [(center + s, [[sign * 1j * s]]) for s in spokes]
            )

    @given(st.integers(0, 2**32 - 1), st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_random_images(self, seed, w):
        # box points, generic or not: values and raised errors must agree
        e = random_element(w, random.Random(seed))
        image = R.r_map(e)
        rng = random.Random(seed)
        for a in (image, F.exterior_derivative(image), R.r_map(delta(e))):
            names = form_variables(a)
            samples = [(box_point(rng, names), R._draw(rng, names, (), [a.degree] * 2)[1])
                       for _ in range(3)]
            want = []
            for x, frames in samples:
                want.append([outcome(lambda: reference_evaluate(a, x, vs)) for vs in frames])
                for vs, expected in zip(frames, want[-1]):
                    assert outcome(lambda: F.evaluate_many((a,), [(x, [vs])])[0][0][0]) == expected
                    assert outcome(lambda: F.evaluate(a, x, vs)) == expected
            if all(o[0] == "value" for row in want for o in row):
                assert_batch_as_reference((a,), samples)

    @pytest.mark.parametrize("text", [
        "log(t+3)*dlog(t+5) + log(t+6)*dlog(t-2)", "log(t+3)*dlog(1/(t-2))",
        "L2(t-1)*darg(t+5)", "log(t-2)", "L3(3-t)*log(t+1)", "log(x-2)*darg(y+x)",
        "log(x+y)*dlog(1/(x-2))^darg(y)",
    ])
    @pytest.mark.parametrize("offset", [0, 1e-9, 1e-9j, 1e-7 - 1e-7j, 1e-3])
    def test_degenerate_points_raise_as_reference(self, text, offset):
        # next to a pole, a zero or an sv argument at 1 (t = 2 or x = 2),
        # and just clear of them
        a = F.parse_form(text)
        names = form_variables(a)
        x = {n: 2 + offset if n in ("t", "x") else 0.5 + 1j for n in names}
        vs = [{n: 1.0 + 0.5j * k for n in names} for k in range(a.degree)]
        expected = outcome(lambda: reference_evaluate(a, x, vs))
        assert outcome(lambda: F.evaluate(a, x, vs)) == expected
        assert outcome(lambda: F.evaluate_many((a,), [(x, [vs])])[0][0][0]) == expected
        if offset in (0, 1e-9):
            assert issubclass(expected[0], F.GenericityError)


class TestBatchedInput:
    def test_frame_of_wrong_length(self):
        for frames in ([[]], [[1, 1j]], [[1], [1, 1j]]):
            with pytest.raises(ValueError, match="need exactly 1 vectors"):
                F.evaluate_many((F.dlog(T),), [(2, frames)])
        with pytest.raises(ValueError, match="need exactly 1 vectors"):
            F.evaluate_many((F.dlog(T),), [(2, [[1]]), (3, [[]])])

    def test_mixed_degree(self):
        with pytest.raises(ValueError, match="mixed degree"):
            F.evaluate_many((F.dlog(T), F.log_abs(T)), [(2, [[1]])])
        with pytest.raises(ValueError, match="at least one form"):
            F.evaluate_many((), [(2, [[1]])])

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    def test_non_finite_point_or_vector(self, bad):
        xy = F.log_abs(pf("x")).wedge(F.dlog(pf("y")))
        cases = [
            ((F.dlog(T),), [(bad, [[1]])]),
            ((F.dlog(T),), [(2, [[1], [bad]])]),
            ((F.dlog(T),), [(2, [[1]]), (bad, [[1]])]),
            ((xy, F.dlog(pf("x"))), [({"x": 2, "y": 1j}, [[{"x": 1, "y": bad}]])]),
            ((xy,), [((2, bad), [[(1, 1)]])]),
        ]
        for forms_, samples in cases:
            with pytest.raises(ValueError, match="finite"):
                F.evaluate_many(forms_, samples)

    def test_samples_and_frames_read_once(self):
        # one-shot iterators give what lists give
        samples = [(2, [[1], [1j]]), (1j, [[1]])]
        once = ((x, iter(frames)) for x, frames in samples)
        assert F.evaluate_many((F.dlog(T),), once) == F.evaluate_many((F.dlog(T),), samples)

    @pytest.mark.parametrize("text, small", [
        ("log(x*y/(x*y+1))", {"x": 1e-4, "y": 1e-4, "z": 1}),  # a value below the clearance
        ("log(1/(x*y-x*z))", {"x": 1, "y": 1, "z": 1 + 1e-8}),  # a denominator next to 0
    ])
    def test_nan_entry_before_a_guarded_one(self, text, small):
        # the first sample's column entry is NaN (inf / inf or inf - inf);
        # the guards still see the entry after it, as the reference does
        a = F.parse_form(text)
        samples = [({"x": 1e200, "y": 1e200, "z": 1e200}, [[]]), (small, [[]])]
        expected = batch_outcome(lambda: reference_many((a,), samples))
        assert issubclass(expected[0], F.GenericityError)
        assert batch_outcome(lambda: F.evaluate_many((a,), samples)) == expected

    def test_shape_of_the_result(self):
        got = F.evaluate_many((F.dlog(T), F.diarg(T)), [(2, [[1], [1j]]), (1j, [[1]])])
        assert got == [[[0.5, 0j], [0j, 0.5j]], [[0j, -1j]]]
        assert F.evaluate_many((F.scalar(3),), [(2, [[]])]) == [[[3 + 0j]]]


def reference_many(forms_, samples):
    """evaluate_many as the loop it replaced: one sample read and evaluated
    after another, each (frame, form) by reference_evaluate."""
    return [[[reference_evaluate(a, x, vs) for a in forms_] for vs in frames]
            for x, frames in samples]


def batch_outcome(call):
    """The exact bits of every value call() gives, or the type and text of
    what it raised."""
    try:
        return "value", [[[hexed(v) for v in per_form] for per_form in per_frame]
                         for per_frame in call()]
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


GENERIC = [(0.5 + 1j, [[1.0]]), (-1.5 - 0.25j, [[1j]]), (2.5 + 2j, [[0.5 - 1j]])]
ODD_SAMPLES = {  # one frame each, for "log(t^2+1)*dlog(1/(t-2)) + L2(t+4)*darg(t+5)"
    "pole": (2 + 1e-9j, [[1.0]]),
    "zero": (-5 + 1e-9, [[1.0]]),
    "sv at 1": (-3 + 1e-9j, [[1.0]]),
    "non-finite": (complex(1, float("nan")), [[1.0]]),
    "overflow": (1e200, [[1.0]]),
    "short frame": (0.5, [[]]),
}
UNREADABLE = {  # sample -> what reading it raises
    "non-finite": (ODD_SAMPLES["non-finite"], "coordinates must be finite, got (1+nanj)"),
    "missing": (({"x": 1}, [[1.0]]), "the point has no coordinate 't'"),
    "short frame": (ODD_SAMPLES["short frame"], "need exactly 1 vectors"),
}


class TestBatchesAgainstReference:
    """Batches of several samples raise or return what evaluating them one
    after another gives: the first failing sample raises its own error, and
    a sample that cannot be read raises only after the ones before it are
    evaluated."""

    A = F.parse_form("log(t^2+1)*dlog(1/(t-2)) + L2(t+4)*darg(t+5)")

    @pytest.mark.parametrize("first", sorted(ODD_SAMPLES))
    @pytest.mark.parametrize("second", sorted(ODD_SAMPLES))
    def test_two_odd_samples(self, first, second):
        samples = [GENERIC[0], ODD_SAMPLES[first], GENERIC[1], ODD_SAMPLES[second], GENERIC[2]]
        expected = batch_outcome(lambda: reference_many((self.A,), samples))
        assert expected[0] != "value"
        assert batch_outcome(lambda: F.evaluate_many((self.A,), samples)) == expected

    @pytest.mark.parametrize("unreadable", sorted(UNREADABLE))
    @pytest.mark.parametrize("degenerate_first", [True, False])
    def test_degenerate_and_unreadable(self, unreadable, degenerate_first):
        # the second sample degenerate and the third unreadable, and the reverse
        sample, text = UNREADABLE[unreadable]
        odd = [ODD_SAMPLES["zero"], sample]
        samples = [GENERIC[0]] + (odd if degenerate_first else odd[::-1])
        got = batch_outcome(lambda: F.evaluate_many((self.A,), samples))
        if degenerate_first:
            assert got == (F.GenericityError, "function value too close to zero")
        else:
            assert got == (ValueError, text)

    def test_later_sample_failing_at_an_earlier_function(self):
        # the batch meets the pole of the third sample (the first function)
        # before the zero of the second (a later one); the second raises
        samples = [GENERIC[0], ODD_SAMPLES["zero"], ODD_SAMPLES["pole"]]
        got = batch_outcome(lambda: F.evaluate_many((self.A,), samples))
        assert got == (F.GenericityError, "function value too close to zero")
        assert got == batch_outcome(lambda: reference_many((self.A,), samples))

    @pytest.mark.parametrize("label,image,lhs,rhs", list(chain_shapes())[::3],
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_mixed_frame_counts(self, label, image, lhs, rhs):
        rng, plan = random.Random(label), F._Plan((lhs, rhs))
        samples = [R._draw(rng, plan.names, plan.guarded, [lhs.degree] * count)
                   for count in (2, 0, 3, 1, 1)]
        got = batch_outcome(lambda: F.evaluate_many((lhs, rhs), samples))
        assert got[0] == "value" and [len(per_frame) for per_frame in got[1]] == [2, 0, 3, 1, 1]
        assert got == batch_outcome(lambda: reference_many((lhs, rhs), samples))


@pytest.mark.parametrize("odd", sorted(ODD_SAMPLES))
def test_frames_given_once_are_read_once(odd):
    """A failing batch is read again a sample at a time, and frames given
    as one-shot iterators give what the same frames as lists give."""
    A = TestBatchesAgainstReference.A
    samples = [GENERIC[0], ODD_SAMPLES[odd], GENERIC[1]]
    once = [(x, iter(frames)) for x, frames in samples]
    expected = batch_outcome(lambda: F.evaluate_many((A,), samples))
    assert expected[0] != "value"
    assert batch_outcome(lambda: F.evaluate_many((A,), once)) == expected


def test_all_pass_as_reference(monkeypatch):
    """`all --seed 89 --samples 1 --json` gives the same bytes when every
    form evaluation of the checks goes through reference_evaluate, one
    sample, frame and form at a time."""
    from polyreg import cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["all", "--seed", "89", "--samples", "1", "--json"]) == 0
        return out.getvalue()

    class ReferencePlan(F._Plan):
        """The check's plan, sampled by as built; evaluated by reference_many."""

        __slots__ = ("kept",)

        def __init__(self, forms_):
            super().__init__(forms_)
            self.kept = tuple(forms_)

        def evaluate(self, samples):
            used.append(len(self.kept))
            return reference_many(self.kept, samples)

    batched, used = run(), []
    monkeypatch.setattr(R, "_Plan", ReferencePlan)
    assert run() == batched and used
