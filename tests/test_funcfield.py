"""Function-field tests: canonical forms, evaluation, derivatives, valuations,
and the signed-combination core shared by chain elements and forms."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import BIG_POWER, polynomial_evaluate, reference_parse_function, reference_span
from oracles import reference_add, reference_embed, reference_layout, reference_mul
from oracles import reference_partial, rf_dir_derivative, value_and_partials
from polyreg import forms as F
from polyreg.funcfield import (
    PoleError,
    Polynomial,
    RationalFunction,
    Valuation,
    _compile,
    _dense_gcd,
    _FunctionParser,
    _evaluate,
    _evaluate_columns,
    _order_and_unit,
    const,
    one_minus,
    ord_at,
    parse_function,
    rf_eval,
    sort_signed,
    unit_part,
    var,
)
from polyreg.polycomplex import bracket_tensor, delta, pure_wedge, random_element
from polyreg.regulator import holomorphic_part, r_map, standard_chain_elements

t = var("t")


def test_one_minus():
    assert one_minus(t) == parse_function("1-t")


def test_field_axiom_inverse():
    f = parse_function("(t^2+1)/(t-1)")
    assert f * (const(1) / f) == const(1)


def test_cancellation_with_eval_certificate():
    f = parse_function("(t+1)/(t-1)")
    g = parse_function("(t-1)/(t+2)")
    h = f * g
    assert h == parse_function("(t+1)/(t+2)")
    rng = random.Random(11)
    for _ in range(5):
        z = complex(rng.uniform(2, 4), rng.uniform(1, 3))
        assert abs(rf_eval(h, z) - rf_eval(f, z) * rf_eval(g, z)) < 1e-12


def test_univariate_canonical_monic_gcd():
    f = parse_function("(2*t^2-2)/(4*t-4)")  # reduces to (t+1)/2
    assert str(f.den) == "1"
    assert f == parse_function("(t+1)/2")


@pytest.mark.parametrize(
    "text, value",
    [("(t+1)/(t+1)", 1), ("(2*t+2)/(t+1)", 2), ("(t-1)/(2-2*t)", Fraction(-1, 2)), ("(0*t)/t", 0)],
)
def test_constant_quotient_drops_its_variable(text, value):
    f = parse_function(text)
    assert f.variables() == () and f.is_constant()
    assert f.constant_value() == value
    assert f == const(value)
    assert (-f).variables() == ()
    if value:  # the constant-1 slot kills the wedge, as const(1) does
        assert pure_wedge([t, f]) == pure_wedge([t, const(value)])
        assert pure_wedge([t, f]).is_zero() == (value == 1)


def test_negation_keeps_the_constant_flag():
    for text in ("t", "(t+1)/(t-1)", "3", "(x*y)/(x+1)", "(t+1)/(t+1)", "(0*t)/t"):
        f = parse_function(text)
        assert (-(-f)).is_constant() == f.is_constant(), text
        assert -(-f) == f, text


def test_eval_examples():
    assert abs(rf_eval(parse_function("t^2+1"), 1j)) < 1e-15
    with pytest.raises(PoleError):
        rf_eval(parse_function("1/t"), 0)
    assert rf_eval(parse_function("(2+t)/(1+t)"), 1) == pytest.approx(1.5)


def test_dir_derivative_examples():
    assert rf_dir_derivative(parse_function("t^2"), 3, 1) == pytest.approx(6)
    assert rf_dir_derivative(const(7), {"_": 2.0}, {"_": 1.0}) == 0
    assert rf_dir_derivative(parse_function("1/t"), 2, 1) == pytest.approx(-0.25)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1, float("nan"))], ids=repr)
def test_non_finite_rejected(bad):
    square, xy = parse_function("t^2"), parse_function("x+y")
    calls = [
        lambda: rf_eval(t, bad),
        lambda: rf_eval(xy, {"x": 1, "y": bad}),
        lambda: rf_eval(xy, (bad, 1)),
        lambda: rf_dir_derivative(square, bad, 1),
        lambda: rf_dir_derivative(square, 2, bad),
        lambda: rf_dir_derivative(xy, {"x": 1, "y": 2}, {"x": bad, "y": 0}),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


def test_missing_coordinate_is_a_value_error():
    xy = parse_function("x+y")
    a = F.log_abs(xy)
    calls = [
        lambda: rf_eval(xy, {"x": 1}),
        lambda: F.evaluate(a, {"x": 1}),
        lambda: F.evaluate_many((a,), [({"x": 1}, [()])]),
        lambda: holomorphic_part([parse_function("x"), xy], {"x": 1}, [{"x": 1}, {"y": 1}]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="no coordinate 'y'"):
            call()


def test_a_coefficient_past_the_double_range_is_a_value_error():
    with pytest.raises(ValueError, match="a coefficient outside the double range in 1000"):
        rf_eval(parse_function("(10^400)*t"), 0.5)


def test_dir_derivative_vs_central_difference():
    rng = random.Random(5)
    fs = [
        parse_function("(t^2+1)/(t-1)"),
        parse_function("(t^3-2*t)/(t^2+3)"),
        parse_function("(x*y-1)/(x+y)"),
    ]
    for f in fs:
        names = f.variables()
        for _ in range(10):
            x = {n: complex(rng.uniform(2, 3), rng.uniform(1, 2)) for n in names}
            v = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in names}
            h = 1e-6
            plus = rf_eval(f, {n: x[n] + h * v[n] for n in names})
            minus = rf_eval(f, {n: x[n] - h * v[n] for n in names})
            fd = (plus - minus) / (2 * h)
            exact = rf_dir_derivative(f, x, v)
            assert abs(fd - exact) <= 1e-6 * (1 + abs(exact))


def test_compiled_matches_polynomial_evaluation():
    # the compiled term lists keep the term order of the term-by-term sum and
    # complex(Fraction) coefficients, so values agree bit for bit
    rng = random.Random(8)
    fs = [
        parse_function("(t^2+1)/(t-1)"),
        parse_function("(3*t^3-2*t)/(7*t^2+3)"),
        parse_function("(x*y-1/3)/(x+y)"),
        parse_function("(x^2*z-y)/(5*x-y*z+2)"),
        parse_function("(1/3-5*t+t^9/11-2/7*t^2+7*t^5)/(t^4/13+3*t^3-t-1/9)"),
        parse_function("(x^3*y/7-x*y^2+2/3*y^4-x+1/5)/(x^2+y^3/3-x*y+4)"),
        const(Fraction(2, 3)),
    ]
    for f in fs:
        names = f.variables()
        points = []
        for _ in range(5):
            x = {n: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for n in names}
            v = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in names}
            d, n = polynomial_evaluate(f.den, x), polynomial_evaluate(f.num, x)
            slope = 0j
            for name in names:
                dn = polynomial_evaluate(f.num.partial(name), x)
                dd = polynomial_evaluate(f.den.partial(name), x)
                slope += (dn * d - n * dd) / (d * d) * v[name]
            assert rf_eval(f, x) == n / d
            assert rf_dir_derivative(f, x, v) == slope
            points.append(x)
        # the columns over the five points hold each point's value and
        # partials, as the term-by-term reference and a batch of one give them
        compiled = _compile(f, names)
        cols = [[x[n] for x in points] for n in names]
        values, partials = _evaluate_columns(compiled, cols, 1e-12, points, True)
        for i, x in enumerate(points):
            value, slopes = _evaluate(compiled, [x[n] for n in names], 1e-12, x, True)
            got = bits([values[i]] + [col[i] for _, col in partials])
            assert got == bits([value] + [s for _, s in slopes])
            want, want_slopes = value_and_partials(f, x)
            assert got == bits([want] + want_slopes)
            assert [k for k, _ in partials] == [k for k, _ in slopes]


def bits(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


def test_column_pole_guard_names_the_first_point():
    f = parse_function("(t^2+1)/((t-1)*(t+2))")
    points = [{"t": 3}, {"t": 1 + 1e-14j}, {"t": -2}]
    with pytest.raises(PoleError) as exc:
        _evaluate_columns(_compile(f, ["t"]), [[3, 1 + 1e-14j, -2]], 1e-12, points)
    with pytest.raises(PoleError) as one:
        _evaluate(_compile(f, ["t"]), [1 + 1e-14j], 1e-12, points[1])
    assert str(exc.value) == str(one.value) and "1e-14j" in str(exc.value)


def test_ord_examples():
    v0 = Valuation.finite(0)
    assert ord_at(parse_function("t^3/(1+t)"), v0) == 3
    assert ord_at(t, Valuation.finite(1)) == 0
    assert ord_at(parse_function("(t^2+1)/t^5"), Valuation.infinity()) == 3


def test_unit_part_examples():
    v0 = Valuation.finite(0)
    assert unit_part(parse_function("t^2*(2+t)"), v0) == 2
    assert unit_part(parse_function("(2+t)/(1+t)"), v0) == 2
    assert unit_part(parse_function("t^3"), Valuation.infinity()) == 1


POOL = ["t", "1-t", "t+2", "(t-1)/(t+1)", "t^2", "(2+t)/(1+t)", "t-3", "2", "1/2"]
PLACES = [Valuation.finite(0), Valuation.finite(1), Valuation.finite(-1),
          Valuation.finite(Fraction(1, 2)), Valuation.infinity()]


@given(st.lists(st.sampled_from(POOL), min_size=2, max_size=4),
       st.sampled_from(range(len(PLACES))))
@settings(max_examples=80, deadline=None)
def test_ord_is_additive_and_unit_multiplicative(names, vi):
    v = PLACES[vi]
    fs = [parse_function(s) for s in names]
    prod = fs[0]
    for f in fs[1:]:
        prod = prod * f
    assert ord_at(prod, v) == sum(ord_at(f, v) for f in fs)
    u = Fraction(1)
    for f in fs:
        u *= unit_part(f, v)
    assert unit_part(prod, v) == u


def test_ord_ultrametric():
    v = Valuation.finite(0)
    f = parse_function("t^2")
    g = parse_function("t^3+t^2")
    assert ord_at(f + g, v) >= min(ord_at(f, v), ord_at(g, v))
    h = parse_function("t^5")
    assert ord_at(f + h, v) == min(ord_at(f, v), ord_at(h, v))  # distinct orders


def test_a_place_is_its_point():
    """Places compare, hash and print by their point, exact whatever its type."""
    assert Valuation.finite(2) == Valuation.finite(Fraction(2))
    assert hash(Valuation.finite(2)) == hash(Valuation.finite(Fraction(2)))
    assert Valuation.finite(0) != Valuation.infinity()
    assert Valuation.finite(0) != 0 and Valuation.finite(Fraction(1, 2)) != Fraction(1, 2)
    assert str(Valuation.infinity()) == "inf"
    assert str(Valuation.finite(Fraction(2, 4))) == "1/2"
    for point in (None, 0.5):
        with pytest.raises(TypeError):
            Valuation.finite(point)


def test_zero_function_errors():
    with pytest.raises(ValueError):
        ord_at(const(0), Valuation.finite(0))
    with pytest.raises(ZeroDivisionError):
        t / const(0)


def test_parser_precedence_and_errors():
    assert parse_function("1+2*t^2") == const(1) + const(2) * t * t
    assert parse_function("-t^2") == -(t * t)
    assert parse_function("(x*y - 1)/(x + y)").variables() == ("x", "y")
    with pytest.raises(ValueError):
        parse_function("t +")
    with pytest.raises(ValueError):
        parse_function("(t")
    with pytest.raises(ValueError):  # a parse error is raised again, not kept
        parse_function("(t")
    assert parse_function("t+1") is parse_function("t+1")  # interned by text
    assert parse_function(" t+1") == parse_function("t+1")


def test_zero_denominator_is_a_usage_error():
    for text in ("1/(t-t)", "1/0", "(t-t)^-2", "x/(y-y)*2"):
        with pytest.raises(ValueError, match="position"):
            parse_function(text)


def assert_function_as_reference(text):
    """parse_function and the reference agree on text: the same key and
    the same term order in numerator and denominator, or both raise
    ValueError."""
    try:
        want = reference_parse_function(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_function(text)
        return
    got = parse_function(text)
    assert got.key() == want.key(), text
    for a, b in ((got.num, want.num), (got.den, want.den)):
        assert list(a.terms) == list(b.terms), text


@pytest.mark.parametrize("text", [
    "1+2*t^2", "-t^2", "(x*y - 1)/(x + y)", "t +", "(t", "t ^ - 2", "t^--2", "t^ 2", "--t",
    "1 2", "t t", "2t", "_y1*y_1", "\tt\n", "t\xa0+ 1", "t²", "١+t", "()", "t)",
    "((t+1)*(t-1))", "1/(t-t)", "(t-t)^-2", "0^0", "t/0", "", " ", "x^10-1", "(t+1)^-1*(t+1)",
])
def test_parser_hand_cases_against_reference(text):
    assert_function_as_reference(text)


@given(st.lists(st.sampled_from([
    "t", "x", "y_1", "_z", "1", "2", "0", "10", "+", "-", "*", "/", "^", "(", ")", " ", "\t",
]), max_size=10))
@settings(max_examples=300, deadline=None)
def test_parser_token_soup_against_reference(tokens):
    text = "".join(tokens)
    assume(not BIG_POWER.search(text))
    assert_function_as_reference(text)


def _fresh_texts(f):
    """(key, str) of f as printed from its polynomials now."""
    num, den = str(f.num), str(f.den)
    key = "(%s)/(%s)" % (num, den)
    return key, num if f.den.is_constant() and f.den.constant_value() == 1 else key


_texts = st.sampled_from(["t", "1-t", "2*t+1", "(t^2-1)/(t-1)", "1/t", "3", "0", "-t^2",
                          "x*y", "(x+y)/(x-2*y)", "y"])


@given(_texts, _texts, st.data())
@settings(max_examples=100, deadline=None)
def test_key_and_text_as_freshly_printed(a, b, data):
    """key() and str() of the results of arithmetic, one_minus and negation
    equal the text printed from their polynomials, whichever is asked first."""
    f, g = parse_function(a), parse_function(b)
    if data.draw(st.booleans()):  # operands whose texts are already built
        f.key(), str(g)
    ops = [lambda: f + g, lambda: f - g, lambda: f * g, lambda: -f, lambda: -(-g),
           lambda: one_minus(f), lambda: one_minus(one_minus(g)), lambda: f ** 2]
    if not g.is_zero():
        ops.append(lambda: f / g)
    op = data.draw(st.sampled_from(ops))
    first, second = op(), op()
    assert (first.key(), str(first)) == _fresh_texts(first)
    assert str(second) == _fresh_texts(second)[1]
    assert second.key() == _fresh_texts(second)[0]
    assert first == second and hash(first) == hash(second)


@given(_texts, _texts, st.booleans())
@settings(max_examples=100, deadline=None)
def test_one_minus_kept_on_the_function(a, b, asked_first):
    """one_minus(f) is built once and kept on f, prints as 1 - f built
    afresh, gives f back when taken twice, and no result of arithmetic on f
    or g carries their 1 - f over."""
    f, g = parse_function(a), parse_function(b)
    if asked_first:
        one_minus(g)
    c = one_minus(f)
    assert one_minus(f) is c
    fresh = RationalFunction(f.den - f.num, f.den)
    assert (c.key(), str(c)) == (fresh.key(), str(fresh))
    assert one_minus(c) == f
    results = [-f, f + g, f * g, g - f] + ([f / g] if not g.is_zero() else [])
    for h in results:
        want = RationalFunction(h.den - h.num, h.den)
        assert (one_minus(h).key(), str(one_minus(h))) == (want.key(), str(want))


def test_multivariate_equality_by_cross_multiplication():
    f = parse_function("(x^2-y^2)/(x-y)")
    g = parse_function("x+y")
    assert f.equals(g)
    assert f != g  # canonical forms differ (no multivariate gcd)


def test_key_is_total_order_on_canonical_forms():
    fs = [parse_function(s) for s in POOL]
    keys = [f.key() for f in fs]
    assert len(set(keys)) == len(set(fs))
    assert sorted(keys) == sorted(keys, key=str)


# --- the Euclid route on Polynomial objects, kept as the reference -------------


def _ref_divmod(a, b):
    """Division with remainder of two polynomials in the variable t."""
    r, d = a._univariate_coeffs(), b._univariate_coeffs()
    q = [Fraction(0)] * max(len(r) - len(d) + 1, 0)
    while len(r) >= len(d) and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(d):
            break
        shift = len(r) - len(d)
        factor = Fraction(r[-1]) / d[-1]
        q[shift] = factor
        for i, c in enumerate(d):
            r[i + shift] -= factor * c
    return tuple(Polynomial(("t",), {(i,): c for i, c in enumerate(cs)}) for cs in (q, r))


def _ref_gcd(a, b):
    """A gcd of two polynomials in t by Euclid, not made monic."""
    while not b.is_zero():
        a, b = b, _ref_divmod(a, b)[1]
    return a


def _ref_canonical(num, den):
    """(num, den) of num/den, both over ("t",), in canonical form: the monic
    gcd by Euclid, both sides divided by it, then by the leading coefficient
    of the denominator.  Zero and constant quotients are not this route's."""
    f = RationalFunction(num, den)
    if f.is_zero() or f.variables() != ("t",):
        return f.num, f.den
    a = _ref_gcd(num, den)
    g = a * (Fraction(1) / a.leading()[1])
    num, den = _ref_divmod(num, g)[0], _ref_divmod(den, g)[0]
    lc = den.leading()[1]
    return num * (Fraction(1) / lc), den * (Fraction(1) / lc)


def _ref_order(p, a):
    """(multiplicity m of (t-a) in p, value at a of p / (t-a)^m)."""
    order = 0
    if p.variables:
        linear = Polynomial.variable("t") - Polynomial.constant(a, ("t",))
        while True:
            q, r = _ref_divmod(p, linear)
            if not r.is_zero():
                break
            p, order = q, order + 1
    return order, sum((c * a ** sum(e) for e, c in p.terms.items()), Fraction(0))


def _as_built(num, den):
    """Variables, terms in order, and key of num/den."""
    terms = (list(num.terms.items()), list(den.terms.items()))
    return num.variables, den.variables, terms, "(%s)/(%s)" % (num, den)


_linear = st.lists(st.sampled_from([0, 1, Fraction(1, 2), -2]), max_size=2)
_dense = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=1, max_size=3
)


@st.composite
def _polynomials(draw):
    """A product of (t - r) over rational roots r and a dense factor."""
    p = Polynomial(("t",), {(i,): c for i, c in enumerate(draw(_dense))})
    for r in draw(_linear):
        p = p * (Polynomial.variable("t") - r)
    return p


@given(_polynomials(), _polynomials(), _polynomials(), _polynomials(), _polynomials())
@settings(max_examples=100, deadline=None)
def test_canonical_forms_match_euclid_reference(a, b, common, c, d):
    """Quotients with common factors and constant denominators come out as the
    Euclid route on Polynomial objects builds them: same variables, terms in
    the same order, same key; and so do the field operations, one_minus,
    and the orders and unit parts at 0, 1, 1/2, -2, -3/5 and infinity (-2 a
    root the strategy draws, -3/5 a negative point with a denominator)."""
    assume(not (b * common).is_zero() and not d.is_zero())
    f = RationalFunction(a * common, b * common)
    g = RationalFunction(c, d)
    assert _as_built(f.num, f.den) == _as_built(*_ref_canonical(a * common, b * common))
    assert _as_built(g.num, g.den) == _as_built(*_ref_canonical(c, d))
    one = const(1)
    cases = [
        (-f, (-f.num, f.den)),
        (f + g, (f.num * g.den + g.num * f.den, f.den * g.den)),
        (f * g, (f.num * g.num, f.den * g.den)),
        (one_minus(f), (one.num * f.den - f.num * one.den, one.den * f.den)),
    ]
    if not g.is_zero():
        cases.append((f / g, (f.num * g.den, f.den * g.num)))
    for got, (num, den) in cases:
        assert _as_built(got.num, got.den) == _as_built(*_ref_canonical(num, den))
    for h in (f, g):
        if h.is_zero():
            continue
        for point in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(-3, 5)):
            (en, nv), (ed, dv) = _ref_order(h.num, point), _ref_order(h.den, point)
            v = Valuation.finite(point)
            want = (en - ed, Fraction(nv) / dv)
            assert (ord_at(h, v), unit_part(h, v)) == _order_and_unit(h, v) == want
        v = Valuation.infinity()
        want = (h.den.degree() - h.num.degree(), Fraction(h.num.leading()[1]) / h.den.leading()[1])
        assert (ord_at(h, v), unit_part(h, v)) == _order_and_unit(h, v) == want


@given(_polynomials(), _polynomials())
@settings(max_examples=100, deadline=None)
def test_dense_gcd_as_euclid_reference(a, b):
    assert _dense_gcd(a._univariate_coeffs(), b._univariate_coeffs()) == (
        _ref_gcd(a, b)._univariate_coeffs())


_SPARSE_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def _sparse(rng):
    """A polynomial over a subset of x, y, z whose terms use a subset of it
    (none: a constant), with up to four terms (none: zero) in drawn order."""
    names = tuple(sorted(rng.sample(("x", "y", "z"), rng.randint(0, 3))))
    used = [rng.random() < 0.7 for _ in names]
    return Polynomial(names, {tuple(rng.randint(0, 2) if u else 0 for u in used):
                              rng.choice(_SPARSE_COEFFS) for _ in range(rng.randint(0, 4))})


def _laid_out(p):
    """Variables, terms in order, and key of a polynomial."""
    return p.variables, list(p.terms.items()), str(p)


def test_layout_matches_the_two_step_reference():
    """RationalFunction(num, den) lays num and den out as the two steps of
    the reference do (into the union of their variables, then unused ones
    dropped), and sums, differences and products of polynomials as the
    union embedding does: same variables, terms in the same order, same
    key.  Evaluation sums terms in their order, so the order is part of
    every value: the multivariate twin of the Euclid reference above."""
    rng = random.Random(41)
    for _ in range(400):
        a, b = _sparse(rng), _sparse(rng)
        union = tuple(sorted(set(a.variables) | set(b.variables)))
        ua, ub = reference_embed(a, union), reference_embed(b, union)
        for got, want in ((a + b, ua + ub), (a - b, ua + (-ub)), (a * b, ua * ub)):
            assert _laid_out(got) == _laid_out(want)
        if not b.is_zero():
            got, want = RationalFunction(a, b), RationalFunction(*reference_layout(a, b))
            assert _as_built(got.num, got.den) == _as_built(want.num, want.den)


def _typed(p):
    """_laid_out, and the type of each coefficient in order."""
    return _laid_out(p), [type(c) for c in p.terms.values()]


def test_arithmetic_matches_the_term_by_term_reference():
    """Sums, differences, products and partials, whose raw values the
    constructor folds and whose zeros it drops, give the terms, in order and
    with their coefficient types, that folding and dropping term by term
    gives."""
    rng = random.Random(45)
    for _ in range(400):
        a, b = _sparse(rng), _sparse(rng)
        assert _typed(a + b) == _typed(reference_add(a, b))
        assert _typed(a - b) == _typed(reference_add(a, -b))
        assert _typed(a * b) == _typed(reference_mul(a, b))
        for v in ("x", "y", "z"):
            assert _typed(a.partial(v)) == _typed(reference_partial(a, v))


def test_arithmetic_check_finds_a_reordering_sum(monkeypatch):
    add = Polynomial.__add__

    def puts_new_terms_first(self, other):
        p = add(self, other)
        old = [e for e in p.terms if e in self.terms]
        order = sorted(p.terms, key=old.__contains__)
        return Polynomial(p.variables, {e: p.terms[e] for e in order})

    monkeypatch.setattr(Polynomial, "__add__", puts_new_terms_first)
    with pytest.raises(AssertionError):
        test_arithmetic_matches_the_term_by_term_reference()


def test_layout_check_finds_a_sorting_embed(monkeypatch):
    embed = Polynomial.embed

    def sorts_its_terms(self, variables):
        p = embed(self, variables)
        return p if p is self else Polynomial(p.variables, dict(sorted(p.terms.items())))

    monkeypatch.setattr(Polynomial, "embed", sorts_its_terms)
    with pytest.raises(AssertionError):
        test_layout_matches_the_two_step_reference()


@given(_polynomials(), _polynomials())
@settings(max_examples=60, deadline=None)
def test_places_are_kept_on_the_function(a, b):
    """A place's order and unit part, worked out on the first call, are kept
    on the function: the first and second calls, ord_at and unit_part all
    give the pair built from the Euclid route's orders of num and den."""
    assume(not a.is_zero() and not b.is_zero())
    h = RationalFunction(a, b)
    assert h._places is None  # nothing is kept before the first call
    for point in (0, 1, -1, Fraction(1, 2), -2, None):
        if point is None:
            want = (h.den.degree() - h.num.degree(),
                    Fraction(h.num.leading()[1]) / h.den.leading()[1])
        else:
            (en, nv), (ed, dv) = _ref_order(h.num, point), _ref_order(h.den, point)
            want = (en - ed, Fraction(nv) / dv)
        v = Valuation(point)
        assert _order_and_unit(h, v) == want and _order_and_unit(h, v) == want
        assert (ord_at(h, v), unit_part(h, v)) == want
    assert len(h._places) == 6


def test_places_keep_no_error():
    for f in (const(0), parse_function("x*y")):
        for v in (Valuation.finite(0), Valuation.infinity()):
            for ask in (_order_and_unit, _order_and_unit, ord_at, unit_part):
                with pytest.raises(ValueError):
                    ask(f, v)
        assert f._places is None


def test_constants_are_interned_by_value():
    """const gives the same function for the same value; a value that is not
    an exact rational is refused on every call."""
    assert const(2) is const(2) and const(Fraction(1, 2)) is const(Fraction(2, 4))
    assert const(Fraction(4, 2)) == const(2) and type(const(Fraction(4, 2)).constant_value()) is int
    assert const(2) is not const(3) and str(const(Fraction(-1, 2))) == "-1/2"
    for _ in range(2):
        with pytest.raises(TypeError, match="expected exact rational, got float"):
            const(0.5)


STOP_SETS = [",)", "}", "^+-", "*^+-"]  # the stops the three grammars pass to span


@given(st.text(st.sampled_from("(){}[],^+-*t1 "), max_size=16), st.integers(0, 16),
       st.sampled_from(STOP_SETS))
@example("[,]", 0, ",)")
@example("{}}", 0, "}")
@example("(^)+", 0, "^+-")
@example("][)", 0, ",)")  # a group that would close at depth 0
@settings(max_examples=300, deadline=None)
def test_span_as_its_old_loop(text, pos, stops):
    """span, a loop over single characters, returns the text and leaves the
    cursor where the running bracket balance of the reference ends, on
    bracket soups."""
    reader = _FunctionParser(text)
    reader.pos = pos = min(pos, len(text))
    assert (reader.span(stops), reader.pos) == reference_span(text, pos, stops)


def test_span_check_finds_a_broken_span(monkeypatch):
    def forgets_square_brackets(self, stops):  # reads them as blanks
        _, end = reference_span(self.text.replace("[", " ").replace("]", " "), self.pos, stops)
        start, self.pos = self.pos, end
        return self.text[start:end]

    monkeypatch.setattr(_FunctionParser, "span", forgets_square_brackets)
    with pytest.raises(AssertionError):
        test_span_as_its_old_loop()


@pytest.mark.parametrize("value", [0, 1, -1, 7, Fraction(-3, 4), Fraction(5, 2)])
def test_var_and_const_as_the_constructor_builds_them(value):
    value = Fraction(value)
    for name in ("t", "x2"):
        got, want = var(name), RationalFunction(Polynomial.variable(name), Polynomial.constant(1))
        assert _as_built(got.num, got.den) == _as_built(want.num, want.den)
    got = const(value)
    want = RationalFunction(
        Polynomial.constant(value.numerator), Polynomial.constant(value.denominator)
    )
    assert _as_built(got.num, got.den) == _as_built(want.num, want.den)


# --- exact rationals: ints where integral -------------------------------------


STANDARD_ELEMENTS = [e for w in range(3, 7) for _, e in standard_chain_elements(w)]


def _assert_exact(c):
    """c is an int when integral and a Fraction with denominator > 1 otherwise."""
    assert type(c) is int or type(c) is Fraction and c.denominator > 1, repr(c)


def _assert_exact_function(f):
    """The coefficients, contents and constant values of f's num, den and
    their partials, f's constant value and its unit parts at PLACES."""
    polys = [f.num, f.den]
    polys += [p.partial(name) for p in (f.num, f.den) for name in f.variables()]
    for p in polys:
        for c in p.terms.values():
            _assert_exact(c)
        _assert_exact(p.content())
        if p.is_constant():
            _assert_exact(p.constant_value())
    if f.is_constant():
        _assert_exact(f.constant_value())
    elif len(f.variables()) == 1:
        for v in PLACES:
            _assert_exact(unit_part(f, v))


@given(_polynomials(), _polynomials(), st.sampled_from(range(len(STANDARD_ELEMENTS))))
@settings(max_examples=60, deadline=None)
def test_exact_values_are_ints_where_integral(a, b, i):
    """Every exact value of funcfield is an int when integral and a Fraction
    otherwise, never a float, and so is every form coefficient: over the
    polynomial pools, the functions a standard chain element is parsed
    from, the functions its regulator form, d of that form, r of its delta
    and the form parsed back from the regulator form's text are built of,
    and their sums and products."""
    assume(not b.is_zero())
    e = STANDARD_ELEMENTS[i]
    f = RationalFunction(a, b)
    parsed = [g for t in e.terms for g in (t.argument, *t.wedge)]
    functions = {f, -f, one_minus(f), *parsed}
    functions.update(op(f, g) for g in parsed for op in (operator.add, operator.mul))
    image = r_map(e)
    for form in (image, F.exterior_derivative(image), r_map(delta(e)), F.parse_form(str(image))):
        for t in form.terms:
            _assert_exact(t.coefficient)
            functions.update(s[-1] for s in t.scalars)
            functions.update(g for _, g in t.generators)
    for p in (a, b, a * b, a - b):
        for c in p.terms.values():
            _assert_exact(c)
    for h in functions:
        _assert_exact_function(h)
    for v in PLACES[:-1]:
        _assert_exact(v.point)


# --- signed combinations ------------------------------------------------------


def test_sort_signed():
    assert sort_signed(()) == (1, (), ())
    assert sort_signed(zip((3, 1, 2), "cab")) == (1, (1, 2, 3), ("a", "b", "c"))
    assert sort_signed(zip((2, 1, 3), "bac")) == (-1, (1, 2, 3), ("a", "b", "c"))
    assert sort_signed(zip((2, 1, 2), "bab")) is None


def _chain_slots(t):
    """A chain term's wedge slots, and a builder of its bracket (or pure
    wedge) from slots in any order."""
    return t.wedge, lambda slots: (
        bracket_tensor(t.argument, t.depth, slots) if t.depth else pure_wedge(slots)
    )


def _form_slots(t):
    """A form term's generators, and a builder of their wedge in any order."""
    one = {"dlog": F.dlog, "diarg": F.diarg}
    return t.generators, lambda slots: F.wedge(*(one[k](g) for k, g in slots))


class TestCombinationLaws:
    """The laws `Combination` gives chain elements and their regulator forms."""

    @given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_laws(self, seed, w, data):
        rng = random.Random(seed)
        depth = rng.randint(2, w)
        ea, eb = (random_element(w, rng, depth=depth) for _ in range(2))
        ec = random_element(w + 1, rng)  # another grading: its zero equals a - a
        for a, b, c, slots_of in (
            (ea, eb, ec, _chain_slots),
            (r_map(ea), r_map(eb), r_map(ec), _form_slots),
        ):
            assert (a - a).is_zero()
            assert (a + b) - b == a
            assert 2 * a == a + a
            same = [a, (a + b) - b, 2 * a, a + a, a - a, b - b, 0 * a, 0 * c, b]
            for x in same:
                for y in same:
                    if x == y:
                        assert hash(x) == hash(y), str(x)
            slotted = [t for t in a.terms if len(slots_of(t)[0]) >= 2]
            if not slotted:
                continue
            slots, rebuild = slots_of(data.draw(st.sampled_from(slotted)))
            i, j = data.draw(st.lists(
                st.integers(0, len(slots) - 1), min_size=2, max_size=2, unique=True
            ))
            swapped = list(slots)
            swapped[i], swapped[j] = slots[j], slots[i]
            assert not rebuild(slots).is_zero()
            assert rebuild(swapped) == -rebuild(slots)
            repeated = list(slots)
            repeated[j] = slots[i]
            assert rebuild(repeated).is_zero()
