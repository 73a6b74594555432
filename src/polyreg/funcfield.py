"""Exact rational-function fields Q(x_1,...,x_d).

Sparse polynomials over Q, rational functions in canonical form,
complex-point evaluation with pole clearance, exact partial derivatives, and
discrete-valuation data (order and unit part) at the places of Q(t).  A place
is its point: a rational a, or None for infinity.  Its order and unit part
are found together (`_order_and_unit`, at a by exact division by t - a) and
kept on f by point; `ord_at` and `unit_part` are its two parts.  This module
alone evaluates functions: each compiles once per layout of its variables on
a caller's slots, into complex term lists for num, den and their partials in
the order of each polynomial's terms, so values agree bit for bit with
summing the terms one by one (`polynomial_evaluate` in tests/oracles.py).
One evaluator, `_evaluate_columns`, gives values and partials behind one pole
guard as columns over a batch of points (form evaluation); `_evaluate` is its
batch of one (`rf_eval`, the samplers and holomorphic parts of `regulator`).

Exact rationals: every exact value here (a polynomial coefficient, a
constant value, a content, a unit part, the point of a place, a coefficient
of a `Combination`) is an int when integral and a Fraction only when its
denominator is not 1.  `_quo` does every exact division, `_times` scales a
coefficient (a factor of 1 or -1 copies or negates it), and Fraction results
that come out integral fold back to int (`_fold`), so integral arithmetic
runs at int speed.  Printing, keys, equality, hashes and complex
values are those of the equal Fraction.

Canonical forms: a univariate quotient is gcd-reduced with monic
denominator, so syntactic equality is mathematical equality.  Multivariate
quotients are only content-normalized (denominator primitive over Z with
positive leading coefficient in lex order); mathematical equality is decided
separately by cross-multiplication (`equals`).  `Polynomial.embed` lays num
and den out once over the sorted variables either uses (exponents read by
name, terms in order), so constants live over the empty variable tuple, and
so do zero and every univariate quotient that reduces to a constant.  The
univariate reduction runs on dense ascending coefficient lists: `_dense_gcd`
(Euclid) for a gcd, the exact quotients only when the gcd is not constant,
then division by the leading coefficient of the denominator.  Each exact
type has one constructor, which validates and folds what it builds once:
arithmetic hands it raw sums and products.  A function's key "(num)/(den)"
and its text are built together on first use, so intermediate results of
arithmetic and parsing are never printed, and `one_minus(f)` is built on
first use and kept on f (a result of arithmetic starts without it).

Text: the grammars of functions (`parse_function`), forms and chain elements
read through one cursor, `_Reader`, and keep only their rules.
`parse_function` keeps the last `_INTERNED` texts it parsed, and `const` as
many values: the same text or value gives the same function, which is safe as
a function is immutable and what it builds on first use (key, text, compiled
term lists, 1 - f, order and unit part per place) is derived from it alone.
Errors are never kept: a text that fails to parse, or a place where f has no
order, fails on each call.

Signed combinations: chain elements (`polycomplex`) and differential forms
(`forms`) are both combinations sum c_i * t_i of terms whose wedge part obeys
one rule.  `sort_signed` takes the wedge factors as (key, item) pairs, each
keyed once by its caller, puts them in key order by insertion, flips the
sign once per swap, and kills the term when two keys repeat.  `Combination`
keeps terms merged by key (coefficients of equal keys add up, zero ones
drop), sorted by key, and of one grading, and holds the ring operations,
equality, hashing and printing that both kinds of combination share.
"""

from __future__ import annotations

import cmath
import functools
import re
from fractions import Fraction
from math import gcd as _intgcd
from typing import Sequence

__all__ = [
    "Polynomial",
    "RationalFunction",
    "Valuation",
    "PoleError",
    "var",
    "const",
    "parse_function",
    "one_minus",
    "rf_eval",
    "ord_at",
    "unit_part",
    "sort_signed",
    "Combination",
]

_INTERNED = 512  # distinct texts parse_function keeps, and values const keeps


class PoleError(ArithmeticError):
    """Evaluation hit (or came within clearance of) a pole."""


def _exact(x) -> int | Fraction:
    """x as an exact rational: an int when integral, else a Fraction."""
    if isinstance(x, Fraction):
        return _fold(x)
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def _fold(c):
    """An exact rational with a Fraction of denominator 1 turned into its int."""
    return c.numerator if type(c) is not int and c.denominator == 1 else c


def _quo(a, b) -> int | Fraction:
    """a / b for exact rationals: the int quotient when the division is
    exact, else a Fraction (int / int is a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _fold(a / b)


def _times(a, c) -> int | Fraction:
    """a * c for exact rationals, with a copied or negated when c is 1 or -1."""
    return a if c == 1 else -a if c == -1 else a * c


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    terms maps exponent tuples (one slot per variable) to nonzero
    coefficients, each an int when integral and a Fraction otherwise; the
    constructor, the one way to build a polynomial, checks and folds each
    once and drops zero ones in first-seen order (the order of evaluation),
    so `+`, `*` and `partial` hand it raw sums and products.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        self.terms = clean = {}
        width = len(self.variables)
        for expo, coeff in terms.items():
            coeff = _exact(coeff)
            if coeff == 0:
                continue
            expo = tuple(expo)
            if len(expo) != width:
                raise ValueError("exponent width mismatch")
            clean[expo] = coeff

    # --- constructors -------------------------------------------------
    @staticmethod
    def constant(value, variables=()) -> "Polynomial":
        variables = tuple(variables)
        return Polynomial(variables, {(0,) * len(variables): value})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial((name,), {(1,): 1})

    # --- structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in expo) for expo in self.terms)

    def constant_value(self) -> int | Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()), 0)

    def used_variables(self) -> tuple:
        used = set()
        for expo in self.terms:
            for i, e in enumerate(expo):
                if e:
                    used.add(self.variables[i])
        return tuple(sorted(used))

    def embed(self, variables) -> "Polynomial":
        """Reexpress over a sorted tuple holding every variable used here: each
        exponent is read by name, unused variables drop, terms keep their order."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        width = len(self.variables)  # the slot of the 0 appended to each exponent
        src = [self.variables.index(v) if v in self.variables else width for v in variables]
        return Polynomial(variables, {
            tuple(map((expo + (0,)).__getitem__, src)): c for expo, c in self.terms.items()})

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self):
        """(exponent, coefficient) of the lex-largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        expo = max(self.terms)
        return expo, self.terms[expo]

    def content(self) -> int | Fraction:
        """Positive rational c with self/c integer-coefficient, coprime."""
        if not self.terms:
            return 1
        num = 0
        den = 1
        for c in self.terms.values():
            num = _intgcd(num, abs(c.numerator))
            den = den * c.denominator // _intgcd(den, c.denominator)
        return _quo(num, den)

    # --- arithmetic -----------------------------------------------------
    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.variables)
        if self.variables == other.variables:
            return self, other
        union = tuple(sorted(set(self.variables) | set(other.variables)))
        return self.embed(union), other.embed(union)

    def __add__(self, other):
        a, b = self._pair(other)
        terms = dict(a.terms)
        for expo, coeff in b.terms.items():
            terms[expo] = terms.get(expo, 0) + coeff
        return Polynomial(a.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                expo = tuple(x + y for x, y in zip(e1, e2))
                terms[expo] = terms.get(expo, 0) + c1 * c2
        return Polynomial(a.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power on Polynomial")
        result = Polynomial.constant(1, self.variables)
        base = self
        while k:  # square and multiply
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._pair(other)
        return a.terms == b.terms

    # --- univariate helpers ---------------------------------------------
    def _univariate_coeffs(self):
        """Dense coefficient list, ascending degree (univariate only)."""
        if len(self.variables) > 1:
            raise ValueError("univariate operation on multivariate polynomial")
        if not self.variables:
            return [self.constant_value()] if self.terms else []
        deg = max((e[0] for e in self.terms), default=-1)
        out = [0] * (deg + 1)
        for (e,), c in self.terms.items():
            out[e] = c
        return out

    def partial(self, name: str) -> "Polynomial":
        if name not in self.variables:
            return Polynomial(self.variables, {})
        i = self.variables.index(name)
        terms = {}
        for expo, coeff in self.terms.items():
            if expo[i] == 0:
                continue
            new = list(expo)
            new[i] -= 1
            terms[tuple(new)] = coeff * expo[i]
        return Polynomial(self.variables, terms)

    # --- printing ---------------------------------------------------------
    def _term_str(self, expo, coeff, lead=False):
        parts = []
        for name, e in zip(self.variables, expo):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        mag = abs(coeff)
        if not parts:
            body = str(mag)
        elif mag == 1:
            body = "*".join(parts)
        else:
            body = str(mag) + "*" + "*".join(parts)
        sign = "-" if coeff < 0 else ("" if lead else "+")
        return sign + body

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), reverse=True)  # exponents are distinct
        return "".join(self._term_str(e, c, lead=not i) for i, (e, c) in enumerate(items))

    __repr__ = __str__


def _dense_divmod(a: list, b: list):
    """(quotient, remainder) of dense ascending coefficient lists; b ends in
    a nonzero entry, the remainder in none."""
    r, nb = list(a), len(b)
    q = [0] * max(len(r) - nb + 1, 0)
    for s in reversed(range(len(q))):
        c = _quo(r[s + nb - 1], b[-1])
        if c:
            q[s] = c
            for i, x in enumerate(b):
                r[s + i] = _fold(r[s + i] - c * x)
    del r[nb - 1 :]
    while r and not r[-1]:
        r.pop()
    return q, r


def _dense_gcd(a: list, b: list) -> list:
    """A gcd of dense ascending coefficient lists, by Euclid (not made monic)."""
    while b:
        a, b = b, _dense_divmod(a, b)[1]
    return a


class RationalFunction:
    """Quotient of polynomials in canonical form (see module docstring)."""

    __slots__ = ("num", "den", "_key", "_text", "_compiled", "_complement", "_places")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        used = tuple(sorted(set(num.used_variables()) | set(den.used_variables())))
        num, den = num.embed(used), den.embed(used)
        if num.is_zero():
            num, den = Polynomial.constant(0), Polynomial.constant(1)
        elif len(used) == 1:
            n, d = num._univariate_coeffs(), den._univariate_coeffs()
            a = _dense_gcd(n, d)
            if len(a) > 1:
                n, d = _dense_divmod(n, a)[0], _dense_divmod(d, a)[0]
            if len(n) == len(d) == 1:  # a constant quotient drops its variable
                num, den = Polynomial.constant(_quo(n[0], d[0])), Polynomial.constant(1)
            else:
                lead = d[-1]
                num = Polynomial(used, {(i,): _quo(c, lead) for i, c in enumerate(n) if c})
                den = Polynomial(used, {(i,): _quo(c, lead) for i, c in enumerate(d) if c})
        else:  # constants and the multivariate case: content-normalize only
            scale = den.content()
            if den.leading()[1] < 0:
                scale = -scale
            if scale != 1:
                num = Polynomial(used, {e: _quo(c, scale) for e, c in num.terms.items()})
                den = Polynomial(used, {e: _quo(c, scale) for e, c in den.terms.items()})
        self.num = num
        self.den = den
        self._key = self._text = self._compiled = self._complement = self._places = None

    # --- structure -------------------------------------------------------
    def variables(self) -> tuple:
        return self.num.variables

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return not self.num.variables

    def constant_value(self) -> int | Fraction:
        return _quo(self.num.constant_value(), self.den.constant_value())

    def key(self) -> str:
        """Deterministic total-order key "(num)/(den)"; equal keys iff equal
        canonical form.  Built with str(self) on first use and kept."""
        if self._key is None:
            num, den = str(self.num), str(self.den)
            self._key = f"({num})/({den})"
            self._text = num if den == "1" else self._key
        return self._key

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def equals(self, other: "RationalFunction") -> bool:
        """Mathematical equality by cross-multiplication (exact)."""
        return (self.num * other.den) == (other.num * self.den)

    # --- field arithmetic --------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return const(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return const(1) / (self ** (-k))
        return RationalFunction(self.num**k, self.den**k)

    def __str__(self):
        if self._key is None:
            self.key()
        return self._text

    __repr__ = __str__


def var(name: str) -> RationalFunction:
    return RationalFunction(Polynomial.variable(name), Polynomial.constant(1, (name,)))


@functools.lru_cache(maxsize=_INTERNED, typed=True)  # typed: 0.5 is refused, not taken as 1/2
def const(value) -> RationalFunction:
    return RationalFunction(Polynomial.constant(value), Polynomial.constant(1))


def one_minus(f: RationalFunction) -> RationalFunction:
    """1 - f, built as (den - num)/den on first use and kept on f."""
    if f._complement is None:
        f._complement = RationalFunction(f.den - f.num, f.den)
    return f._complement


# --- evaluation ---------------------------------------------------------


def _finite(v) -> complex:
    c = complex(v)
    if not cmath.isfinite(c):
        raise ValueError("coordinates must be finite, got %r" % (v,))
    return c


def _as_mapping(x, names) -> dict:
    """{name: complex} from a mapping, a sequence aligned with names, or one value."""
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if len(names) <= 1:
        return {names[0] if names else "t": _finite(x)}
    if isinstance(x, (list, tuple)) and len(x) == len(names):
        return {n: _finite(v) for n, v in zip(names, x)}
    raise ValueError("a point or vector in several variables must be a mapping or aligned sequence")


def _coordinates(x, names, default=None) -> tuple:
    """(x as a mapping, its coordinates in the order of names).  A vector's
    missing coordinates are default; a point (default None) must give each
    of them, else ValueError naming the first one missing."""
    if len(names) == 1 and not isinstance(x, dict):  # one value, the one coordinate
        c = _finite(x)
        return {names[0]: c}, [c]
    point = _as_mapping(x, names)
    xs = [point.get(name, default) for name in names]
    if default is None and None in xs:
        raise ValueError(f"the point has no coordinate {names[xs.index(None)]!r}")
    return point, xs


def _terms(p: Polynomial, slots: tuple) -> tuple:
    """(complex coefficient, ((slot, exponent), ...)) per term, in the
    polynomial's own term order, variable k of p on slot slots[k]."""
    return tuple(
        (complex(coeff), tuple((slots[k], e) for k, e in enumerate(expo) if e))
        for expo, coeff in p.terms.items()
    )


def _compile(f: RationalFunction, names: Sequence[str]) -> tuple:
    """Term lists of num, den and (slot, d num, d den) per variable of f,
    each variable on its slot in names; built once per slot layout, kept on
    the function; a coefficient past the double range is a ValueError."""
    slots = tuple(map(names.index, f.variables()))
    cache = f._compiled = f._compiled or {}
    out = cache.get(slots)
    if out is None:
        num, den = f.num, f.den
        try:
            partials = tuple((k, _terms(num.partial(v), slots), _terms(den.partial(v), slots))
                             for k, v in zip(slots, f.variables()))
            out = cache[slots] = (_terms(num, slots), _terms(den, slots), partials)
        except OverflowError:
            raise ValueError(f"a coefficient outside the double range in {f}") from None
    return out


def _poly_column(terms: tuple, cols: Sequence[Sequence[complex]], size: int) -> list:
    """A compiled term list at `size` points, cols[k] the column of slot k
    over them: one list comprehension per term, each entry the term-by-term
    sum in term order, each term's factors multiplied in slot order."""
    total = [0j] * size
    for coeff, powers in terms:
        if not powers:
            total = [t + coeff for t in total]
            continue
        col = [coeff] * size
        for k, e in powers[:-1]:
            col = [c * x ** e for c, x in zip(col, cols[k])]
        k, e = powers[-1]
        total = [t + c * x ** e for t, c, x in zip(total, col, cols[k])]
    return total


def _evaluate_columns(compiled: tuple, cols: Sequence[Sequence[complex]], clearance: float,
                      points: Sequence, slopes: bool = False) -> tuple:
    """(values, [(slot, partials), ...] if slopes else None) from f's
    compiled term lists at a batch of points, cols[k] the column of slot k
    over them; PoleError names the first point where |den| <= clearance."""
    num, den, partials = compiled
    size = len(points)
    d = _poly_column(den, cols, size)
    for b, point in zip(d, points):
        if abs(b) <= clearance:
            raise PoleError(f"denominator magnitude {abs(b):.3e} at {point}")
    n = _poly_column(num, cols, size)
    values = [a / b for a, b in zip(n, d)]
    if not slopes:
        return values, None
    return values, [
        (k, [(p * b - a * q) / (b * b) for p, q, a, b in
             zip(_poly_column(dn, cols, size), _poly_column(dd, cols, size), n, d)])
        for k, dn, dd in partials
    ]


def _evaluate(compiled: tuple, xs: Sequence[complex], clearance: float, point,
              slopes: bool = False) -> tuple:
    """(f(x), [(slot, df/dx_slot), ...] if slopes else None) at coordinates
    xs, named point in a PoleError: _evaluate_columns on a batch of one."""
    values, partials = _evaluate_columns(compiled, [[x] for x in xs], clearance, [point], slopes)
    return values[0], partials and [(k, col[0]) for k, col in partials]


def rf_eval(f: RationalFunction, x, clearance: float = 1e-12) -> complex:
    """num(x)/den(x); raises PoleError when |den(x)| <= clearance."""
    names = f.variables()
    point, xs = _coordinates(x, names)
    return _evaluate(_compile(f, names), xs, clearance, point)[0]


# --- discrete valuations -------------------------------------------------


class Valuation:
    """A place of Q(t), kept as its point: a rational a (uniformizer t - a),
    or None for infinity (uniformizer 1/t).  Equality, hashing and text go by
    the point alone."""

    __slots__ = ("point",)

    def __init__(self, point: int | Fraction | None):
        self.point = None if point is None else _exact(point)

    @staticmethod
    def finite(a) -> "Valuation":
        return Valuation(_exact(a))

    @staticmethod
    def infinity() -> "Valuation":
        return Valuation(None)

    def __str__(self):
        return "inf" if self.point is None else str(self.point)

    __repr__ = __str__

    def __eq__(self, other):
        return isinstance(other, Valuation) and self.point == other.point

    def __hash__(self):
        return hash(self.point)


def _poly_order_at(p: Polynomial, a: int | Fraction):
    """(multiplicity m of (t-a) in p, value at a of p / (t-a)^m), by exact
    division by t - a until a remainder is left: its one entry is that value."""
    if p.is_zero():
        raise ValueError("zero polynomial has no finite order")
    coeffs, order = p._univariate_coeffs(), 0
    while True:
        quotient, rest = _dense_divmod(coeffs, [-a, 1])
        if rest:
            return order, rest[0]
        coeffs, order = quotient, order + 1


def _order_and_unit(f: RationalFunction, v: Valuation) -> tuple:
    """(ord_v(f), unit part of f at v), found together: by division of num
    and den by t - a at a finite place, from the degrees and leading
    coefficients at infinity; kept on f by point, errors never."""
    if f._places and v.point in f._places:
        return f._places[v.point]
    if f.is_zero():
        raise ValueError("the zero function has no order or unit part")
    if len(f.variables()) > 1:
        raise ValueError("a place's order and unit part need a univariate function")
    if v.point is None:
        out = f.den.degree() - f.num.degree(), _quo(f.num.leading()[1], f.den.leading()[1])
    else:
        (en, nval), (ed, dval) = _poly_order_at(f.num, v.point), _poly_order_at(f.den, v.point)
        out = en - ed, _quo(nval, dval)
    f._places = f._places or {}
    f._places[v.point] = out
    return out


def ord_at(f: RationalFunction, v: Valuation) -> int:
    """Order of vanishing at the place; deg(den) - deg(num) at infinity."""
    return _order_and_unit(f, v)[0]


def unit_part(f: RationalFunction, v: Valuation) -> int | Fraction:
    """Value at the place of f / pi^{ord_v(f)}; always a nonzero rational here
    (places are rational points or infinity, coefficients rational)."""
    return _order_and_unit(f, v)[1]


# --- text ---------------------------------------------------------------

_DIGITS = re.compile(r"\d+").match
_WORD = re.compile(r"\w*").match


class _Reader:
    """A cursor over text.  Each grammar subclasses it with its rules and
    sets BLANKS, the pattern of one character that may stand between its
    tokens: peek and take move past blanks, integer, name and span read at
    the cursor.  A text's blank characters are found on construction, so
    peek on any other character is one set lookup."""

    BLANKS: re.Pattern

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._blanks = set(self.BLANKS.findall(text))

    def error(self, message: str):
        raise ValueError(f"parse error at position {self.pos}: {message} in {self.text!r}")

    def peek(self) -> str:
        """The next character after blanks, '' at the end; moves past the blanks."""
        ch = self.text[self.pos : self.pos + 1]
        while ch in self._blanks:
            self.pos += 1
            ch = self.text[self.pos : self.pos + 1]
        return ch

    def take(self, token: str) -> bool:
        """Move past token if the text goes on with it after blanks."""
        if self.peek() == token or len(token) > 1 and self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def integer(self) -> int:
        """The decimal digits at the cursor."""
        m = _DIGITS(self.text, self.pos) or self.error("expected an integer")
        self.pos = m.end()
        return int(m.group())

    def name(self) -> str:
        """The letters, digits and underscores at the cursor."""
        m = _WORD(self.text, self.pos)
        self.pos = m.end()
        return m.group()

    def span(self, stops: str) -> str:
        """One character at a time, the text from the cursor to the first of
        the stops outside (), {} and [], or to the end, where the cursor is
        left.  Unbalanced text runs to the end, where the caller's next step
        fails."""
        text, depth = self.text, 0
        start = pos = self.pos
        while pos < len(text) and (depth or text[pos] not in stops):
            depth += 1 if text[pos] in "({[" else -1 if text[pos] in ")}]" else 0
            pos += 1
        self.pos = pos
        return text[start:pos]


class _FunctionParser(_Reader):
    """expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')* base ('^' ['-'] integer)?
    base   := integer | name | '(' expr ')'"""

    BLANKS = re.compile(r"\s")

    def expr(self) -> RationalFunction:
        value = self.term()
        while True:
            if self.take("+"):
                value = value + self.term()
            elif self.take("-"):
                value = value - self.term()
            else:
                return value

    def term(self) -> RationalFunction:
        value = self.factor()
        while True:
            if self.take("*"):
                value = value * self.factor()
            elif self.take("/"):
                value = value / self.factor()
            else:
                return value

    def factor(self) -> RationalFunction:
        if self.take("-"):
            return -self.factor()
        value = self.base()
        if self.take("^"):
            sign = -1 if self.take("-") else 1
            self.peek()
            value = value ** (sign * self.integer())
        return value

    def base(self) -> RationalFunction:
        c = self.peek()
        if c == "(":
            self.pos += 1
            value = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return value
        if c.isdigit():
            return const(self.integer())
        if c.isalpha() or c == "_":
            return var(self.name())
        self.error("expected a number, name, or '('")


@functools.lru_cache(maxsize=_INTERNED)
def parse_function(text: str) -> RationalFunction:
    """Parse e.g. '(t^2+1)/(t-1)' or '(x*y - 1)/(x + y)'; the same text
    gives the same (immutable) function."""
    reader = _FunctionParser(text)
    try:
        value = reader.expr()
    except ZeroDivisionError:  # raised once the zero divisor is read
        reader.error("division by zero")
    if reader.peek():
        reader.error("trailing input")
    return value


# --- signed combinations ----------------------------------------------------


def sort_signed(pairs):
    """(sign, keys, items) of (key, item) pairs put in ascending key order,
    the sign being the parity of the sorting permutation; None when two keys
    are equal."""
    keyed = list(pairs)
    if len(keyed) < 2:
        return (1, (keyed[0][0],), (keyed[0][1],)) if keyed else (1, (), ())
    sign = 1
    for i in range(1, len(keyed)):  # insertion sort, one sign flip per swap
        j = i
        while j and keyed[j][0] < keyed[j - 1][0]:
            keyed[j - 1], keyed[j] = keyed[j], keyed[j - 1]
            sign = -sign
            j -= 1
        if j and keyed[j][0] == keyed[j - 1][0]:  # the sorted prefix repeats a key
            return None
    keys, items = zip(*keyed)
    return sign, keys, items


class Combination:
    """Immutable combination of terms of one grading, with distinct keys in
    ascending order and no zero coefficient; build it with `merge`.

    A subclass is constructed as cls(*grading, terms), takes coefficients in
    `ring`, exposes its grading tuple as `grading` and prints one term with
    `_format_term(coefficient, term)`.  Its terms carry `coefficient`,
    `grading`, `key()` and `scaled(c)`, a copy with coefficient c.
    """

    __slots__ = ("terms",)

    @classmethod
    def merge(cls, grading: tuple, terms):
        """Raw terms (None entries skipped) of the given grading, merged:
        equal keys add up, zero coefficients drop."""
        merged = {}
        for t in terms:
            if t is None:
                continue
            if t.grading != grading:
                raise ValueError("term of grading %r in a combination of grading %r"
                                 % (t.grading, grading))
            k = t.key()
            old = merged.get(k)
            merged[k] = t if old is None else t.scaled(_fold(old.coefficient + t.coefficient))
        return cls(*grading, tuple(merged[k] for k in sorted(merged) if merged[k].coefficient))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if not (self.terms or other.terms):
            return True
        if self.grading != other.grading:
            return False
        return [(t.key(), t.coefficient) for t in self.terms] == [
            (t.key(), t.coefficient) for t in other.terms
        ]

    def __hash__(self):
        return hash(tuple((t.key(), t.coefficient) for t in self.terms))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        if self.grading != other.grading:
            raise ValueError("cannot add combinations of grading %r and %r"
                             % (self.grading, other.grading))
        return self.merge(self.grading, self.terms + other.terms)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, c):
        if not isinstance(c, self.ring):
            return NotImplemented
        if not c:
            return type(self)(*self.grading, ())
        if c == 1:
            return self
        c = _fold(c)
        return type(self)(*self.grading, tuple(t.scaled(_fold(_times(t.coefficient, c)))
                                               for t in self.terms))

    __rmul__ = __mul__

    def __str__(self):
        if not self.terms:
            return "0"
        joined = " ".join(
            ("- " if t.coefficient < 0 else "+ ") + self._format_term(abs(t.coefficient), t)
            for t in self.terms
        )
        return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]

    __repr__ = __str__
