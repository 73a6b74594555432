"""Independent second routes that the tests compare the package against.

Each reference here computes what a route of `polyreg` computes, by other
means, and nothing under `src/polyreg` imports this module or defines one of
its names (`tests/test_imports.py` checks both), so a check against it never
compares the package with itself:

  * `sv_transport`: RK4 transport of the single-valued polylogarithms along a
    polyline, against the closed forms of `polylog.sv_polylog`;
  * `numeric_d`: a central-difference exterior derivative, against
    `forms.exterior_derivative`;
  * `alternation_bruteforce`: the alternation summed over every permutation,
    against `forms.weighted_alternation`;
  * `bernoulli_recurrence`: the classical Bernoulli recurrence in Fractions,
    against `exact.beta` and `exact.bernoulli`;
  * `beta_kp_recursive`: the beta_{k,p} recursions in Fractions, against the
    closed form `exact.beta_kp` and the integer recursion
    `exact._recursion_grid`;
  * `rf_dir_derivative`, `value_and_partials`, `terms_at` and
    `polynomial_evaluate`: directional derivatives, values and partials one
    function and one point at a time, and term-by-term sums of compiled
    term lists and of polynomials, against the one (column) evaluator of
    `funcfield` and its compiled term lists;
  * `reference_embed` and `reference_layout`: a polynomial written slot by
    slot into a wider variable tuple, and num/den laid out in two steps
    (into the union of their variables, then unused variables dropped),
    against `Polynomial.embed`, which lays out in one;
  * `reference_add`, `reference_mul` and `reference_partial`: polynomial
    sums, products and partials that fold each coefficient and drop zero
    ones term by term, against the arithmetic of `Polynomial`, which hands
    raw values to its constructor;
  * `reference_span`: the cursor's span found from the running bracket
    balance, against `_Reader.span`'s character loop;
  * `form_variables`: the variables of forms read off their terms, for the
    references of form evaluation;
  * `reference_parse_function` and `reference_parse_element`: the function
    and element grammars as hand-written character loops, each with its own
    lexer, against `funcfield.parse_function` and
    `polycomplex.parse_element`, which read through one shared cursor;
  * `fresh_form_key` and `fresh_chain_key`: the key of a form term or a
    chain term computed afresh from its factors, against the key each term
    is built with;
  * `symbolic_elements`: the chain elements of the benchmark's `symbolic`
    workload, built from the specs of `perfbench/gen.py`, and
    `collision_elements`: elements whose functions coincide once put into
    the slots (f, 1 - f, g_1, ...) of a free shape;
  * `form_record`: what a comparison of two built forms reads, down to the
    type of each coefficient.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache
from math import log
from pathlib import Path
from typing import List, Sequence

from polyreg.exact import beta
from polyreg.forms import (
    Form,
    diarg,
    dlog,
    evaluate,
    log_abs,
    scalar,
    zero,
)
from polyreg.funcfield import (
    PoleError,
    Polynomial,
    RationalFunction,
    _as_mapping,
    _compile,
    _fold,
    const,
    one_minus,
    parse_function,
    sort_signed,
    var,
)
from polyreg.polycomplex import _make_term, bracket_tensor, element
from polyreg.polylog import ConvergenceError, _betas_float, _check_argument, _sv_state_double

# ---------------------------------------------------------------------------
# RK4 transport of the single-valued polylogarithms along a polyline
#
# `path_state` integrates the differential system below instead of summing the
# closed forms of `polylog.sv_polylog` (series, log-expansion, inversion), so
# agreement of the two along paths of a test's choosing certifies both.
#
# State convention: y[j] holds the weight-(j+2) single-valued value; weight 1
# is the closed form -log|1-z| and is never integrated.
#
# The transported system is the total differential of the single-valued
# functions: for m >= 3
#
#   dLm = L_{m-1} d(i arg z)
#         + ( -sum_{k=2}^{m-2} beta_k L_{m-k} log^{k-1}|z|
#             + beta_{m-1} log|1-z| log^{m-2}|z| ) dlog|z|
#         - beta_{m-1} log^{m-1}|z| dlog|1-z|
#
# and dL2 = -log|1-z| d(i arg z) + log|z| d(i arg(1-z)).  The right-hand side
# preserves the parity subspace (weight-m values in i^{m-1} R) exactly.


class PathError(ValueError):
    """Raised for paths that touch 0 or 1 or violate the clearance radius."""


# start point, initial steps per segment, clearance around 0 and 1, and the
# Richardson error estimate the transport must reach
_BASE_POINT = 0.5 + 0j
_STEPS_PER_SEGMENT = 256
_PATH_CLEARANCE = 0.12
_RK_TOL = 1e-10
_MAX_STEPS = 16384


def _rhs(n: int, betas, z: complex, zdot: complex, y):
    w = zdot / z
    wp = -zdot / (1.0 - z)
    l0 = log(abs(z))
    l1 = log(abs(1.0 - z))
    iw = complex(0.0, w.imag)
    iwp = complex(0.0, wp.imag)
    u = w.real
    up = wp.real
    dy = [-l1 * iw + l0 * iwp]
    for m in range(3, n + 1):
        acc = y[m - 3] * iw
        s = 0j
        power = l0
        for k in range(2, m - 1):
            s += betas[k] * y[m - k - 2] * power
            power *= l0
        acc += (-s + betas[m - 1] * l1 * l0 ** (m - 2)) * u
        acc += (-betas[m - 1] * l0 ** (m - 1)) * up
        dy.append(acc)
    return dy


def path_state(n: int, betas, nodes, steps: int, y):
    y = list(y)
    size = n - 1  # entries for weights 2..n
    for a, b in zip(nodes, nodes[1:]):
        zdot = b - a
        h = 1.0 / steps
        for i in range(steps):
            s = i * h
            k1 = _rhs(n, betas, a + s * zdot, zdot, y)
            zm = a + (s + 0.5 * h) * zdot
            k2 = _rhs(n, betas, zm, zdot, [y[j] + 0.5 * h * k1[j] for j in range(size)])
            k3 = _rhs(n, betas, zm, zdot, [y[j] + 0.5 * h * k2[j] for j in range(size)])
            ze = a + (s + h) * zdot
            k4 = _rhs(n, betas, ze, zdot, [y[j] + h * k3[j] for j in range(size)])
            y = [
                y[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
                for j in range(size)
            ]
    return y


def _seg_distance(p: complex, a: complex, b: complex) -> float:
    d = b - a
    dd = (d.real * d.real + d.imag * d.imag)
    if dd == 0.0:
        return abs(p - a)
    t = ((p - a).real * d.real + (p - a).imag * d.imag) / dd
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


def _check_clearance(nodes: Sequence[complex]) -> None:
    for s in (0j, 1 + 0j):
        for i, (a, b) in enumerate(zip(nodes, nodes[1:])):
            if b == s or (a == s and i == 0):
                raise PathError("path endpoint hits a singular point")
            # final approach may come closer when the target itself is close
            if abs(b - s) <= _PATH_CLEARANCE and i == len(nodes) - 2:
                continue
            if _seg_distance(s, a, b) < 0.5 * _PATH_CLEARANCE:
                raise PathError("path violates clearance around 0 or 1")


def _integrate(n: int, nodes: Sequence[complex]) -> List[complex]:
    betas = _betas_float(n + 1)
    steps = _STEPS_PER_SEGMENT
    base = _sv_state_double(n, nodes[0])[1:]
    coarse = path_state(n, betas, nodes, steps, base)
    while True:
        steps *= 2
        fine = path_state(n, betas, nodes, steps, base)
        err = max(abs(f - c) for f, c in zip(fine, coarse)) / 15.0
        if err <= _RK_TOL:
            # one Richardson step: RK4 leading error cancels between the pair
            return [f + (f - c) / 15.0 for f, c in zip(fine, coarse)]
        if steps >= _MAX_STEPS:
            raise ConvergenceError(
                "path transport did not reach tol=%g (estimate %g)" % (_RK_TOL, err)
            )
        coarse = fine


def sv_transport(n: int, z: complex, waypoints: Sequence[complex] = ()) -> complex:
    """sv(n, z) by RK4 transport of the differential system along the
    polyline from 1/2 through `waypoints` to z, doubling the steps until the
    error estimate is below 1e-10: an oracle for `sv_polylog` that shares
    none of its closed forms.  Weight 1 and z in {0, 1} take the closed
    form.  Raises PathError for a polyline that passes too close to 0 or 1.
    """
    _check_argument("sv_transport", n, z)
    z = complex(z)
    if z in (0j, 1 + 0j) or n == 1:
        return _sv_state_double(n, z)[n - 1]
    nodes = [_BASE_POINT, *map(complex, waypoints), z]
    _check_clearance(nodes)
    return _integrate(n, nodes)[n - 2]


# ---------------------------------------------------------------------------
# forms: finite differences and the brute-force alternation

# relative step of numeric_d
_FD_STEP = 1e-5


def form_variables(*forms_: Form) -> list:
    """Sorted names of every variable the forms' functions use, read off
    their terms."""
    vs = set()
    for a in forms_:
        for t in a.terms:
            for s in t.scalars:
                vs.update((s[1] if s[0] == "log" else s[2]).variables())
            for g in t.generators:
                vs.update(g[1].variables())
    return sorted(vs)


def numeric_d(a: Form, x, vectors: Sequence) -> complex:
    """Central-difference approximation of (da)(v_0, ..., v_deg)."""
    if len(vectors) != a.degree + 1:
        raise ValueError("need exactly %d vectors" % (a.degree + 1))
    names = form_variables(a)
    xm = _as_mapping(x, names)
    vms = [_as_mapping(v, names) for v in vectors]
    scale = max([abs(c) for c in xm.values()] or [0.0])
    h = _FD_STEP * (1.0 + scale)
    total = 0j
    for i, vi in enumerate(vms):
        rest = vms[:i] + vms[i + 1 :]
        plus = {k: xm[k] + h * vi.get(k, 0) for k in xm}
        minus = {k: xm[k] - h * vi.get(k, 0) for k in xm}
        diff = (evaluate(a, plus, rest) - evaluate(a, minus, rest)) / (2 * h)
        total += (-1) ** i * diff
    return total


def alternation_bruteforce(
    gs: Sequence[RationalFunction], split: int, log_prefixed: bool
) -> Form:
    """Alt_m over all permutations divided by the block stabilizer order."""
    from itertools import permutations

    m = len(gs)
    if log_prefixed:
        stab = Fraction(1, math.factorial(split - 1) * math.factorial(m - split))
    else:
        stab = Fraction(1, math.factorial(split) * math.factorial(m - split))
    out = zero(m - 1 if log_prefixed else m)
    for perm in permutations(range(m)):
        sign = sort_signed(zip(perm, perm))[0]
        if log_prefixed:
            piece = log_abs(gs[perm[0]], sign * stab)
            for i in perm[1:split]:
                piece = piece.wedge(dlog(gs[i]))
            for i in perm[split:]:
                piece = piece.wedge(diarg(gs[i]))
        else:
            piece = scalar(sign * stab)
            for i in perm[:split]:
                piece = piece.wedge(dlog(gs[i]))
            for i in perm[split:]:
                piece = piece.wedge(diarg(gs[i]))
        out = out + piece
    return out


# ---------------------------------------------------------------------------
# exact: the Bernoulli recurrence and the beta_{k,p} recursions in Fractions

_ZERO = Fraction(0)


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
def beta_kp_recursive(k: int, p: int) -> Fraction:
    """beta_kp computed only from beta_{k,1} = -beta_{k+1} and the recursions

        2p * beta_{k+1,2p}     = -beta_{k,2p+1} - beta_{k+1}/(2p+1)
        (2p-1) * beta_{k+1,2p-1} = -beta_{k,2p}

    solved for descending p:
        p even:       beta_{k,p} = -(p-1) * beta_{k+1,p-1}
        p odd, p>=3:  beta_{k,p} = -(p-1) * beta_{k+1,p-1} - beta_{k+1}/p
    Memoized; never consults the closed form, its memo or its numerators.
    """
    if k < 0 or p < 1:
        raise ValueError("beta_kp_recursive: need k >= 0 and p >= 1")
    if p == 1:
        return -beta(k + 1)
    prev = beta_kp_recursive(k + 1, p - 1)
    if p % 2 == 0:
        return -(p - 1) * prev
    return -(p - 1) * prev - beta(k + 1) / p


# ---------------------------------------------------------------------------
# funcfield: directional derivatives and term-by-term polynomial values


def rf_dir_derivative(f: RationalFunction, x, v) -> complex:
    """sum_j (df/dx_j)(x) * v_j, from the compiled exact partials.

    v: complex displacement, shaped like the point (scalar for univariate,
    dict or aligned sequence otherwise).
    """
    point = _as_mapping(x, f.variables())
    vee = _as_mapping(v, f.variables())
    total = 0j
    for name, slope in zip(f.variables(), value_and_partials(f, point)[1]):
        total += slope * complex(vee.get(name, 0))
    return total


def value_and_partials(f: RationalFunction, point: dict) -> tuple:
    """(f(x), [df/dx_j for each variable of f]) at a mapping point, from the
    compiled term lists one call at a time; PoleError when |den(x)| <= 1e-12."""
    names = f.variables()
    num, den, partials = _compile(f, names)
    xs = [complex(point[name]) for name in names]
    d = terms_at(den, xs)
    if abs(d) <= 1e-12:
        raise PoleError(f"denominator magnitude {abs(d):.3e} at {point}")
    n = terms_at(num, xs)
    return n / d, [
        (terms_at(dn, xs) * d - n * terms_at(dd, xs)) / (d * d) for _, dn, dd in partials
    ]


def terms_at(terms: tuple, xs: Sequence[complex]) -> complex:
    """A compiled term list at one point with coordinates xs, one term after
    another: each term's factors multiplied in order, the terms summed."""
    total = 0j
    for coeff, powers in terms:
        for k, e in powers:
            coeff *= xs[k] ** e
        total += coeff
    return total


def polynomial_evaluate(self: Polynomial, point: dict) -> complex:
    """The polynomial at a point {variable: value}, summed term by term in
    the order of its terms."""
    total = 0j
    for expo, coeff in self.terms.items():
        term = complex(coeff)
        for name, e in zip(self.variables, expo):
            if e:
                term *= complex(point[name]) ** e
        total += term
    return total


def reference_embed(p: Polynomial, variables: tuple) -> Polynomial:
    """p over variables, a sorted tuple holding each of p's: every exponent
    written into a row of zeros at its variable's place, terms in order."""
    terms = {}
    for expo, coeff in p.terms.items():
        row = [0] * len(variables)
        for name, e in zip(p.variables, expo):
            row[variables.index(name)] = e
        terms[tuple(row)] = coeff
    return Polynomial(tuple(variables), terms)


def reference_layout(num: Polynomial, den: Polynomial) -> tuple:
    """(num, den) laid out in two steps: both embedded into the union of
    their variables, then every variable neither uses dropped; terms in order."""
    union = tuple(sorted(set(num.variables) | set(den.variables)))
    num, den = reference_embed(num, union), reference_embed(den, union)
    keep = [i for i in range(len(union)) if any(e[i] for p in (num, den) for e in p.terms)]
    used = tuple(union[i] for i in keep)
    return tuple(Polynomial(used, {tuple(e[i] for i in keep): c for e, c in p.terms.items()})
                 for p in (num, den))


def reference_add(self: Polynomial, other) -> Polynomial:
    """self + other, each sum folded and a zero one deleted term by term."""
    a, b = self._pair(other)
    terms = dict(a.terms)
    for expo, coeff in b.terms.items():
        c = terms.get(expo, 0) + coeff
        if c:
            terms[expo] = _fold(c)
        else:
            del terms[expo]
    return Polynomial(a.variables, terms)


def reference_mul(self: Polynomial, other) -> Polynomial:
    """self * other, the products summed per exponent, then each sum folded
    and the zero ones dropped."""
    a, b = self._pair(other)
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            expo = tuple(x + y for x, y in zip(e1, e2))
            terms[expo] = terms.get(expo, 0) + c1 * c2
    # zeros drop only at the end, so every kept term stays where it first
    # appeared (term order fixes the order of evaluation)
    return Polynomial(a.variables, {e: _fold(c) for e, c in terms.items() if c})


def reference_partial(self: Polynomial, name: str) -> Polynomial:
    """d self / d name, each coefficient folded term by term."""
    if name not in self.variables:
        return Polynomial(self.variables, {})
    i = self.variables.index(name)
    terms = {}
    for expo, coeff in self.terms.items():
        if expo[i] == 0:
            continue
        new = list(expo)
        new[i] -= 1
        terms[tuple(new)] = _fold(coeff * expo[i])
    return Polynomial(self.variables, terms)


# ---------------------------------------------------------------------------
# text: the function and element grammars with their own character loops

# a power of two or more digits, which a parser and its reference would both
# expand in full: generated texts that contain one are skipped
BIG_POWER = re.compile(r"\^[\s-]*\d\d")


def reference_span(text: str, pos: int, stops: str) -> tuple:
    """(the text from pos to the first of the stops outside (), {} and [],
    or to the end; the position where it ends): the first index at or after
    pos where the running bracket balance of text[pos:] is 0 and the
    character is a stop, else the end."""
    rest = text[pos:]
    balance = itertools.accumulate(((c in "({[") - (c in ")}]") for c in rest), initial=0)
    end = next((pos + i for i, (depth, c) in enumerate(zip(balance, rest))
                if depth == 0 and c in stops), len(text))
    return text[pos:end], end


class _ReferenceFunctionParser:
    """expr := term (('+'|'-') term)*, term := factor (('*'|'/') factor)*,
    factor := ('-')* base ('^' ['-'] integer)?, base := integer | name |
    '(' expr ')', with whitespace between tokens."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ValueError(f"parse error at position {self.pos}: {message} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> RationalFunction:
        try:
            value = self.expr()
        except ZeroDivisionError:
            self.error("division by zero")
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return value

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
            c = self.peek()
            if c == "*":
                self.pos += 1
                value = value * self.factor()
            elif c == "/":
                self.pos += 1
                value = value / self.factor()
            else:
                return value

    def factor(self) -> RationalFunction:
        if self.take("-"):
            return -self.factor()
        value = self.base()
        if self.take("^"):
            sign = -1 if self.take("-") else 1
            k = self.integer()
            value = value ** (sign * k)
        return value

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        return int(self.text[start : self.pos])

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
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            return var(self.text[start : self.pos])
        self.error("expected a number, name, or '('")


def reference_parse_function(text: str) -> RationalFunction:
    return _ReferenceFunctionParser(text).parse()


def reference_element_terms(text: str) -> list:
    """The terms of element text as written, (coefficient, depth, argument,
    wedge) each, before any is normalized: the text is cut at every '+' and
    '-' outside brackets, then each piece is read on its own."""
    text = text.replace("⊗", " (x) ").replace("∧", " ^ ")
    chunks = _split_terms(text)
    if not chunks:
        raise ValueError("empty element")
    return [_parse_term(sign, chunk) for sign, chunk in chunks]


def reference_parse_element(text: str, weight=None):
    """Element text read by cutting it into terms first: a term that reduces
    to zero drops out before the terms' weights and degrees are compared,
    and the grading is the first surviving term's (the weight, if given,
    replacing its weight)."""
    made = [_make_term(*t) for t in reference_element_terms(text)]
    terms = [t for t in made if t is not None]
    if not terms:
        raise ValueError("cannot infer the grading of an empty element")
    first_weight, degree = terms[0].grading
    return element(terms, first_weight if weight is None else weight, degree)


def _split_terms(text: str):
    chunks = []
    depth = 0
    sign = 1
    current = []
    for ch in text:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if depth == 0 and ch in "+-":
            if "".join(current).strip():
                chunks.append((sign, "".join(current)))
                sign = 1
            elif chunks:
                raise ValueError("dangling sign in element text")
            if ch == "-":
                sign = -sign
            current = []
        else:
            current.append(ch)
    if "".join(current).strip():
        chunks.append((sign, "".join(current)))
    elif sign == -1:
        raise ValueError("dangling sign in element text")
    return chunks


def _parse_term(sign: int, chunk: str) -> tuple:
    s = chunk.strip()
    coeff = sign
    star = _top_level_star(s)
    if star is not None:
        head = s[:star].strip()
        if not head.isdigit():
            raise ValueError("coefficient must be an integer: %r" % head)
        coeff *= int(head)
        s = s[star + 1 :].strip()
    depth = 0
    argument = None
    if s.startswith("{"):
        close = s.find("}")
        if close < 0:
            raise ValueError("unclosed bracket in %r" % chunk)
        argument = reference_parse_function(s[1:close])
        rest = s[close + 1 :].strip()
        if not rest.startswith("_"):
            raise ValueError("bracket needs a depth subscript: %r" % chunk)
        rest = rest[1:]
        i = 0
        while i < len(rest) and rest[i].isdigit():
            i += 1
        if i == 0:
            raise ValueError("bracket needs a numeric depth: %r" % chunk)
        depth = int(rest[:i])
        s = rest[i:].strip()
        if s.startswith("(x)"):
            s = s[3:].strip()
        elif s:
            raise ValueError("expected tensor separator in %r" % chunk)
    wedge = tuple(reference_parse_function(p) for p in _split_wedge(s)) if s else ()
    return coeff, depth, argument, wedge


def _top_level_star(s: str):
    depth = 0
    for i, ch in enumerate(s):
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif ch == "*" and depth == 0:
            return i
        elif ch in "{(" or not (ch.isdigit() or ch.isspace() or ch == "*"):
            return None
    return None


def _split_wedge(s: str):
    parts = []
    depth = 0
    current = []
    for ch in s:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if ch == "^" and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    parts = [p.strip() for p in parts]
    if any(not p for p in parts):
        raise ValueError("empty wedge slot in %r" % s)
    return parts


# ---------------------------------------------------------------------------
# term keys computed afresh, forms as compared, and test elements


def fresh_form_key(t) -> tuple:
    """(scalar keys, generator keys) of a form term, from its factors."""
    scalars = tuple((0, "", s[1].key()) if s[0] == "log" else (1, s[1], s[2].key())
                    for s in t.scalars)
    return scalars, tuple((kind, g.key()) for kind, g in t.generators)


def form_record(a: Form) -> tuple:
    """(degree, each term's (key, coefficient, coefficient type), text)."""
    return a.degree, [(t.key(), t.coefficient, type(t.coefficient)) for t in a.terms], str(a)


def fresh_chain_key(t) -> tuple:
    """(depth, argument key, wedge keys) of a chain term, from its parts."""
    argument = "" if t.argument is None else t.argument.key()
    return t.depth, argument, tuple(g.key() for g in t.wedge)


def symbolic_elements(seed: int, count: int) -> list:
    """The chain elements coefficient * {bracket}_depth (x) wedge of the
    first count specs of the benchmark's `symbolic` workload at seed, built
    as the workload builds them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    loader = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(gen)
    out = []
    specs = itertools.islice(gen.chain_specs(seed), count)
    for _weight, coefficient, depth, bracket, wedge in specs:
        wedge = [parse_function(g) for g in wedge]
        out.append(bracket_tensor(parse_function(bracket), depth, wedge, coefficient))
    return out


def collision_elements() -> list:
    """Elements of weights 3 to 6 whose slots coincide: g = f, g = 1 - f,
    the constant f = 1/2 (so f = 1 - f), a repeated wedge entry, and two
    brackets whose images cancel in part ({f}_2 and {1 - f}_2 on one g)."""
    f, g, t, half = (parse_function(s) for s in ("(1-t)/(1+t)", "t+2", "t", "1/2"))
    out = []
    for n in (2, 3, 4):
        out += [bracket_tensor(f, n, [f]), bracket_tensor(f, n, [one_minus(f), g]),
                bracket_tensor(f, n, [f, one_minus(f)]), bracket_tensor(half, n, [g]),
                bracket_tensor(half, n, [g, t]), bracket_tensor(half, n, [half]),
                bracket_tensor(f, n, [g, g]), bracket_tensor(half, n, [])]
    return out + [bracket_tensor(f, 2, [g], 3) + bracket_tensor(one_minus(f), 2, [g], 3),
                  bracket_tensor(f, 2, [g, t], -2) + bracket_tensor(one_minus(f), 2, [g, t], -2)]
