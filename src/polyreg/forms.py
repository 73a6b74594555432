"""Symbolic differential forms at the generic point.

A Form is an exact rational combination of terms

    coeff * (product of scalar factors) * (wedge of 1-form generators)

with two scalar kinds, log|g| (repetition encodes powers) and the
single-valued polylog value of weight p >= 2 at f, and two generator kinds,
dlog|g| and d i arg g.  Weight-1 single-valued scalars are rewritten to
-log|1-f| at construction.  Generators are kept in a canonical order with the
permutation sign tracked, and forms merged by term key, by the
signed-combination core of `funcfield` (`sort_signed`, `Combination`); a
repeated generator kills the term.  A term computes its key once and keeps
it (`scaled` copies pass it on); sums collect their terms and merge once, and
a weighted alternation is built as one term per slot assignment.  The parser
(`parse_form`) does the same from text: one build per term, one merge per form.

The exterior derivative treats log|g| as having d = dlog|g|, both generators
as closed, and single-valued scalars via their total differentials:

    d sv(2, f) = -log|1-f| diarg f + log|f| diarg(1-f)
    d sv(n, f) = sv(n-1, f) diarg f
                 - sum_{k=2}^{n-1} beta_k sv(n-k, f) log^{k-1}|f| dlog|f|
                   (the k = n-1 term reading sv(1, ..) via alpha(1-f, f))

Numeric evaluation realizes generators as real-linear covectors,
dlog|g|(v) = Re(Dg(x;v)/g(x)) and diarg g(v) = i Im(Dg(x;v)/g(x)), and
expands generator wedges as determinants against the supplied vectors.
Each form compiles, on first evaluation, into a plan kept on the form: its
distinct functions, scalars and generators, and every term as (complex
coefficient, scalar indices, generator indices).  A call then evaluates
each function and its gradient once, with the genericity guards, each
scalar once, fills one covector table per (generator, vector), and expands
each term's determinant by first-row cofactors, sharing minors between
terms.  The arithmetic is the term-by-term arithmetic, so the values are
bit-identical to it; the plan holds nothing that depends on a point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .exact import beta
from .funcfield import (
    Combination,
    PoleError,
    RationalFunction,
    _compile,
    _coords,
    _finite,
    _poly_at,
    _pole_guard,
    _slopes,
    one_minus,
    parse_function,
    sort_signed,
)
from .polylog import sv_state

Rational = Union[int, Fraction]


class GenericityError(ValueError):
    """Evaluation point too close to a zero or pole of a term function."""


# scalar factors: ("log", g) or ("sv", p, f); generators: ("dlog"|"diarg", g)


def _scalar_key(s):
    if s[0] == "log":
        return (0, "", s[1].key())
    return (1, s[1], s[2].key())


def _gen_key(g):
    return (g[0], g[1].key())


class FormTerm:
    __slots__ = ("coefficient", "scalars", "generators", "grading", "_key")

    def __init__(self, coefficient: Fraction, scalars: tuple, generators: tuple, key=None):
        self.coefficient = coefficient
        self.scalars = scalars
        self.generators = generators
        self.grading = (len(generators),)
        self._key = key

    def key(self):
        if self._key is None:
            self._key = (
                tuple(_scalar_key(s) for s in self.scalars),
                tuple(_gen_key(g) for g in self.generators),
            )
        return self._key

    def scaled(self, coefficient: Fraction) -> "FormTerm":
        return FormTerm(coefficient, self.scalars, self.generators, self._key)

    def __repr__(self):
        return "FormTerm(%s)" % format_term(self)


def _make_term(coefficient: Rational, scalars, generators) -> Optional[FormTerm]:
    if not coefficient:
        return None
    signed = sort_signed(generators, _gen_key)
    if signed is None:
        return None
    sign, gens = signed
    if not isinstance(coefficient, Fraction):
        coefficient = Fraction(coefficient)
    scalars = tuple(sorted(scalars, key=_scalar_key))
    return FormTerm(coefficient if sign > 0 else -coefficient, scalars, gens)


class Form(Combination):
    """Degree-homogeneous combination of terms; immutable."""

    __slots__ = ("degree", "_plan")
    ring = (int, Fraction)

    def __init__(self, degree: int, terms: Tuple[FormTerm, ...]):
        self.degree = degree
        self.terms = terms
        self._plan = None

    @property
    def grading(self) -> tuple:
        return (self.degree,)

    def _format_term(self, coefficient: Fraction, t: FormTerm) -> str:
        return format_term(t.scaled(coefficient))

    def wedge(self, other: "Form") -> "Form":
        return form(self.degree + other.degree, [
            _make_term(a.coefficient * b.coefficient, a.scalars + b.scalars,
                       a.generators + b.generators)
            for a in self.terms for b in other.terms
        ])


def form(degree: int, terms: Iterable[Optional[FormTerm]]) -> Form:
    return Form.merge((degree,), terms)


def zero(degree: int = 0) -> Form:
    return Form(degree, ())


def scalar(c: Rational) -> Form:
    return form(0, [_make_term(c, (), ())])


def log_abs(g: RationalFunction, coefficient: Rational = 1) -> Form:
    return form(0, [_make_term(coefficient, (("log", g),), ())])


def sv_scalar(p: int, f: RationalFunction, coefficient: Rational = 1) -> Form:
    """The weight-p single-valued value at f as a 0-form; p = 1 rewrites."""
    if p < 1:
        raise ValueError("weight must be >= 1")
    if p == 1:
        return log_abs(one_minus(f), -Fraction(coefficient))
    return form(0, [_make_term(coefficient, (("sv", p, f),), ())])


def dlog(g: RationalFunction, coefficient: Rational = 1) -> Form:
    return form(1, [_make_term(coefficient, (), (("dlog", g),))])


def diarg(g: RationalFunction, coefficient: Rational = 1) -> Form:
    return form(1, [_make_term(coefficient, (), (("diarg", g),))])


def wedge(*forms_: Form) -> Form:
    out = forms_[0]
    for b in forms_[1:]:
        out = out.wedge(b)
    return out


def alpha(f: RationalFunction, g: RationalFunction) -> Form:
    """-log|f| dlog|g| + log|g| dlog|f|."""
    return log_abs(f, -1).wedge(dlog(g)) + log_abs(g).wedge(dlog(f))


def sv_pq(p: int, q: int, f: RationalFunction) -> Form:
    """The auxiliary 1-forms: sv(p,f) log^{q-1}|f| dlog|f|, with the p = 1
    case reading alpha(1-f, f) log^{q-1}|f|."""
    if p < 1 or q < 1:
        raise ValueError("indices must be >= 1")
    if p == 1:
        out = alpha(one_minus(f), f)
    else:
        out = sv_scalar(p, f).wedge(dlog(f))
    for _ in range(q - 1):
        out = out.wedge(log_abs(f))
    return out


# ---------------------------------------------------------------------------
# exterior derivative


def _d_scalar(s) -> Form:
    if s[0] == "log":
        return dlog(s[1])
    _, n, f = s
    if n == 2:
        return log_abs(one_minus(f), -1).wedge(diarg(f)) + log_abs(f).wedge(
            diarg(one_minus(f))
        )
    terms = list(sv_scalar(n - 1, f).wedge(diarg(f)).terms)
    for k in range(2, n):
        b = beta(k)
        if b:
            terms += (sv_pq(n - k, k, f) * (-b)).terms
    return form(1, terms)


def exterior_derivative(a: Form) -> Form:
    out: List[Optional[FormTerm]] = []
    for t in a.terms:
        for i, s in enumerate(t.scalars):
            rest = t.scalars[:i] + t.scalars[i + 1 :]
            out += [
                _make_term(t.coefficient * u.coefficient, rest + u.scalars,
                           u.generators + t.generators)
                for u in _d_scalar(s).terms
            ]
    return form(a.degree + 1, out)


# ---------------------------------------------------------------------------
# weighted alternation


def weighted_alternation(
    gs: Sequence[RationalFunction], split: int, log_prefixed: bool
) -> Form:
    """Sum over ascending-within-block slot assignments with shuffle signs.

    log_prefixed False: blocks are dlog slots g_1..g_split then diarg slots.
    log_prefixed True:  log|g_1| then dlog slots g_2..g_split then diarg.
    Equals the full alternation weighted by the stabilizer order.
    """
    from itertools import combinations

    m = len(gs)
    if not 0 <= split <= m or (log_prefixed and split < 1):
        raise ValueError("invalid split for the alternation pattern")
    idx = list(range(m))
    leads = idx if log_prefixed else [None]  # the slot of log|g_lead|, if any
    terms = []
    for lead in leads:
        rest = [i for i in idx if i != lead]
        for dl in combinations(rest, split - 1 if log_prefixed else split):
            di = [i for i in rest if i not in dl]
            order = [*dl, *di] if lead is None else [lead, *dl, *di]
            scalars = () if lead is None else (("log", gs[lead]),)
            generators = [("dlog", gs[i]) for i in dl] + [("diarg", gs[i]) for i in di]
            terms.append(_make_term(sort_signed(order, int)[0], scalars, generators))
    return form(m - 1 if log_prefixed else m, terms)


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
        sign = sort_signed(perm, int)[0]
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
# numeric evaluation


# genericity guard of evaluate (pole, zero, sv argument at 1) and the
# relative step of numeric_d
_CLEARANCE = 1e-6
_FD_STEP = 1e-5


def _variables(*forms_: Form) -> list:
    """Sorted names of every variable the forms' functions use."""
    vs = set()
    for a in forms_:
        for t in a.terms:
            for s in t.scalars:
                vs.update((s[1] if s[0] == "log" else s[2]).variables())
            for g in t.generators:
                vs.update(g[1].variables())
    return sorted(vs)


def _as_mapping(x, names) -> dict:
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if len(names) <= 1:
        name = names[0] if names else "t"
        return {name: _finite(x)}
    if isinstance(x, (list, tuple)) and len(x) == len(names):
        return {n: _finite(v) for n, v in zip(names, x)}
    raise ValueError("point/vector must be a mapping for multivariate forms")


def _det(mat: List[List[complex]]) -> complex:
    n = len(mat)
    if n == 0:
        return 1.0 + 0j
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = 0j
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


class _Plan:
    """A form's evaluation plan: its distinct functions, scalars and
    generators, and each term as (complex coefficient, scalar indices,
    generator indices).  Holds nothing that depends on a point."""

    __slots__ = ("names", "functions", "scalars", "generators", "terms")

    def __init__(self, a: Form):
        self.names = _variables(a)
        index: Dict[RationalFunction, int] = {}
        sv_arguments, generator_functions = set(), set()

        def fn(g: RationalFunction, role: Optional[set] = None) -> int:
            i = index.setdefault(g, len(index))
            if role is not None:
                role.add(i)
            return i

        scalars: Dict[tuple, int] = {}
        generators: Dict[tuple, int] = {}
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


def _plan(a: Form) -> _Plan:
    if a._plan is None:
        a._plan = _Plan(a)
    return a._plan


def _minor(rows: tuple, cols: tuple, cov: list, memo: dict) -> complex:
    """The determinant of cov restricted to rows x cols, by _det's first-row
    cofactor expansion, with every minor of order >= 2 computed once per
    memo."""
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
            out += (-1) ** j * head[c] * _minor(rest, cols[:j] + cols[j + 1 :], cov, memo)
    memo[key] = out
    return out


def evaluate(a: Form, x, vectors: Sequence = ()) -> complex:
    """Evaluate against tangent vectors; len(vectors) must equal the degree."""
    if len(vectors) != a.degree:
        raise ValueError("need exactly %d vectors" % a.degree)
    plan = _plan(a)
    xm = _as_mapping(x, plan.names)
    vms = [_as_mapping(v, plan.names) for v in vectors]
    values = []
    ratios = []  # per function, per vector: Dg(x; v) / g(x), generators only
    for g, sv_argument, generator in plan.functions:
        num, den, _ = _compile(g)
        xs = _coords(g, xm)
        d = _poly_at(den, xs)
        try:
            _pole_guard(d, _CLEARANCE, xm)
        except PoleError as exc:
            raise GenericityError(str(exc))
        n = _poly_at(num, xs)
        val = n / d
        if abs(val) < _CLEARANCE:
            raise GenericityError("function value too close to zero")
        if sv_argument and abs(val - 1.0) < _CLEARANCE:
            raise GenericityError("sv argument too close to 1")
        values.append(val)
        if not generator:
            ratios.append(None)
            continue
        _pole_guard(d, 1e-12, xm)  # rf_dir_derivative's own guard
        slopes = list(zip(g.variables(), _slopes(g, xs, n, d)))
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
    memo: dict = {}
    total = 0j
    for coeff, sidx, gidx in plan.terms:
        val = coeff
        for i in sidx:
            val *= scalars[i]
        if gidx:
            val *= _minor(gidx, cols, cov, memo)
        total += val
    return total


def numeric_d(a: Form, x, vectors: Sequence) -> complex:
    """Central-difference approximation of (da)(v_0, ..., v_deg)."""
    if len(vectors) != a.degree + 1:
        raise ValueError("need exactly %d vectors" % (a.degree + 1))
    names = _variables(a)
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


# ---------------------------------------------------------------------------
# pretty-printing and the golden-file grammar


def format_term(t: FormTerm) -> str:
    bits = []
    c = t.coefficient
    if c != 1 or (not t.scalars and not t.generators):
        bits.append("(%s)" % c if c.denominator != 1 or c < 0 else str(c))
    i = 0
    scalars = list(t.scalars)
    while i < len(scalars):
        s = scalars[i]
        j = i
        while j < len(scalars) and scalars[j] == s:
            j += 1
        power = j - i
        if s[0] == "log":
            text = "log(%s)" % s[1]
        else:
            text = "L%d(%s)" % (s[1], s[2])
        bits.append(text + ("^%d" % power if power > 1 else ""))
        i = j
    gen_text = "^".join(
        ("dlog(%s)" if k == "dlog" else "darg(%s)") % g
        for k, g in t.generators
    )
    if gen_text:
        bits.append(gen_text)
    return "*".join(bits) if bits else "1"


def format_form(a: Form) -> str:
    return str(a)


def _product(a: list, b: list) -> list:
    """Raw (coefficient, scalars, generators) triples of the product of two
    sums of them: coefficients multiply (most are the int 1, and a Fraction
    times an int is slow), scalars and generators concatenate."""
    return [(c * e if e != 1 else c, s + t, g + h) for c, s, g in a for e, t, h in b]


class _FormParser:
    """Grammar for golden files and the CLI:

    form   := term (('+'|'-') term)*
    term   := factor (['*'|'^'] factor)*
    factor := coeff | call ['^' int]
    call   := NAME '(' args ')'  with NAME in {log, dlog, darg, alpha, L<p>}
    coeff  := int ['/' int] | '(' coeff ')'

    A product of factors multiplies scalars and wedges generators in the
    written order, whether joined by '*', '^' or nothing; '^' followed by
    digits is a power.  '·' counts as whitespace.  Each distinct argument
    text is parsed once.  A factor is read as raw (coefficient, scalars,
    generators) triples: alpha(f, g) gives two, L1(f) gives -log|1-f|, '^k'
    repeats the factor.  Each term's triples are built once by `_make_term`
    and the form is merged once.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.functions: Dict[str, RationalFunction] = {}

    def error(self, msg):
        raise ValueError("%s at offset %d in %r" % (msg, self.pos, self.text))

    def ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t·":
            self.pos += 1

    def peek(self):
        self.ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Form:
        parts = []  # (degree, terms) per signed term; the first sign is optional
        while not parts or self.peek():
            ch = self.peek()
            if ch == "+" or ch == "-":
                self.pos += 1
            elif parts:
                self.error("unexpected character %r" % ch)
            parts.append(self.term(-1 if ch == "-" else 1))
        if len({degree for degree, _ in parts}) > 1:
            # as when summing pairwise: a zero summand takes the other's degree
            parts = [(degree, form(degree, terms).terms) for degree, terms in parts]
        degree = next((d for d, terms in parts if terms), parts[-1][0])
        return form(degree, [t for _, terms in parts for t in terms])

    def term(self, sign: int) -> tuple:
        """(degree, terms) of one signed product of factors."""
        degree, triples = self.factor()
        while True:
            ch = self.peek()
            if ch and ch in "*^":
                self.pos += 1
            elif not (ch and (ch.isalnum() or ch == "(")):
                return degree, [_make_term(c if sign > 0 else -c, s, g) for c, s, g in triples]
            more_degree, more = self.factor()
            degree, triples = degree + more_degree, _product(triples, more)

    def factor(self) -> tuple:
        """(degree, raw triples) of one factor."""
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
                return 0, [(c, (), ())]
            self.pos = save
            self.error("unexpected (")
        if ch.isdigit():
            return 0, [(self.coeff(), (), ())]
        if not ch.isalpha():
            self.error("expected a factor")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        name = self.text[start : self.pos]
        if self.peek() != "(":
            self.error("expected ( after %r" % name)
        args = self.call_args()
        degree, triples = self.build(name, args)
        if self.peek() == "^":
            save = self.pos
            self.pos += 1
            if self.peek().isdigit():
                power = self.coeff()
                if power.denominator != 1 or power < 1:
                    self.error("bad power")
                base = triples
                for _ in range(int(power) - 1):
                    triples = _product(triples, base)
                degree *= int(power)
            else:
                self.pos = save
        return degree, triples

    def call_args(self) -> list:
        # splits balanced-paren argument text at top-level commas
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

    def function(self, text: str) -> RationalFunction:
        f = self.functions.get(text)
        if f is None:
            f = self.functions[text] = parse_function(text)
        return f

    def build(self, name: str, args: list) -> tuple:
        """(degree, raw triples) of one call."""
        fs = [self.function(a) for a in args]
        if name == "alpha" and len(fs) == 2:  # -log|f| dlog|g| + log|g| dlog|f|
            f, g = fs
            return 1, [(-1, (("log", f),), (("dlog", g),)), (1, (("log", g),), (("dlog", f),))]
        if len(fs) == 1:
            if name == "log":
                return 0, [(1, (("log", fs[0]),), ())]
            if name in ("dlog", "darg"):
                return 1, [(1, (), (("dlog" if name == "dlog" else "diarg", fs[0]),))]
            p = int(name[1:]) if name[:1] == "L" and name[1:].isdigit() else 0
            if p == 1:  # sv(1, f) = -log|1-f|
                return 0, [(-1, (("log", one_minus(fs[0])),), ())]
            if p > 1:
                return 0, [(1, (("sv", p, fs[0]),), ())]
        self.error("unknown call %s/%d" % (name, len(args)))

    def coeff(self) -> Rational:
        self.ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a number")
        num = int(self.text[start : self.pos])
        if self.peek() != "/":
            return num
        self.pos += 1
        self.ws()
        dstart = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if dstart == self.pos:
            self.error("expected a denominator")
        den = int(self.text[dstart : self.pos])
        if not den:
            self.error("zero denominator")
        return Fraction(num, den)


def parse_form(text: str) -> Form:
    """Parse the printer/golden grammar back into a Form."""
    return _FormParser(text).parse()
