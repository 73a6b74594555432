"""Symbolic differential forms at the generic point.

A Form is an exact rational combination of terms

    coeff * (product of scalar factors) * (wedge of 1-form generators)

with two scalar kinds, log|g| (repetition encodes powers) and the
single-valued polylog value of weight p >= 2 at f, and two generator kinds,
dlog|g| and d i arg g.  Coefficients are exact rationals: an int when
integral and a Fraction otherwise, as in `funcfield` (a new term, a sum of
terms and a scaled term fold an integral Fraction to its int).
Weight-1 single-valued scalars are rewritten to -log|1-f| at construction.
Generators are kept in a canonical order with the permutation sign tracked,
and forms merged by term key, by the signed-combination core of `funcfield`
(`sort_signed`, `Combination`); a repeated generator kills the term.  One
function builds terms (`_keyed_term`) and one every weighted-alternation sum
(`_alternation_sum`; `weighted_alternation` is its one-weight case).  A
term's key is built once, from its factors' keys: each scalar and generator
is keyed once where it is made (each g of an alternation once), a product
of terms (a wedge, a term of d, a parsed term) is built from the (key,
factor) pairs its factors hold (`FormTerm.pairs`), and `scaled` copies pass
the key on.  Sums collect their terms and merge once, and a single-term form
is built without a merge.  The parser (`parse_form`) does the same from
text: one build per term, one merge per form.  It reads call heads, joins
and a power's '^' in one compiled match each; a call and its power are built
by the builders above and `Form.wedge`, once per text (`_call`, interned as
`parse_function` is), so the grammar writes no term of its own.

Free shapes: the image under `regulator` of each chain term (a bracket,
bare or with slots, or a pure wedge) and d of an sv scalar are one formula
each in the atoms f, 1 - f and g_1, ..., g_m, and substitution is a
pullback: it commutes with every step that builds them.  So each direct
builder build(n, f, gs) runs once per (build, n, m) on placeholders, kept as
slot terms (`_shape`; slots 0 = f, 1 = 1 - f, 2 + i = g_i), and a call puts
its functions in (`_pullback`: one `_keyed_term` per term; a pure wedge
fills the g slots only) and merges once.  The form equals the direct build,
coefficient types included.

The exterior derivative treats log|g| as having d = dlog|g|, both generators
as closed, and single-valued scalars via their total differentials:

    d sv(2, f) = -log|1-f| diarg f + log|f| diarg(1-f)
    d sv(n, f) = sv(n-1, f) diarg f
                 - sum_{k=2}^{n-1} beta_k sv(n-k, f) log^{k-1}|f| dlog|f|
                   (the k = n-1 term reading sv(1, ..) via alpha(1-f, f))

and builds the differential of each distinct scalar once per call, an sv
scalar's as the pullback of its weight's free shape (`_d_sv`).

Numeric evaluation realizes generators as real-linear covectors,
dlog|g|(v) = Re(Dg(x;v)/g(x)) and diarg g(v) = i Im(Dg(x;v)/g(x)), and
expands generator wedges as determinants against the supplied vectors.  It
is batched: `evaluate_many` takes forms of one degree and (point, frames)
samples, and `evaluate` is its one-sample, one-frame case.  The forms
compile into one plan (`_Plan`; a check samples by it and evaluates through
it): their degree, variables, the functions a sample point must keep
generic, their distinct functions, scalars and generators, and every term
as (complex coefficient, scalar indices, generator indices).  A constant is
exact: the guards (a value near 0, an sv argument near 1) apply to functions
with variables, and a constant is refused only when it is 0.
A batch of samples walks the plan once, column by column: each function
value, partial and guard is a column over the points from `funcfield`'s
evaluator, each scalar a column, and each covector, cofactor minor, term
weight and form total a column over the (sample, frame) pairs.  The minors
of a term's generator rows are built per row suffix, for every column set of
its size at once, from one table per degree of each set's first-row
expansion (`_expansions`), and kept per batch by suffix.  Each entry is the
one-point arithmetic in its order (`_det`'s expansion order, its zero skip
and its 2x2 formula), so the values are bit-identical to it.  So are the
errors: the first failing sample raises its own, whether it cannot be read
or is degenerate, since a failing batch, or one holding a sample that
cannot be read, is read and walked again a sample at a time.  The plan
holds nothing that depends on a point.  A NaN entry is not refused by the
evaluator; the chain and top checks refuse a defect that is not finite.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from itertools import combinations, groupby
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .exact import beta
from .funcfield import (
    _INTERNED,
    Combination,
    PoleError,
    RationalFunction,
    _compile,
    _coordinates,
    _evaluate_columns,
    _fold,
    _Reader,
    _times,
    one_minus,
    parse_function,
    sort_signed,
)
from .polylog import sv_polylog

Rational = Union[int, Fraction]


class GenericityError(ValueError):
    """Evaluation point too close to a zero or pole of a term function."""


# scalar factors: ("log", g) or ("sv", p, f); generators: ("dlog"|"diarg", g)


def _scalar_pair(s) -> tuple:
    """(key, s) of a scalar factor."""
    if s[0] == "log":
        return (0, "", s[1].key()), s
    return (1, s[1], s[2].key()), s


def _gen_pair(g) -> tuple:
    """(key, g) of a generator."""
    return (g[0], g[1].key()), g


_by_key = itemgetter(0)  # of a (key, factor) pair


class FormTerm:
    """coefficient * product of scalars * wedge of generators, the scalars in
    key order and the generators in strict key order; its key is (scalar
    keys, generator keys), built with it."""

    __slots__ = ("coefficient", "scalars", "generators", "grading", "_key")

    def __init__(self, coefficient: Rational, scalars: tuple, generators: tuple, key: tuple):
        self.coefficient = coefficient
        self.scalars = scalars
        self.generators = generators
        self.grading = (len(generators),)
        self._key = key

    def key(self):
        return self._key

    def pairs(self) -> tuple:
        """(scalar pairs, generator pairs): each factor as (its key, it)."""
        skeys, gkeys = self._key
        return tuple(zip(skeys, self.scalars)), tuple(zip(gkeys, self.generators))

    def scaled(self, coefficient: Rational) -> "FormTerm":
        return FormTerm(coefficient, self.scalars, self.generators, self._key)

    def __repr__(self):
        return "FormTerm(%s)" % format_term(self.coefficient, self)


def _keyed_term(coefficient: Rational, scalars, generators) -> Optional[FormTerm]:
    """The term of coefficient and the factors given as (key, factor) pairs,
    keyed from those keys; None when it vanishes."""
    if not coefficient:
        return None
    signed = sort_signed(generators)
    if signed is None:
        return None
    sign, gkeys, gens = signed
    if type(coefficient) is not int:
        if not isinstance(coefficient, Fraction):  # a float converts exactly; a complex raises
            coefficient = Fraction(coefficient)
        coefficient = _fold(coefficient)
    if len(scalars) > 1:
        scalars = sorted(scalars, key=_by_key)
    skeys, scalars = zip(*scalars) if scalars else ((), ())
    return FormTerm(coefficient if sign > 0 else -coefficient, scalars, gens, (skeys, gkeys))


class Form(Combination):
    """Degree-homogeneous combination of terms; immutable."""

    __slots__ = ("degree",)
    ring = (int, Fraction)

    def __init__(self, degree: int, terms: Tuple[FormTerm, ...]):
        self.degree = degree
        self.terms = terms

    @property
    def grading(self) -> tuple:
        return (self.degree,)

    def _format_term(self, coefficient: Rational, t: FormTerm) -> str:
        return format_term(coefficient, t)

    def wedge(self, other: "Form") -> "Form":
        product = _product([(a.coefficient, *a.pairs()) for a in self.terms],
                           [(b.coefficient, *b.pairs()) for b in other.terms])
        return form(self.degree + other.degree, [_keyed_term(*t) for t in product])


def form(degree: int, terms: Iterable[Optional[FormTerm]]) -> Form:
    return Form.merge((degree,), terms)


def _single(degree: int, coefficient: Rational, scalars=(), generators=()) -> Form:
    """The form of one term, its factors keyed here, built without a merge."""
    t = _keyed_term(coefficient, list(map(_scalar_pair, scalars)),
                    list(map(_gen_pair, generators)))
    return Form(degree, () if t is None else (t,))


def zero(degree: int = 0) -> Form:
    return Form(degree, ())


def scalar(c: Rational) -> Form:
    return _single(0, c)


def log_abs(g: RationalFunction, coefficient: Rational = 1) -> Form:
    return _single(0, coefficient, (("log", g),))


def sv_scalar(p: int, f: RationalFunction, coefficient: Rational = 1) -> Form:
    """The weight-p single-valued value at f as a 0-form; p = 1 rewrites."""
    if p < 1:
        raise ValueError("weight must be >= 1")
    if p == 1:
        return log_abs(one_minus(f), -coefficient)
    return _single(0, coefficient, (("sv", p, f),))


def dlog(g: RationalFunction, coefficient: Rational = 1) -> Form:
    return _single(1, coefficient, (), (("dlog", g),))


def diarg(g: RationalFunction, coefficient: Rational = 1) -> Form:
    return _single(1, coefficient, (), (("diarg", g),))


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


def _d_sv(n: int, f: RationalFunction, gs: Sequence[RationalFunction]) -> Form:
    """d sv(n, f), built directly; gs, empty, makes it a builder for `_shape`."""
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
    derivatives: Dict[tuple, list] = {}  # scalar key -> the terms of its d, built once
    for t in a.terms:
        scalars, generators = t.pairs()
        for i, (k, s) in enumerate(scalars):
            ds = derivatives.get(k)
            if ds is None:
                d = _pullback(_d_sv, s[1], s[2], (), 1) if s[0] == "sv" else dlog(s[1]).terms
                ds = derivatives[k] = [(u.coefficient, *u.pairs()) for u in d if u is not None]
            rest = scalars[:i] + scalars[i + 1 :]
            out += [_keyed_term(_times(t.coefficient, c), rest + us, ug + generators)
                    for c, us, ug in ds]
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
    return _alternation_sum(gs, log_prefixed, [(split, 1)])


def _alternation_sum(gs: Sequence[RationalFunction], log_prefixed: bool, weights) -> Form:
    """The sum of c * weighted_alternation(gs, split, log_prefixed) over the
    (split, c) pairs of weights: each term built with c or -c, one merge."""
    m = len(gs)
    idx = list(range(m))
    leads = idx if log_prefixed else [None]  # the slot of log|g_lead|, if any
    logs = [_scalar_pair(("log", g)) for g in gs]
    dlogs = [_gen_pair(("dlog", g)) for g in gs]
    diargs = [_gen_pair(("diarg", g)) for g in gs]
    terms = []
    for split, c in weights:
        if not 0 <= split <= m or (log_prefixed and split < 1):
            raise ValueError("invalid split for the alternation pattern")
        for lead in leads:
            rest = [i for i in idx if i != lead]
            for dl in combinations(rest, split - 1 if log_prefixed else split):
                di = [i for i in rest if i not in dl]
                order = [*dl, *di] if lead is None else [lead, *dl, *di]
                scalars = () if lead is None else (logs[lead],)
                generators = [dlogs[i] for i in dl] + [diargs[i] for i in di]
                sign = sort_signed(zip(order, order))[0]
                terms.append(_keyed_term(c if sign > 0 else -c, scalars, generators))
    return form(m - 1 if log_prefixed else m, terms)


# ---------------------------------------------------------------------------
# free shapes


@functools.lru_cache(maxsize=None)
def _shape(build, n: int, m: int) -> tuple:
    """build(n, f, (g_1, ..., g_m)) on placeholder atoms, as slot terms: (its
    distinct factors, each function in them replaced by its slot; per term
    (coefficient, scalar indices, generator indices) into them)."""
    f = parse_function("f")
    atoms = (f, one_minus(f), *[parse_function("g%d" % i) for i in range(1, m + 1)])
    slot = {g.key(): i for i, g in enumerate(atoms)}
    factors: Dict[tuple, int] = {}

    def index(x: tuple) -> int:
        return factors.setdefault((*x[:-1], slot[x[-1].key()]), len(factors))

    terms = tuple((t.coefficient, tuple(map(index, t.scalars)), tuple(map(index, t.generators)))
                  for t in build(n, f, atoms[2:]).terms)
    return tuple(factors), terms


def _pullback(build, n: int, f: Optional[RationalFunction], gs: Sequence[RationalFunction],
              c: Rational) -> list:
    """The terms of c * build(n, f, gs) by its shape, with f, 1 - f (for an f
    that is not None) and gs put in its slots, unmerged: one _keyed_term
    each (None where a generator repeats)."""
    factors, terms = _shape(build, n, len(gs))
    atoms = ((None, None) if f is None else (f, one_minus(f))) + tuple(gs)
    pairs = [(_gen_pair if x[0] in ("dlog", "diarg") else _scalar_pair)((*x[:-1], atoms[x[-1]]))
             for x in factors]
    return [_keyed_term(_times(a, c), [pairs[i] for i in sidx], [pairs[i] for i in gidx])
            for a, sidx, gidx in terms]


# ---------------------------------------------------------------------------
# numeric evaluation


# genericity guard of evaluate (pole, zero, sv argument at 1)
_CLEARANCE = 1e-6


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
    """The evaluation plan of forms of one degree, the one walk over their
    terms: their `degree`, the sorted variable `names` of their functions,
    the functions a sample point keeps in a moderate annulus (`guarded`:
    every function, and 1 - f for each sv argument f; a draw skips the
    constants among them, which are exact), the distinct
    functions, scalars and generators, and per form its terms as ((complex
    coefficient, scalar indices), ...) and their generator indices.  A
    function is (its term lists compiled on the slots of names, is an sv
    argument, carries a generator); a scalar is (function index, weight p,
    or 0 for log); a generator is (is dlog, function index).  Holds nothing
    that depends on a point; `evaluate` walks it over samples."""

    __slots__ = ("degree", "names", "functions", "guarded", "scalars", "generators", "forms")

    def __init__(self, forms_: Iterable[Form]):
        forms_ = tuple(forms_)
        if not forms_:
            raise ValueError("need at least one form")
        degree = self.degree = forms_[0].degree
        if any(a.degree != degree for a in forms_):
            raise ValueError("forms of mixed degree %s" % sorted({a.degree for a in forms_}))
        index: Dict[str, int] = {}  # function key -> function index
        functions: List[RationalFunction] = []
        sv_arguments, generator_functions = set(), set()

        def fn(g: RationalFunction) -> int:
            i = index.setdefault(g.key(), len(functions))
            if i == len(functions):
                functions.append(g)
            return i

        scalars: Dict[tuple, int] = {}
        generators: Dict[tuple, int] = {}
        self.forms = []
        for a in forms_:
            terms, gidxs = [], []
            for t in a.terms:
                sidx = []
                for s in t.scalars:
                    if s[0] == "log":
                        key = (fn(s[1]), 0)
                    else:
                        key = (fn(s[2]), s[1])
                        sv_arguments.add(key[0])
                    sidx.append(scalars.setdefault(key, len(scalars)))
                gidx = []
                for kind, g in t.generators:
                    i = fn(g)
                    generator_functions.add(i)
                    gidx.append(generators.setdefault((kind == "dlog", i), len(generators)))
                terms.append((complex(t.coefficient), tuple(sidx)))
                gidxs.append(tuple(gidx))
            self.forms.append((tuple(terms), tuple(gidxs)))
        self.names = sorted(set().union(*(g.variables() for g in functions)))
        self.functions = tuple(
            (_compile(g, self.names), i in sv_arguments, i in generator_functions)
            for i, g in enumerate(functions)
        )
        self.guarded = functions + [one_minus(functions[i]) for i in sorted(sv_arguments)]
        self.scalars = tuple(scalars)
        self.generators = tuple(generators)

    def _read(self, x, frames: list) -> tuple:
        """The sample (point x, frames) as `_walk` reads it (its docstring)."""
        if not all(map(self.degree.__eq__, map(len, frames))):
            raise ValueError("need exactly %d vectors" % self.degree)
        xm, xs = _coordinates(x, self.names)
        return xm, xs, [[_coordinates(v, self.names, 0j)[1] for v in vectors] for vectors in frames]

    def evaluate(self, samples: Iterable) -> List[List[List[complex]]]:
        """evaluate_many of the plan's forms at the samples, each frames listed
        once; a batch that fails to be read or walked is read and walked
        again one sample at a time."""
        samples = [(x, list(frames)) for x, frames in samples]
        try:
            return _walk(self, [self._read(x, frames) for x, frames in samples])
        except Exception:
            return [_walk(self, [self._read(x, frames)])[0] for x, frames in samples]


@functools.lru_cache(maxsize=None)
def _expansions(degree: int) -> tuple:
    """Per size m, the column sets of size m in range(degree), each with its
    first-row cofactor expansion ((sign, column, the set without it), ...)
    in _det's order."""
    return tuple(
        [(cols, tuple(((-1) ** j, c, cols[:j] + cols[j + 1 :]) for j, c in enumerate(cols)))
         for cols in combinations(range(degree), m)]
        for m in range(degree + 1)
    )


def _minor(rows: tuple, cov: list, memo: dict, expansions: tuple) -> dict:
    """The determinants of cov restricted to rows x every column set of
    their size, each a column over the (sample, frame) pairs, by _det's
    first-row cofactor expansion with its zero skip; computed once per memo
    and row suffix."""
    out = memo.get(rows)
    if out is not None:
        return out
    head = cov[rows[0]]
    if len(rows) == 1:
        out = {(c,): col for c, col in enumerate(head)}
    elif len(rows) == 2:
        b = cov[rows[1]]
        out = {}
        for (i, j), _ in expansions[2]:
            out[i, j] = [p * q - r * s for p, q, r, s in zip(head[i], b[j], head[j], b[i])]
    else:
        subs = _minor(rows[1:], cov, memo, expansions)
        out = {}
        for cols, terms in expansions[len(rows)]:
            col = [0j] * len(head[0])
            for sign, c, rest in terms:
                col = [o if h == 0 else o + sign * h * m
                       for o, h, m in zip(col, head[c], subs[rest])]
            out[cols] = col
    memo[rows] = out
    return out


def _walk(plan: _Plan, batch: list) -> list:
    """evaluate_many's result for samples read as (point mapping,
    coordinates, frames of coordinate lists), by one walk over the plan
    (module docstring); raises the error of some failing sample."""
    degree = plan.degree
    slots = range(len(plan.names))
    points = [xm for xm, _, _ in batch]
    xcols = [[xs[k] for _, xs, _ in batch] for k in slots]
    owner = [s for s, (_, _, frames) in enumerate(batch) for _ in frames]
    vectors = [vs for _, _, frames in batch for vs in frames]
    size = len(vectors)
    vcols = [[[vs[j][k] for vs in vectors] for k in slots] for j in range(degree)]

    def spread(col: list) -> list:  # a column over the samples, over the pairs
        return [col[s] for s in owner]

    values, ratios = [], {}
    for i, (compiled, sv_argument, generator) in enumerate(plan.functions):
        try:
            val, partials = _evaluate_columns(compiled, xcols, _CLEARANCE, points, generator)
        except PoleError as exc:
            raise GenericityError(str(exc)) from None
        if not compiled[2]:  # a constant is exact: only 0 is refused
            if val and val[0] == 0:
                raise GenericityError("function value too close to zero")
        else:
            for v in val:
                if abs(v) < _CLEARANCE:
                    raise GenericityError("function value too close to zero")
                if sv_argument and abs(v - 1.0) < _CLEARANCE:
                    raise GenericityError("sv argument too close to 1")
        values.append(val)
        if generator:  # Dg(x; v) / g(x) per vector of the frame
            val, partials = spread(val), [(k, spread(col)) for k, col in partials]
            row = ratios[i] = []
            for vcol in vcols:
                dg = [0j] * size
                for k, slope in partials:
                    dg = [a + b * x for a, b, x in zip(dg, slope, vcol[k])]
                row.append([a / b for a, b in zip(dg, val)])
    scalars = [spread([sv_polylog(p, v) for v in values[i]] if p else
                      [math.log(abs(v)) for v in values[i]]) for i, p in plan.scalars]
    cov = [[[complex(w.real, 0.0) for w in col] if dlog else [complex(0.0, w.imag) for w in col]
            for col in ratios[i]] for dlog, i in plan.generators]
    memo: dict = {}
    expansions = _expansions(degree)
    weights: dict = {}  # (coefficient, scalar indices) -> their product's column
    cols = tuple(range(degree))
    totals = []
    for terms, gidxs in plan.forms:
        total = [0j] * size
        for term, gidx in zip(terms, gidxs):
            weight = weights.get(term)
            if weight is None:
                coeff, sidx = term
                weight = [coeff] * size
                for i in sidx:
                    weight = [a * b for a, b in zip(weight, scalars[i])]
                weights[term] = weight
            if degree:
                minor = _minor(gidx, cov, memo, expansions)[cols]
                total = [t + a * b for t, a, b in zip(total, weight, minor)]
            else:
                total = [t + a for t, a in zip(total, weight)]
        totals.append(total)
    pairs = iter([list(v) for v in zip(*totals)])
    return [[next(pairs) for _ in frames] for _, _, frames in batch]


def evaluate_many(forms_: Sequence[Form], samples: Iterable) -> List[List[List[complex]]]:
    """Evaluate forms of one degree at (point, frames) samples, a frame being
    a sequence of as many tangent vectors as the degree.  out[s][f][k] is
    forms_[k] at the point of sample s against its frame f, equal bit for
    bit to evaluate(forms_[k], point, frame).  The samples are read, each
    checked as `evaluate` checks it, and walked together; errors are those
    of one sample after another (the module docstring)."""
    return _Plan(forms_).evaluate(samples)


def evaluate(a: Form, x, vectors: Sequence = ()) -> complex:
    """Evaluate against tangent vectors; len(vectors) must equal the degree."""
    return evaluate_many((a,), [(x, (vectors,))])[0][0][0]


# ---------------------------------------------------------------------------
# pretty-printing and the golden-file grammar


def format_term(c: Rational, t: FormTerm) -> str:
    """The text of t with coefficient c."""
    bits = []
    if c != 1 or (not t.scalars and not t.generators):
        bits.append("(%s)" % c if c.denominator != 1 or c < 0 else str(c))
    for s, run in groupby(t.scalars):  # a run of equal scalars is a power
        power = len(list(run))
        text = "log(%s)" % s[1] if s[0] == "log" else "L%d(%s)" % (s[1], s[2])
        bits.append(text + ("^%d" % power if power > 1 else ""))
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
    """Raw (coefficient, scalar pairs, generator pairs) triples of the
    product of two sums of them: coefficients multiply by `_times` (most
    are the int 1, and a Fraction times an int is slow), scalars and
    generators concatenate."""
    return [(_times(c, e), s + t, g + h) for c, s, g in a for e, t, h in b]


_BLANK = "[ \t·]"  # a character that may stand between tokens
# one match each, past blanks: a join ('*', '^' or a factor's start), a call
# head (name, blanks and '(' if one follows) and a power's '^' (digits follow)
_JOIN = re.compile(r"%s*(?:[*^]|(?=[^\W_]|\())" % _BLANK).match
_CALL_HEAD = re.compile(r"(\w*)%s*(\(?)" % _BLANK).match
_POWER = re.compile(r"%s*\^%s*(?=\d)" % (_BLANK, _BLANK)).match


class _FormParser(_Reader):
    """Grammar for golden files and the CLI:

    form   := term (('+'|'-') term)*
    term   := factor (['*'|'^'] factor)*
    factor := coeff | call ['^' int]
    call   := NAME '(' args ')'  with NAME in {log, dlog, darg, alpha, L<p>}
    coeff  := int ['/' int] | '(' coeff ')'

    A product of factors multiplies scalars and wedges generators in the
    written order, whether joined by '*', '^' or nothing; '^' followed by
    digits is a power.  '·' counts as a blank.  Joins, call heads and a
    power's '^' are read in one compiled match each.  A factor is read as raw
    (coefficient, scalar pairs, generator pairs) triples: a call and its power
    are built by `_call`, through the form builders and Form.wedge, interned
    by text.  Each term is built once by `_keyed_term`, the form merged once.
    """

    BLANKS = re.compile(_BLANK)

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
        while join := _JOIN(self.text, self.pos):
            self.pos = join.end()
            more_degree, more = self.factor()
            degree, triples = degree + more_degree, _product(triples, more)
        return degree, [_keyed_term(c if sign > 0 else -c, s, g) for c, s, g in triples]

    def factor(self) -> tuple:
        """(degree, raw triples) of one factor."""
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            c = self.coeff()
            if not self.take(")"):
                self.error("expected ) after coefficient")
            return 0, [(c, (), ())]
        if ch.isdigit():
            return 0, [(self.coeff(), (), ())]
        if not ch.isalpha():
            self.error("expected a factor")
        head = _CALL_HEAD(self.text, self.pos)
        self.pos = head.end()
        if not head.group(2):
            self.error("expected ( after %r" % head.group(1))
        args, ch = [], "("
        while ch != ")":  # span stops at the ',' or ')' after each argument, or at the end
            args.append(self.span(",)"))
            ch = self.text[self.pos : self.pos + 1]
            if not ch:
                self.error("unbalanced parentheses in call")
            self.pos += 1
        try:  # resolved before its power is read, so each error keeps its place
            call = _call(head.group(1), tuple(args), 1)
        except LookupError:
            self.error("unknown call %s/%d" % (head.group(1), len(args)))
        if power := _POWER(self.text, self.pos):
            self.pos = power.end()
            power = self.coeff()
            if power.denominator != 1 or power < 1:
                self.error("bad power")
            call = _call(head.group(1), tuple(args), int(power))
        return call

    def coeff(self) -> Rational:
        sign = -1 if self.take("-") else 1
        num = sign * self.integer()  # no blank between a sign and its digits
        if not self.take("/"):
            return num
        self.peek()
        den = self.integer()
        if not den:
            self.error("zero denominator")
        return Fraction(num, den)


# the form builder of each call name and arity; L<p>(f) is sv_scalar(p, f) for a decimal p >= 1
_BUILDERS = {("log", 1): log_abs, ("dlog", 1): dlog, ("darg", 1): diarg, ("alpha", 2): alpha}


@functools.lru_cache(maxsize=_INTERNED)
def _call(name: str, args: tuple, power: int) -> tuple:
    """(degree, raw triples) of name(args)^power by its form builder and Form.wedge,
    the same tuples for the same texts; LookupError for an unknown name or arity."""
    fs = [parse_function(a.strip()) for a in args]
    p = int(name[1:]) if name[:1] == "L" and name[1:].isdecimal() else 0
    build = (lambda f: sv_scalar(p, f)) if p and len(fs) == 1 else _BUILDERS.get((name, len(fs)))
    if build is None:
        raise LookupError(name)
    base = out = build(*fs)
    for _ in range(power - 1):  # once it vanishes, the factors left add only their degree
        if not out.terms:
            break
        out = out.wedge(base)
    return base.degree * power, tuple((t.coefficient, *t.pairs()) for t in out.terms)


def parse_form(text: str) -> Form:
    """Parse the printer/golden grammar back into a Form."""
    return _FormParser(text).parse()
