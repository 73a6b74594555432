"""Chain elements {f}_p (x) g_1^...^g_q, the differential, and residues.

A weight-n element is an integer combination of terms {f}_p tensor a wedge of
q = n - p functions (each wedge slot carries weight 1).  Depth p = 0 encodes a
pure wedge, which is always the top degree of its weight.  Degrees: q + 1 for
bracket terms, q for pure wedges.  Since depth 1 is excluded, a grading holds
either brackets or pure wedges, never both, so every term of an element
shares its wedge size q: degree - 1 for brackets, degree for pure wedges.

The differential sends {f}_p (x) w to {f}_{p-1} (x) f^w for p >= 3 and to
(1-f)^f^w for p = 2; brackets with argument 0 or 1 are zero.  Residues at a
place v of Q(t) act as s_v on the bracket (reduction when the argument is a
unit, zero otherwise) tensor theta on the wedge, where theta pulls out the
uniformizer multiplicity of one slot at a time:

    theta(g_1^...^g_q) = sum_i (-1)^(i-1) ord_v(g_i) * (unit parts, slot i omitted)

The twisted residue, which commutes with the differential, is
(-1)^q * residue, q the element's shared wedge size.

Wedges are kept in a canonical sorted order with permutation sign, and
elements merged by term key, by the signed-combination core of `funcfield`
(`sort_signed`, `Combination`); a repeated entry or an entry equal to the
constant 1 makes the term zero, and a zero entry is rejected wherever it
stands.  No further multiplicative relations are imposed on wedge slots.
"""

from __future__ import annotations

import random
import re
from typing import Iterable, List, Optional, Sequence, Tuple

from .exact import report_case, suite_report
from .funcfield import (
    Combination,
    RationalFunction,
    Valuation,
    _order_and_unit,
    _Reader,
    const,
    one_minus,
    parse_function,
    sort_signed,
)


def _grading(depth: int, q: int) -> tuple:
    """(weight, degree) of {f}_depth tensor q wedge slots; depth 0: a pure wedge."""
    return depth + q, q + 1 if depth else q


class ChainTerm:
    """One normalized term; use the module constructors, not this directly.
    Its key is computed once, by `_make_term`, and kept."""

    __slots__ = ("coefficient", "depth", "argument", "wedge", "grading", "_key")

    def __init__(self, coefficient: int, depth: int, argument, wedge: tuple, key: tuple):
        self.coefficient = coefficient
        self.depth = depth
        self.argument = argument
        self.wedge = wedge
        self.grading = _grading(depth, len(wedge))
        self._key = key

    def key(self):
        return self._key

    def scaled(self, coefficient: int) -> "ChainTerm":
        return ChainTerm(coefficient, self.depth, self.argument, self.wedge, self._key)

    def __repr__(self):
        return "ChainTerm(%s)" % format_term(self.coefficient, self)


def _make_term(coefficient: int, depth: int, argument, wedge) -> Optional[ChainTerm]:
    if type(coefficient) is not int:  # the complex is over Z
        raise TypeError("chain coefficients are ints, not %s" % type(coefficient).__name__)
    if coefficient == 0:
        return None
    if depth == 1:
        raise ValueError("depth-1 brackets are not part of the complex")
    if depth and argument is None:
        raise ValueError("bracket terms need an argument")
    if not depth and argument is not None:
        raise ValueError("a bracket needs depth >= 2, not 0")
    if any(g.is_zero() for g in wedge):  # wherever it stands, before any shortcut
        raise ValueError("zero is not allowed in a wedge slot")
    if depth and argument.is_constant() and argument.constant_value() in (0, 1):
        return None
    if any(g.is_constant() and g.constant_value() == 1 for g in wedge):
        return None
    signed = sort_signed([(g.key(), g) for g in wedge])
    if signed is None:
        return None
    sign, keys, entries = signed
    key = (depth, argument.key() if argument is not None else "", keys)
    return ChainTerm(sign * coefficient, depth, argument, entries, key)


class ChainElement(Combination):
    """Normalized integer combination of terms of one weight and degree."""

    __slots__ = ("weight", "degree")
    ring = int

    def __init__(self, weight: int, degree: int, terms: Tuple[ChainTerm, ...]):
        self.weight = weight
        self.degree = degree
        self.terms = terms

    @property
    def grading(self) -> tuple:
        return (self.weight, self.degree)

    def _format_term(self, coefficient: int, t: ChainTerm) -> str:
        return format_term(coefficient, t)


def format_term(coefficient: int, t: ChainTerm) -> str:
    if t.depth == 0 and not t.wedge:
        return str(coefficient)
    text = "%d*" % coefficient if coefficient != 1 else ""
    if t.depth:
        text += "{%s}_%d" % (t.argument, t.depth)
        if t.wedge:
            text += " " + "⊗" + " "
    text += " ∧ ".join(_atom(g) for g in t.wedge)
    return text.strip()


def _atom(g: RationalFunction) -> str:
    s = str(g)
    return s if s.isalnum() or (s.startswith("(") and s.endswith(")")) else "(%s)" % s


def element(terms: Iterable[Optional[ChainTerm]], weight: int, degree: int) -> ChainElement:
    """The normalized element of the grading: raw terms merged, zeros dropped."""
    return ChainElement.merge((weight, degree), terms)


def bracket(f: RationalFunction, p: int, coefficient: int = 1) -> ChainElement:
    """The element coefficient * {f}_p."""
    return bracket_tensor(f, p, (), coefficient)


def bracket_tensor(
    f: RationalFunction, p: int, wedge: Sequence[RationalFunction], coefficient: int = 1
) -> ChainElement:
    wedge = tuple(wedge)
    return element([_make_term(coefficient, p, f, wedge)], *_grading(p, len(wedge)))


def pure_wedge(entries: Sequence[RationalFunction], coefficient: int = 1) -> ChainElement:
    return bracket_tensor(None, 0, entries, coefficient)


def delta(e: ChainElement) -> ChainElement:
    """The differential; raises on top-degree (pure-wedge) elements."""
    if e.degree >= e.weight:
        raise ValueError("delta is undefined on top-degree pure wedges")
    out: List[Optional[ChainTerm]] = []
    for t in e.terms:
        if t.depth == 2:
            head = (one_minus(t.argument), t.argument)
            out.append(_make_term(t.coefficient, 0, None, head + t.wedge))
        else:
            out.append(_make_term(t.coefficient, t.depth - 1, t.argument, (t.argument,) + t.wedge))
    return element(out, e.weight, e.degree + 1)


def theta(wedge: Sequence[RationalFunction], v: Valuation) -> ChainElement:
    """Residue of a pure wedge; output entries are constants."""
    parts = [_order_and_unit(g, v) for g in wedge]
    units = [const(unit) for _, unit in parts]
    terms = []
    for i, (e_i, _) in enumerate(parts):
        if e_i == 0:
            continue
        rest = tuple(units[:i] + units[i + 1 :])
        sign = -1 if i % 2 else 1
        terms.append(_make_term(sign * e_i, 0, None, rest))
    q = len(parts)
    return element(terms, q - 1, q - 1)


def residue(e: ChainElement, v: Valuation) -> ChainElement:
    """s_v tensor theta; weight drops by one, degree drops by one."""
    out: List[Optional[ChainTerm]] = []
    for t in e.terms:
        reduced = None  # a pure wedge has no bracket to reduce
        if t.depth:
            order, unit = _order_and_unit(t.argument, v)
            if order:
                continue
            reduced = const(unit)
        for w in theta(t.wedge, v).terms:
            out.append(_make_term(t.coefficient * w.coefficient, t.depth, reduced, w.wedge))
    return element(out, e.weight - 1, e.degree - 1)


def residue_twisted(e: ChainElement, v: Valuation) -> ChainElement:
    """(-1)^q s_v tensor theta, q the wedge size of every term of e; commutes
    with delta."""
    q = e.degree if e.degree >= e.weight else e.degree - 1
    return (-1) ** q * residue(e, v)


# ---------------------------------------------------------------------------
# random elements and the chain-morphism check


# Sampler pools for the morphism check.  The residue comparison is exact on
# the nose when either ord_v(f) = 0 (both routes then build syntactically
# identical wedges) or every unit part at v lies in {1, -1} (the entry-1 and
# repeated-entry rules kill all surviving terms).  Entries whose unit part at
# a tested place is some other rational leave 2-torsion classes like (-1)^2
# that only cancel under multiplicative relations this representation does
# not impose; see the regression test pinning {2t+1}_2 (x) t at infinity.
# Hence: wedge entries are monic (unit part 1 at infinity), and the one
# non-monic-ratio function is allowed only as a bracket argument, where it is
# a unit at every tested place.
_WEDGE_POOL = ["t", "t+1", "t-1", "t+2", "t-2", "t+3", "(t+1)/(t-2)", "(2+t)/(1+t)"]
_BRACKET_POOL = _WEDGE_POOL + ["(2*t+1)/(t+3)"]


def random_element(weight: int, rng, depth: Optional[int] = None) -> ChainElement:
    """A random bracket term of the given weight over the standard pool."""
    if depth is None:
        depth = rng.choice([p for p in range(2, weight + 1)])
    name = rng.choice(_BRACKET_POOL)
    f = parse_function(name)
    pool = [s for s in _WEDGE_POOL if s != name]
    picks = []
    if depth < weight:
        # lead with a function that has a zero at one of the tested places,
        # so residues are frequently nonzero and sign comparisons decisive
        picks.append(rng.choice([p for p in ("t", "t-1") if p != name]))
    picks.extend(rng.sample([s for s in pool if s not in picks], weight - depth - len(picks)))
    funcs = [parse_function(s) for s in picks]
    coeff = rng.choice([1, -1, 2, 3, -2])
    return bracket_tensor(f, depth, funcs, coeff)


def residue_chain_check(weight: int, samples: int = 20, seed: int = 0) -> dict:
    """Compare residue(delta(e)) against delta(residue(e)) over random
    elements at the places 0, 1 and infinity.

    Passes when every non-vacuous comparison matches with one global sign,
    which is reported; mixed or non-proportional outcomes fail with
    counterexamples.
    """
    if weight < 2:
        raise ValueError("weight must be >= 2")
    if weight > len(_WEDGE_POOL) + 1:
        raise ValueError("weight must be <= %d: from weight %d on, a wedge of weight - 2 "
                         "slots can outnumber the %d wedge-pool functions besides the bracket's"
                         % (len(_WEDGE_POOL) + 1, len(_WEDGE_POOL) + 2, len(_WEDGE_POOL) - 1))
    rng = random.Random(seed)
    valuations = [Valuation.finite(0), Valuation.finite(1), Valuation.infinity()]
    signs = set()
    cases = []
    counterexamples = []
    undetermined = 0
    for i in range(samples):
        e = random_element(weight, rng)
        for v in valuations:
            lhs = residue(delta(e), v)
            rhs = delta(residue(e, v))
            if lhs.is_zero() and rhs.is_zero():
                undetermined += 1
                ok = True
            elif lhs == rhs:
                signs.add(1)
                ok = True
            elif lhs == -rhs:
                signs.add(-1)
                ok = True
            else:
                ok = False
                counterexamples.append({"element": str(e), "at": str(v)})
            cases.append(report_case("%s at %s" % (e, v), ok, 0.0 if ok else 1.0))
    return suite_report(
        "residue-chain",
        cases,
        ok=len(signs) <= 1,
        weight=weight,
        samples=samples,
        seed=seed,
        sign=next(iter(signs)) if len(signs) == 1 else None,
        undetermined=undetermined,
        counterexamples=counterexamples,
    )


# ---------------------------------------------------------------------------
# element text syntax


class _ElementParser(_Reader):
    """element := sign* term (sign term)* ['+']
    term    := [k '*'] ('{' f '}' '_' p ['(x)' slots] | slots)
    slots   := [slot ('^' slot)*]

    A slot ends at a '^', '+' or '-' outside brackets.  A term has a
    coefficient k when its text before the first '*' outside brackets is
    digits, blanks and brackets; k must then be an integer."""

    BLANKS = re.compile(r"\s")

    def element(self, weight: Optional[int]) -> ChainElement:
        sign, terms, grading = 1, [], None
        while self.peek() in _SIGNS:
            sign *= _SIGNS[self.peek()]
            self.pos += 1
        while self.peek():
            if not sign:  # after a term comes one sign; a '+' at the end adds nothing
                sign = _SIGNS.get(self.peek()) or self.error("expected '+' or '-'")
                self.pos += 1
                if self.peek() in _SIGNS:
                    self.error("dangling sign")
                continue
            start, (coefficient, depth, argument, wedge) = self.pos, self.term()
            written = _grading(depth, len(wedge))
            if grading is None:
                grading = (written[0] if weight is None else weight, written[1])
            if written != grading:
                self.error("the term %r has weight %d and degree %d, not %d and %d"
                           % (self.text[start : self.pos].strip(), *written, *grading))
            terms.append(_make_term(sign * coefficient, depth, argument, wedge))
            sign = 0
        if not terms:
            self.error("empty element")
        if sign < 0:
            self.error("dangling sign")
        return element(terms, *grading)

    def term(self) -> tuple:
        """One term as written, before it is normalized: (coefficient,
        depth, argument, wedge)."""
        coefficient, start, ch = 1, self.pos, self.peek()
        if ch.isdigit() or ch == "(":  # other heads fail either way
            head = self.span("*^+-")
            if self.peek() == "*" and _COEFFICIENT_HEAD(head):
                if not head.strip().isdigit():
                    self.error("coefficient must be an integer: %r" % head.strip())
                coefficient = int(head)
                self.pos += 1
            else:
                self.pos = start
        if not self.take("{"):
            return coefficient, 0, None, self.slots()
        argument = parse_function(self.span("}"))
        if not (self.take("}") and self.take("_")):
            self.error("a bracket needs '}' and a depth '_p'")
        depth = self.integer()
        return coefficient, depth, argument, self.slots() if self.take("(x)") else ()

    def slots(self) -> tuple:
        """The wedge slots; none when only blanks are left of the term."""
        texts = [self.span("^+-").strip()]
        while self.take("^"):
            texts.append(self.span("^+-").strip())
        if texts == [""]:
            return ()
        if "" in texts:
            self.error("empty wedge slot")
        return tuple(map(parse_function, texts))


_COEFFICIENT_HEAD = re.compile(r"[\d\s(){}\[\]*]*").fullmatch
_SIGNS = {"+": 1, "-": -1}


def parse_element(text: str, weight: Optional[int] = None) -> ChainElement:
    """Parse `3*{(1-t)/t}_2 (x) t ^ (1+t)`; unicode tensor/wedge also accepted.

    `^`, `+` and `-` outside brackets end a wedge slot, so write sums,
    differences and powers in a slot inside parentheses: `{t}_3 (x) (t-1)`,
    `(t^2) ^ g`.  Each term as written must have the weight (the given one,
    else the first term's) and the degree of the first term: the `1` that
    `{t}_3 (x) t-1` splits off is an error, though it would reduce to zero.
    """
    return _ElementParser(text.replace("⊗", " (x) ").replace("∧", " ^ ")).element(weight)
