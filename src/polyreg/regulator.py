"""Regulator maps from polylogarithmic chain elements to differential forms.

The dictionary: a depth-p bracket carrying m wedge slots goes to a
degree-m form assembled from single-valued polylogarithm scalars and
the two weighted-alternation patterns; a pure wedge goes to the
alternating log/dlog/diarg combination with odd harmonic coefficients.
Everything extends Z-linearly over the terms of an element.  Every term, a
bracket bare or with slots or a pure wedge, is the pullback of the image its
direct builder (`_bracket_image`, `_wedge_image`) gives once per (depth,
slots) on free atoms (`forms` docstring, "Free shapes").

Three numeric suites probe the defining identities at generic points:

* chain_check     d(r(e)) == r(delta(e)) evaluated on random frames
* top_check       d(r(top wedge)) + projected holomorphic part == 0
* loop_residue_check   the loop integral of r(e) around a divisor
                       point extrapolates to 2*pi*i times r of the
                       residue element

Each check reads the weight off its element, builds the plan of the forms it
compares (`forms._Plan`), draws its samples by it (`_draw`) and evaluates
the forms through it; the chain and top checks refuse a defect that is not
finite (`_worse`).  The loop check's expected value is r of the residue
element by `forms.evaluate`, on a plan of its own: the residue's entries
are constants, and a constant is exact, so no guard refuses one but 0.
golden_formula_tests compares the map symbolically against transcribed
closed forms kept under golden/.
"""

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .exact import beta_kp, report_case, suite_report
from .forms import (
    Form,
    GenericityError,
    alpha,
    evaluate,
    exterior_derivative,
    form,
    format_form,
    log_abs,
    parse_form,
    sv_pq,
    sv_scalar,
    _alternation_sum,
    _det,
    _Plan,
    _pullback,
)
from .funcfield import (
    PoleError,
    RationalFunction,
    Valuation,
    _compile,
    _coordinates,
    _evaluate,
    one_minus,
    parse_function,
)
from .polycomplex import (
    ChainElement,
    bracket_tensor,
    delta,
    parse_element,
    pure_wedge,
    residue,
)
from .polylog import pi_projection

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class RegulatorConfig:
    tol: float = 1e-6
    samples: int = 20
    seed: int = 0
    loop_radii: Tuple[float, ...] = (1e-2, 3e-3, 1e-3)
    loop_nodes: int = 256

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        radii = tuple(float(r) for r in self.loop_radii)
        if any(b >= a for a, b in zip(radii, radii[1:])):
            raise ValueError("loop radii must be strictly decreasing")
        if len(radii) < 3:
            raise ValueError("need at least 3 loop radii: the residue fit has 3 unknowns")
        if not all(0 < r < math.inf for r in radii):
            raise ValueError("loop radii must be positive and finite")
        if self.loop_nodes < 64:
            raise ValueError("need at least 64 loop nodes")
        object.__setattr__(self, "loop_radii", radii)


# ---------------------------------------------------------------------------
# the map itself


def _bracket_image(n: int, f: RationalFunction, gs: Sequence[RationalFunction]) -> Form:
    """Image of {f}_n tensor g_1^...^g_m, m >= 0: sv_n(f) on the dlog/diarg
    alternation, plus, for each k < n, the lead sv_{n-k,k}(f) wedged once on
    its row, the log-prefixed alternations weighted by beta_{k,s}."""
    m = len(gs)
    head = _alternation_sum(
        gs, False, [(2 * p, Fraction(1, 2 * p + 1)) for p in range(m // 2 + 1)]
    )
    terms = list(sv_scalar(n, f).wedge(head).terms)
    for k in range(1, n):
        row = _alternation_sum(gs, True, [(s, beta_kp(k, s)) for s in range(1, m + 1)])
        terms += sv_pq(n - k, k, f).wedge(row).terms
    return form(m, terms)


def _wedge_image(n: int, f, gs: Sequence[RationalFunction]) -> Form:
    """Image of a pure wedge g_1^...^g_m, m >= 1; n = 0 and f are unread.

    The single-slot case is the bottom row of the weight-1 complex,
    log|g|; the sign there is pinned by the loop-residue normalization.
    """
    m = len(gs)
    if m == 1:
        return log_abs(gs[0])
    return _alternation_sum(
        gs, True, [(2 * p + 1, Fraction(-1, 2 * p + 1)) for p in range((m - 1) // 2 + 1)]
    )


def r_map(e: ChainElement) -> Form:
    """The regulator form of a chain element, extended Z-linearly."""
    terms = []
    for t in e.terms:  # its shape's image with t's functions put in
        if not (t.depth or t.wedge):
            raise ValueError("malformed chain term: an empty pure wedge")
        terms += _pullback(_bracket_image if t.depth else _wedge_image, t.depth, t.argument,
                           t.wedge, t.coefficient)
    return form(max(e.degree - 1, 0), terms)


def holomorphic_part(fs: Sequence[RationalFunction], x, vectors) -> complex:
    """pi_n of the holomorphic form dlog f_1 ^ ... ^ dlog f_n on a frame."""
    return _holomorphic_parts(fs, x, [vectors])[0]


def _holomorphic_parts(fs: Sequence[RationalFunction], x, frames) -> List[complex]:
    """holomorphic_part at one point on each of several frames: each f_i and
    its partials are evaluated once, and each frame's entry
    sum_j (df_i/dx_j) v_j / f_i is summed over the variables in order, as
    the tests' reference rf_dir_derivative (tests/oracles.py) sums it."""
    n = len(fs)
    if any(len(vectors) != n for vectors in frames):
        raise ValueError("need exactly %d vectors" % n)
    names = sorted(set().union(*[set(f.variables()) for f in fs]) if fs else ())
    point, xs = _coordinates(x, names)
    frames = [[_coordinates(v, names, 0j)[1] for v in vectors] for vectors in frames]
    parts = []  # (f(x), ((slot, df/dx_slot), ...)) per function
    for f in fs:
        try:
            val, slopes = _evaluate(_compile(f, names), xs, 1e-12, point, True)
        except PoleError as exc:
            raise GenericityError(str(exc))
        if abs(val) < 1e-9:
            raise GenericityError("function vanishes at the sample point")
        parts.append((val, slopes))
    out = []
    for vectors in frames:
        rows = []
        for val, slopes in parts:
            row = []
            for v in vectors:
                total = 0j
                for k, slope in slopes:
                    total += slope * v[k]
                row.append(total / val)
            rows.append(row)
        out.append(pi_projection(n, _det(rows)))
    return out


# ---------------------------------------------------------------------------
# golden formulas


def _load_golden() -> List[dict]:
    blocks = []
    for path in sorted(_GOLDEN_DIR.glob("*.txt")):
        current, key = {}, None
        for raw in path.read_text().splitlines() + [""]:
            line = raw.rstrip()
            if line.lstrip().startswith("#"):
                continue
            if not line.strip():
                if current:
                    blocks.append(current)
                current, key = {}, None
                continue
            if line[0] in " \t":
                if key is None:
                    raise ValueError("continuation before any key in %s" % path.name)
                current[key] += " " + line.strip()
                continue
            key, _, value = line.partition(":")
            key = key.strip()
            current[key] = value.strip()
    return blocks


def golden_formula_tests() -> dict:
    """Symbolic comparison against the transcribed closed formulas."""
    cases = []
    for block in _load_golden():
        e = parse_element(block["element"], weight=int(block["weight"]))
        want = parse_form(block["form"]) * int(block.get("sign", "1"))
        got = r_map(e)
        okay = got == want
        sides = {} if okay else {"got": format_form(got), "want": format_form(want)}
        cases.append(report_case(block["case"], okay, **sides))

    # the depth-2 column: the general formula must specialize to the
    # displayed 1/((2p+1)(2p+3)) coefficients
    f = parse_function("f")
    gs = [parse_function("g%d" % i) for i in range(1, 5)]
    for m in range(1, 5):
        lhs = r_map(bracket_tensor(f, 2, gs[:m]))
        head = _alternation_sum(
            gs[:m], False, [(2 * p, Fraction(1, 2 * p + 1)) for p in range(m // 2 + 1)]
        )
        tail = _alternation_sum(
            gs[:m],
            True,
            [(2 * p + 1, Fraction(1, (2 * p + 1) * (2 * p + 3))) for p in range((m - 1) // 2 + 1)],
        )
        rhs = sv_scalar(2, f).wedge(head) - alpha(one_minus(f), f).wedge(tail)
        okay = lhs == rhs
        sides = {} if okay else {"got": format_form(lhs), "want": format_form(rhs)}
        cases.append(report_case("depth2-column-m%d" % m, okay, **sides))

    return suite_report("golden-formulas", cases)


# ---------------------------------------------------------------------------
# generic sampling


# chain_check and top_check compare both sides on this many frames per point
_FRAMES_PER_POINT = 3
_DRAWS = 400  # candidate points _draw tries before it gives up


def _draw(rng: random.Random, names: Sequence[str], functions: Sequence[RationalFunction],
          sizes: Sequence[int]) -> Tuple[dict, List[List[dict]]]:
    """A point where each distinct function with variables (by key, evaluated once per
    candidate) has modulus in [1e-3, 1e3], keeping logs and sv scalars well conditioned; then
    a frame per size.  A constant is exact, so no point makes it non-generic.  A candidate at
    a pole or past the double range is skipped; GenericityError after _DRAWS candidates."""
    compiled = [_compile(h, names) for h in {h.key(): h for h in functions}.values()
                if h.variables()]
    for _ in range(_DRAWS):
        xs = [complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in names]
        x = dict(zip(names, xs))
        try:
            if all(1e-3 <= abs(_evaluate(c, xs, 1e-12, x)[0]) <= 1e3 for c in compiled):
                break
        except ArithmeticError:  # a pole, or a value past the double range
            continue
    else:
        raise GenericityError("no generic sample point in %d draws: no candidate put every"
                              " function's modulus in [1e-3, 1e3]" % _DRAWS)
    return x, [[{n: cmath.rect(1.0, rng.uniform(0.0, 2 * math.pi)) for n in names}
                for _ in range(size)] for size in sizes]


def _worse(worst: float, defect: float, x: dict) -> float:
    """max(worst, defect) for a finite defect; a NaN or infinite one, which
    max() would pass by, is refused as non-generic, naming the point x."""
    if not math.isfinite(defect):
        raise GenericityError("a non-finite defect (%s) at the sample point %s" % (
            defect, ", ".join("%s=%r" % item for item in sorted(x.items()))))
    return max(worst, defect)


# ---------------------------------------------------------------------------
# chain-map square


def chain_check(e: ChainElement, cfg: Optional[RegulatorConfig] = None) -> dict:
    """Compare d(r(e)) with r(delta(e)) at generic sample frames.

    Also records the twist defect: values of r(e) itself must lie in
    i^(weight-1) R, at the weight of e.
    """
    cfg = cfg or RegulatorConfig()
    if e.degree >= e.weight:
        raise ValueError("top-degree element; use top_check")
    image = r_map(e)
    lhs = exterior_derivative(image)
    rhs = r_map(delta(e))
    plan = _Plan((lhs, rhs))
    rng = random.Random(cfg.seed)
    worst = twist_worst = 0.0
    samples, twists = [], []  # (point, frames): of both sides, and of r(e)
    sizes = [e.degree] * _FRAMES_PER_POINT + [e.degree - 1]
    for _ in range(cfg.samples):
        x, frames = _draw(rng, plan.names, plan.guarded, sizes)
        samples.append((x, frames[:-1]))
        twists.append((x, frames[-1:]))
    for (x, _), per_frame in zip(samples, plan.evaluate(samples)):
        for a, b in per_frame:
            worst = _worse(worst, abs(a - b), x)
    for (x, _), ((val,),) in zip(twists, _Plan((image,)).evaluate(twists)):
        twist_worst = _worse(twist_worst, abs(val - pi_projection(e.weight, val)), x)
    okay = worst < cfg.tol and twist_worst < cfg.tol
    case = report_case(str(e), okay, worst, cfg.tol, twist_defect=twist_worst)
    return suite_report("chain-map", [case], weight=e.weight, samples=cfg.samples, seed=cfg.seed)


def standard_chain_elements(weight: int) -> List[Tuple[str, ChainElement]]:
    """One element per bracket shape of the weight, depth p from 2 to the
    weight with q = weight - p slots (the last, q = 0, a bare bracket), in
    one, two, or three variables as the form degree demands.  The shapes
    cover weights 2-6: below 2 no bracket of depth >= 2 fits, and above 6 a
    5-slot shape needs a fourth variable."""
    if not 2 <= weight <= 6:
        raise ValueError("no standard chain shapes at weight %d (they cover weights 2-6); "
                         "the chain-map suite runs weights 3-6 by default" % weight)
    out = []
    uni = ["t", "t+2", "2*t-1", "t-3"]
    two = ["x", "y", "x+y", "x-2*y"]
    three = ["x", "y", "z", "x+y-z"]
    for p in range(2, weight + 1):
        q = weight - p
        # degree of the compared forms is q + 1; a frame of k vectors is
        # degenerate once k exceeds twice the variable count: take the fewest
        # variables that carry it, ceil((q + 1) / 2)
        nvars = (q + 2) // 2
        names, pool = (("t", uni), ("x,y", two), ("x,y,z", three))[nvars - 1]
        f = parse_function("(1-t)/(1+t)" if nvars == 1 else "(1-x)/(1+y)")
        out.append(("{%s}_%d, %d slots, vars %s" % (f, p, q, names),
                    bracket_tensor(f, p, [parse_function(g) for g in pool[:q]])))
    return out


def chain_suite(
    weights: Sequence[int] = (3, 4, 5, 6), cfg: Optional[RegulatorConfig] = None
) -> dict:
    """chain_check on every standard shape of each weight, the shapes of
    all weights built (and a weight outside 2-6 refused) before any runs."""
    cfg = cfg or RegulatorConfig()
    shapes = [(w, label, e) for w in weights for label, e in standard_chain_elements(w)]
    cases = [dict(chain_check(e, cfg)["cases"][0], input="weight %d: %s" % (w, label))
             for w, label, e in shapes]
    return suite_report("chain-map", cases, samples=cfg.samples, seed=cfg.seed)


# ---------------------------------------------------------------------------
# top row


def top_check(fs: Sequence[RationalFunction], cfg: Optional[RegulatorConfig] = None) -> dict:
    """d r(f_1^...^f_n) plus the projected holomorphic part must vanish."""
    cfg = cfg or RegulatorConfig()
    n = len(fs)
    if n < 2:
        raise ValueError("need at least two functions")
    image = r_map(pure_wedge(fs))
    lhs = exterior_derivative(image)
    names = sorted(set().union(*[set(f.variables()) for f in fs]))
    plan = _Plan((lhs,))
    functions = list(fs) + plan.guarded
    rng = random.Random(cfg.seed)
    worst = 0.0
    samples = [_draw(rng, names, functions, [n] * _FRAMES_PER_POINT) for _ in range(cfg.samples)]
    for (x, frames), per_frame in zip(samples, plan.evaluate(samples)):
        for (a,), b in zip(per_frame, _holomorphic_parts(fs, x, frames)):
            worst = _worse(worst, abs(a + b), x)
    case = report_case("^".join(str(f) for f in fs), worst < cfg.tol, worst, cfg.tol)
    return suite_report("top-cycle", [case], samples=cfg.samples, seed=cfg.seed)


# ---------------------------------------------------------------------------
# loop residues


def _lstsq(columns: Sequence[Sequence[float]], rhs: Sequence[complex]) -> List[complex]:
    """Least-squares coefficients of real columns against a complex right-hand
    side, by modified Gram-Schmidt and back substitution."""
    q, r, y, rest = [], [], [], list(rhs)
    for col in columns:
        v, row = [float(a) for a in col], []
        for qi in q:
            row.append(sum(a * b for a, b in zip(qi, v)))
            v = [a - row[-1] * b for a, b in zip(v, qi)]
        row.append(math.hypot(*v))
        q.append([a / row[-1] for a in v])
        r.append(row)
        y.append(sum(a * b for a, b in zip(q[-1], rest)))
        rest = [a - y[-1] * b for a, b in zip(rest, q[-1])]
    coef = []  # back substitution: column j of R is r[j]
    for j in reversed(range(len(columns))):
        coef.insert(0, (y[j] - sum(r[k][j] * c for k, c in enumerate(coef, j + 1))) / r[j][j])
    return coef


def loop_residue_check(
    e: ChainElement,
    a,
    cfg: Optional[RegulatorConfig] = None,
    orientation: int = 1,
    tol: float = 1e-3,
) -> dict:
    """Integrate r(e) around small circles |t - a| = eps and compare the
    eps -> 0 extrapolation with 2*pi*i times r of the residue element.

    The fit model is c + b*eps*log(eps) + d*eps; the slowest smooth
    contribution on the circle scales like eps*log(eps).
    """
    cfg = cfg or RegulatorConfig()
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    image = r_map(e)
    if image.degree != 1:
        raise ValueError("loop integration needs a 1-form image")
    plan = _Plan((image,))
    if len(plan.names) != 1:
        raise ValueError("loop integration needs a univariate element")
    try:  # a zero denominator, or a value past the double range
        point = Fraction(a)
        center = complex(point)
    except (ZeroDivisionError, OverflowError):
        raise ValueError("the point %r is not a finite rational in double range" % (a,)) from None
    values = []
    m = cfg.loop_nodes
    for eps in cfg.loop_radii:
        spokes = (cmath.rect(eps, orientation * 2 * math.pi * j / m) for j in range(m))
        try:
            nodes = plan.evaluate((center + s, [[orientation * 1j * s]]) for s in spokes)
        except OverflowError:
            raise GenericityError("a loop value past the double range at radius %g"
                                  % eps) from None
        values.append(sum((per_frame[0][0] for per_frame in nodes), 0j) * 2 * math.pi / m)
    design = [[1.0] * len(values), [eps * math.log(eps) for eps in cfg.loop_radii], cfg.loop_radii]
    loop_value = _lstsq(design, values)[0]

    res = residue(e, Valuation.finite(point))  # of degree 0, its entries constants
    expected = orientation * 2j * math.pi * evaluate(r_map(res), center)
    defect = abs(loop_value - expected) / max(1.0, abs(expected))
    case = report_case(
        "%s at %s%s" % (e, a, ", reversed" if orientation < 0 else ""),
        defect < tol,
        defect,
        tol,
        loop_value=[loop_value.real, loop_value.imag],
        expected=[expected.real, expected.imag],
    )
    return suite_report("loop-residue", [case], weight=e.weight)
