"""Regulator map, golden formulas, chain/top/loop verification suites."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from oracles import collision_elements, form_record, rf_dir_derivative
from polyreg import forms as F
from polyreg import regulator as R
from polyreg.cli import TOP_FAMILIES
from polyreg.funcfield import PoleError, _as_mapping, one_minus, rf_eval
from polyreg.funcfield import parse_function as pf
from polyreg.polycomplex import bracket_tensor, delta, parse_element, pure_wedge, random_element
from polyreg.polylog import pi_projection, sv_polylog
from polyreg.regulator import (
    RegulatorConfig,
    _draw,
    _holomorphic_parts,
    _lstsq,
    chain_check,
    chain_suite,
    golden_formula_tests,
    holomorphic_part,
    loop_residue_check,
    r_map,
    standard_chain_elements,
    top_check,
)

T = pf("t")
G = pf("g")
FVAR = pf("f")


class TestRMap:
    def test_bottom_row(self):
        assert r_map(parse_element("{f}_3", weight=3)) == F.sv_scalar(3, FVAR)

    def test_one_slot_weight3(self):
        got = r_map(bracket_tensor(FVAR, 2, [G]))
        want = F.sv_scalar(2, FVAR).wedge(F.diarg(G)) + F.alpha(
            one_minus(FVAR), FVAR
        ).wedge(F.log_abs(G)) * Fraction(-1, 3)
        assert got == want

    def test_two_slot_top(self):
        got = r_map(pure_wedge([FVAR, G]))
        want = F.log_abs(FVAR, -1).wedge(F.diarg(G)) + F.log_abs(G).wedge(
            F.diarg(FVAR)
        )
        assert got == want

    def test_single_slot_wedge(self):
        assert r_map(pure_wedge([G])) == F.log_abs(G)

    def test_weight5_one_slot(self):
        got = r_map(bracket_tensor(FVAR, 4, [G]))
        want = (
            F.sv_scalar(4, FVAR).wedge(F.diarg(G))
            + F.sv_pq(3, 1, FVAR).wedge(F.log_abs(G)) * Fraction(-1, 3)
            + F.sv_pq(1, 3, FVAR).wedge(F.log_abs(G)) * Fraction(1, 45)
        )
        assert got == want

    def test_linear(self):
        e1 = bracket_tensor(FVAR, 2, [G])
        e2 = bracket_tensor(pf("1-f"), 2, [G])
        assert r_map(2 * e1 - e2) == r_map(e1) * 2 - r_map(e2)

    def test_repeated_entry_collapses(self):
        assert r_map(pure_wedge([T, T])).is_zero()

    def test_malformed(self):
        with pytest.raises(ValueError):
            r_map(parse_element("{f}_2 (x) g", weight=4))

    def test_empty_pure_wedge_refused(self):
        # its free shape is the empty alternation; r_map must not read it as 0
        with pytest.raises(ValueError, match="empty pure wedge"):
            r_map(pure_wedge([]))


def test_construction_pinned():
    """What r_map, d and delta build on 95 elements, printed in order and
    hashed: the 15 standard shapes of weights 2-6 and 80 random elements.
    The digest was taken on the code that still built each beta row one
    split at a time and met the earlier pin over weights 3-7, itself taken
    with univariate functions still reduced by Euclid on Polynomial objects
    and every sum grown one summand at a time."""
    elements = [e for w in range(2, 7) for _, e in standard_chain_elements(w)]
    elements += [random_element(w, random.Random(s)) for s in range(20) for w in (3, 4, 5, 6)]
    digest = hashlib.sha256()
    for e in elements:
        image = r_map(e)
        parts = [str(e), F.format_form(image), F.format_form(F.exterior_derivative(image))]
        if e.degree < e.weight:
            parts += [str(delta(e)), F.format_form(r_map(delta(e)))]
        for part in parts:
            digest.update(part.encode())
    assert len(elements) == 95
    assert digest.hexdigest() == (
        "af4e006cb19a671867703926ff9367b8bb274fe2d6153d727e22b59a3beb6106"
    )


def direct_r_map(e):
    """r_map with each image built directly on e's own functions, by
    `_bracket_image` or, for a bare bracket, as its sv scalar, and by
    `_wedge_image` for a pure wedge, where r_map pulls back the free shape."""
    terms = []
    for t in e.terms:
        if t.depth >= 2:
            img = (R._bracket_image(t.depth, t.argument, t.wedge) if t.wedge
                   else F.sv_scalar(t.depth, t.argument))
        else:
            img = R._wedge_image(0, None, t.wedge)
        terms += (img * t.coefficient).terms
    return F.form(max(e.degree - 1, 0), terms)


class TestFreeShapes:
    """r_map pulls back each term, a bracket bare or with slots or a pure
    wedge, from the image built once per (depth, slots) on free atoms; the
    forms are those of the direct builder, term by term, coefficient types
    and text included."""

    def test_images_as_built_directly(self):
        elements = [random_element(w, random.Random(s)) for w in range(3, 9) for s in range(6)]
        elements += [bracket_tensor(f, n, [], c) for f in (FVAR, T, pf("(1-t)/(1+t)"), pf("1/2"))
                     for n in (2, 3, 4) for c in (1, -2, 3)]
        rng, pool = random.Random(30), ["t", "t+2", "1-t", "x", "y", "x+y", "2", "1/2", "-3"]
        wedges = [[pf(g) for g in family.split(";")] for family in TOP_FAMILIES]
        wedges += [[pf(g) for g in rng.sample(pool, m)] for m in range(1, 8) for _ in range(3)]
        elements += [pure_wedge(gs, c) for gs in wedges for c in (1, -2, 3)]
        for e in elements + collision_elements():
            assert form_record(r_map(e)) == form_record(direct_r_map(e)), str(e)
            if e.degree < e.weight and not e.is_zero():
                assert form_record(r_map(delta(e))) == form_record(direct_r_map(delta(e))), str(e)

    def test_a_changed_shape_fails_the_comparison(self, monkeypatch):
        e = bracket_tensor(FVAR, 3, [G, T])
        factors, ((c, sidx, gidx), *rest) = F._shape(R._bracket_image, 3, 2)
        changed = (factors, ((c + 1, sidx, gidx), *rest))
        monkeypatch.setattr(F, "_shape", lambda build, n, m: changed)
        assert form_record(r_map(e)) != form_record(direct_r_map(e))

    def test_one_shape_per_depth_and_slots(self):
        F._shape.cache_clear()
        for f, gs in ((FVAR, [G]), (T, [pf("t+2")]), (pf("1/2"), [FVAR])):
            r_map(bracket_tensor(f, 3, gs, 2))
        info = F._shape.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        F._shape.cache_clear()
        for gs in ([FVAR, G, T], [T, pf("t+2"), pf("2")], [G, pf("1/2"), FVAR]):
            r_map(pure_wedge(gs, -2))
        info = F._shape.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestGolden:
    def test_all_transcriptions(self):
        rep = golden_formula_tests()
        bad = [c["input"] for c in rep["cases"] if not c["pass"]]
        assert rep["pass"], bad
        # every weight column and the depth-2 specializations are present
        assert len(rep["cases"]) == 16


class TestHolomorphicPart:
    def test_single_function(self):
        assert holomorphic_part([T], 2, [1]) == 0.5

    def test_constant_is_zero(self):
        assert holomorphic_part([pf("5")], 2, [1]) == 0

    def test_pair_against_direct_arithmetic(self):
        fs = [T, one_minus(T)]
        z, v, w = 1.3 + 0.7j, 1, 0.4 + 1.1j
        got = holomorphic_part(fs, z, [v, w])
        a = [v / z, w / z]
        b = [-v / (1 - z), -w / (1 - z)]
        det = a[0] * b[1] - a[1] * b[0]
        want = 1j * det.imag
        assert abs(got - want) < 1e-14

    def test_repeated_function_vanishes(self):
        assert holomorphic_part([T, T], 2 + 1j, [1, 1j]) == 0

    def test_non_generic(self):
        with pytest.raises(F.GenericityError):
            holomorphic_part([T], 0, [1])

    def test_no_function_has_no_weight(self):
        # the empty determinant is 1, and pi_0 does not exist
        with pytest.raises(ValueError, match="weight must be >= 1"):
            holomorphic_part([], 2, [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1, float("nan"))], ids=repr)
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            holomorphic_part([T], bad, [1])
        with pytest.raises(ValueError, match="finite"):
            holomorphic_part([T], 2, [bad])


def reference_holomorphic_part(fs, x, vectors):
    """holomorphic_part as it was: rf_eval and rf_dir_derivative on every frame."""
    n = len(fs)
    if len(vectors) != n:
        raise ValueError("need exactly %d vectors" % n)
    names = sorted(set().union(*[set(f.variables()) for f in fs]) if fs else ())
    point = _as_mapping(x, names)
    frames = [_as_mapping(v, names) for v in vectors]
    rows = []
    for f in fs:
        try:
            val = rf_eval(f, point)
        except PoleError as exc:
            raise F.GenericityError(str(exc))
        if abs(val) < 1e-9:
            raise F.GenericityError("function vanishes at the sample point")
        rows.append([rf_dir_derivative(f, point, v) / val for v in frames])
    return pi_projection(n, F._det(rows))


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except ValueError as exc:  # the type and text must agree
        return type(exc), str(exc)
    values = value if isinstance(value, list) else [value]
    return [(v.real.hex(), v.imag.hex()) for v in values]


class TestHolomorphicPartsAgainstReference:
    """One evaluation per point over all of its frames gives the per-frame
    reference bit for bit, and raises what it raises."""

    @pytest.mark.parametrize("family", TOP_FAMILIES)
    def test_top_families(self, family):
        fs = [pf(s) for s in family.split(";")]
        names = sorted(set().union(*[set(f.variables()) for f in fs]))
        rng = random.Random(family)
        for _ in range(6):
            x = {v: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for v in names}
            frames = _draw(rng, names, (), [len(fs)] * 3)[1]
            want = [_outcome(reference_holomorphic_part, fs, x, vs) for vs in frames]
            if all(isinstance(w, list) for w in want):
                want = [w[0] for w in want]
            else:
                want = want[0]
            assert _outcome(_holomorphic_parts, fs, x, frames) == want
            assert _outcome(holomorphic_part, fs, x, frames[0]) == _outcome(
                reference_holomorphic_part, fs, x, frames[0]
            )

    @pytest.mark.parametrize(
        "fs, x",
        [
            ([T], 0),  # a zero
            ([T, one_minus(T)], 1),  # a zero of the second function
            ([pf("1/(t-1)"), T], 1),  # a pole
            ([pf("1/(t-1)"), T], 1 + 1e-13),  # inside the pole clearance
            ([pf("x"), pf("x+y")], {"x": 1, "y": -1}),
            ([pf("x"), pf("1/(x+y)")], {"x": 1, "y": -1}),
            ([pf("5"), pf("7")], 2),  # constants only
            ([T, pf("(t+1)/(t+1)")], 3),
        ],
    )
    def test_degenerate_points(self, fs, x):
        vectors = [1j] * len(fs) if not isinstance(x, dict) else [{"x": 1, "y": 1j}] * len(fs)
        assert _outcome(holomorphic_part, fs, x, vectors) == _outcome(
            reference_holomorphic_part, fs, x, vectors
        )
        assert _outcome(_holomorphic_parts, fs, x, [vectors, vectors]) == _outcome(
            lambda *a: [reference_holomorphic_part(*a)] * 2, fs, x, vectors
        )


CFG = RegulatorConfig(samples=5, seed=7)


class TestChainCheck:
    def test_weight3_univariate(self):
        e = bracket_tensor(pf("(1-t)/(1+t)"), 2, [T])
        rep = chain_check(e, CFG)
        assert rep["pass"]
        assert rep["cases"][0]["max_defect"] < 1e-6

    def test_weight5_two_variables(self):
        e = bracket_tensor(pf("(1-x)/(1+y)"), 3, [pf("x"), pf("y")])
        rep = chain_check(e, CFG)
        assert rep["pass"]
        assert rep["cases"][0]["max_defect"] < 1e-6

    def test_constant_bracket_argument(self):
        e = bracket_tensor(pf("3"), 2, [T])
        rep = chain_check(e, CFG)
        assert rep["pass"]

    def test_twist_recorded(self):
        e = bracket_tensor(pf("(1-t)/(1+t)"), 3, [T])
        rep = chain_check(e, CFG)
        assert rep["cases"][0]["twist_defect"] < 1e-8

    def test_rejects_top_degree(self):
        with pytest.raises(ValueError):
            chain_check(pure_wedge([T, pf("t+2")]), CFG)

    def test_rejects_weight_mismatch(self):
        # the check reads the element's weight; a stated one is checked where
        # the element is read
        with pytest.raises(ValueError, match="weight 3"):
            parse_element("{f}_2 (x) g", weight=4)
        assert chain_check(bracket_tensor(FVAR, 2, [G]), CFG)["weight"] == 3

    def test_deterministic(self):
        e = bracket_tensor(pf("(1-t)/(1+t)"), 2, [T])
        assert chain_check(e, CFG) == chain_check(e, CFG)

    def test_shape_table(self):
        shapes = standard_chain_elements(5)
        assert len(shapes) == 4
        rep = chain_suite(weights=(3,), cfg=RegulatorConfig(samples=3, seed=1))
        assert rep["pass"]
        with pytest.raises(ValueError, match="weight 1 .*weights 3-6"):
            chain_suite(weights=(3, 1), cfg=RegulatorConfig(samples=3, seed=1))

    @pytest.mark.parametrize("weight", [1, 7, 8])
    def test_shapes_outside_their_range_are_refused(self, weight):
        with pytest.raises(ValueError, match="weight %d .*weights 2-6" % weight):
            standard_chain_elements(weight)

    @pytest.mark.parametrize("weight", range(2, 7))
    def test_each_label_matches_its_element(self, weight):
        shapes = standard_chain_elements(weight)
        assert len(shapes) == weight - 1  # depths 2..weight
        for depth, (label, e) in enumerate(shapes, 2):
            (t,) = e.terms
            names = sorted({v for g in (t.argument, *t.wedge) for v in g.variables()})
            assert label == "{%s}_%d, %d slots, vars %s" % (t.argument, depth, len(t.wedge),
                                                             ",".join(names))
            assert (t.depth, e.weight) == (depth, weight)


class TestDraw:
    """A candidate point evaluates each distinct guarded function once."""

    @pytest.mark.parametrize("check", ["top x;y;x+y", "chain w4 depth 3"])
    def test_each_guard_once_per_candidate(self, monkeypatch, check):
        points, real = [], R._evaluate

        def counted(compiled, xs, clearance, point, slopes=False):
            if not slopes:  # a guard, not top_check's holomorphic part
                points.append(tuple(xs))
            return real(compiled, xs, clearance, point, slopes)

        monkeypatch.setattr(R, "_evaluate", counted)
        cfg = RegulatorConfig(samples=3)
        if check.startswith("top"):
            fs = [pf(text) for text in ("x", "y", "x+y")]
            guards = fs + F._Plan((F.exterior_derivative(r_map(pure_wedge(fs))),)).guarded
            top_check(fs, cfg)
        else:
            label, e = standard_chain_elements(4)[1]
            assert label == "{(-t+1)/(t+1)}_3, 1 slots, vars t"
            guards = F._Plan((F.exterior_derivative(r_map(e)), r_map(delta(e)))).guarded
            chain_check(e, cfg)
        keys = {g.key() for g in guards}
        assert len(keys) < len(guards)  # a function guarded twice
        assert len(set(points)) >= cfg.samples  # the candidates drawn
        assert len(points) == len(set(points)) * len(keys)

    def test_a_candidate_past_the_double_range_is_skipped(self, monkeypatch):
        # a guard's x ** e past the double range raises OverflowError, which
        # used to end the draw; it is skipped as a pole is
        points, real = [], R._evaluate

        def overflowing(compiled, xs, clearance, point, slopes=False):
            points.append(tuple(xs))
            if len(points) <= 3:
                raise OverflowError("complex exponentiation")
            return real(compiled, xs, clearance, point, slopes)

        monkeypatch.setattr(R, "_evaluate", overflowing)
        x, _ = R._draw(random.Random(5), ["t"], [pf("t+1")], [1])
        rng = random.Random(5)
        candidates = [complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(4)]
        assert points == [(c,) for c in candidates] and x == {"t": candidates[3]}

    def test_no_generic_point_is_a_genericity_error(self):
        # |t^2 + 10000| > 1e3 on the whole square drawn from; this used to be
        # a RuntimeError, a traceback in the CLI
        with pytest.raises(F.GenericityError, match=r"^no generic sample point in 400 draws: "
                           r"no candidate put every function's modulus in \[1e-3, 1e3\]$"):
            R._draw(random.Random(0), ["t"], [pf("t^2+10000")], [1])


class TestTopCheck:
    def test_pair(self):
        rep = top_check([T, one_minus(T)], CFG)
        assert rep["pass"] and rep["cases"][0]["max_defect"] < 1e-6

    def test_triple_two_variables(self):
        rep = top_check([pf("x"), pf("y"), pf("x+y")], CFG)
        assert rep["pass"] and rep["cases"][0]["max_defect"] < 1e-6

    def test_quadruple(self):
        rep = top_check(
            [pf("x"), pf("y"), pf("x+y"), pf("x-y")],
            RegulatorConfig(samples=3, seed=3),
        )
        assert rep["pass"]

    def test_needs_two(self):
        with pytest.raises(ValueError):
            top_check([T], CFG)


class TestNonFiniteDefect:
    """A NaN defect used to pass: max(0.0, nan) is 0.0.  Here the slope
    (p*b - a*q)/(b*b) of the large-coefficient quotient overflows to NaN at
    the drawn point, while its value stays moderate."""

    MESSAGE = r"^a non-finite defect \(nan\) at the sample point x=\(.*\), y=\(.*\)$"

    def test_top_check(self):
        with pytest.raises(F.GenericityError, match=self.MESSAGE):
            top_check([pf("y"), pf("(10^200*x+1)/(10^200*y+1)")], RegulatorConfig(samples=3))

    def test_chain_check(self):
        e = bracket_tensor(pf("(10^300*x+1)/(10^300*y+1)"), 2, [pf("x")])
        with pytest.raises(F.GenericityError, match=self.MESSAGE):
            chain_check(e, RegulatorConfig(samples=2))

    def test_a_finite_defect_above_tol_still_fails(self):
        cfg = RegulatorConfig(samples=2, tol=1e-300)
        for rep in (top_check([pf("x"), pf("y"), pf("x+y")], cfg),
                    chain_check(bracket_tensor(pf("(1-x)/(1+y)"), 2, [pf("x")]), cfg)):
            (case,) = rep["cases"]
            assert not rep["pass"] and 0.0 < case["max_defect"] < 1e-6


class TestLoopResidue:
    def test_weight2_log2(self):
        e = parse_element("(t+2)^t", weight=2)
        rep = loop_residue_check(e, 0)
        c = rep["cases"][0]
        assert c["pass"]
        assert abs(c["expected"][1] + 2 * math.pi * math.log(2)) < 1e-12
        assert abs(c["loop_value"][1] + 2 * math.pi * math.log(2)) < 1e-3

    def test_weight3_dilog_at_2(self):
        e = parse_element("{(2+t)/(1+t)}_2 (x) t", weight=3)
        rep = loop_residue_check(e, 0)
        c = rep["cases"][0]
        assert c["pass"]
        # the residue element is {2}_2 and its scalar vanishes on the reals
        assert abs(complex(*c["expected"])) < 1e-12

    def test_weight4_nonzero_probe(self):
        e = parse_element("{(2+t)/(1+t)}_3 (x) t", weight=4)
        rep = loop_residue_check(e, 0)
        c = rep["cases"][0]
        want = 2j * math.pi * sv_polylog(3, 2.0).real
        assert abs(complex(*c["expected"]) - want) < 1e-12
        assert abs(want) > 1
        assert c["pass"]

    def test_orientation_flip(self):
        e = parse_element("(t+2)^t", weight=2)
        fwd = loop_residue_check(e, 0)["cases"][0]
        rev = loop_residue_check(e, 0, orientation=-1)["cases"][0]
        assert rev["pass"]
        assert abs(rev["loop_value"][1] + fwd["loop_value"][1]) < 1e-12

    def test_units_give_zero(self):
        e = parse_element("(t+2)^(t+3)", weight=2)
        rep = loop_residue_check(e, 0)
        c = rep["cases"][0]
        assert c["pass"] and abs(complex(*c["loop_value"])) < 1e-6

    def test_rejects_multivariate(self):
        e = pure_wedge([pf("x"), pf("y")])
        with pytest.raises(ValueError):
            loop_residue_check(e, 0)

    def test_rejects_scalar_image(self):
        with pytest.raises(ValueError):
            loop_residue_check(parse_element("{t}_2", weight=2), 0)

    def test_rejects_bad_orientation(self):
        e = parse_element("(t+2)^t", weight=2)
        with pytest.raises(ValueError):
            loop_residue_check(e, 0, orientation=2)

    @pytest.mark.parametrize("text, want", [
        ("(t*(t+2))^(t*(t+5))", 2j * math.pi * math.log(5 / 2)),  # res = (5) - (2)
        ("3*{(2+t)/(1+t)}_3 (x) t - 2*{(t+3)/(t-5)}_3 (x) t",
         2j * math.pi * (3 * sv_polylog(3, 2.0) - 2 * sv_polylog(3, -3 / 5)).real),
    ])
    def test_residue_of_several_terms(self, text, want):
        c = loop_residue_check(parse_element(text), 0)["cases"][0]
        assert c["pass"]
        assert abs(complex(*c["expected"]) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("text, passes", [
        ("{(10000001+10000000*t)/10000000}_2 (x) t", True),
        ("{(10000001+10000000*t)/10000000}_3 (x) t", True),
        ("(1+10000000*t)/10000000 ^ t", False),
    ])
    def test_residue_a_constant_near_a_guard(self, text, passes):
        # the residue {1 + 1e-7}_n or (1e-7) is a constant within the plan's
        # clearance of 1 or 0; a constant is exact, so it is valued, not
        # refused.  The wedge fails: the zero of its slot at -1e-7 lies inside
        # every loop, so the loops do not see the residue at 0 alone.
        assert loop_residue_check(parse_element(text), 0)["pass"] is passes


class TestConfig:
    def test_defaults_valid(self):
        cfg = RegulatorConfig()
        assert cfg.loop_nodes >= 64
        assert all(a > b for a, b in zip(cfg.loop_radii, cfg.loop_radii[1:]))

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            RegulatorConfig(tol=0.0)
        with pytest.raises(ValueError):
            RegulatorConfig(loop_radii=(1e-3, 1e-2))
        with pytest.raises(ValueError):
            RegulatorConfig(loop_nodes=32)
        with pytest.raises(ValueError):
            RegulatorConfig(samples=0)
        # the residue fit c + b eps log eps + d eps has three unknowns
        with pytest.raises(ValueError, match="at least 3"):
            RegulatorConfig(loop_radii=(1e-2, 1e-3))
        # an infinite tol passed every sampled defect, and a radius of nan
        # or inf failed later, at the loop's coordinates
        for tol in (math.inf, math.nan):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                RegulatorConfig(tol=tol)
        for radii in ((1e-2, 3e-3, math.nan), (math.inf, 1e-2, 1e-3), (1e-2, 3e-3, -1e-3)):
            with pytest.raises(ValueError, match="loop radii must be positive and finite"):
                RegulatorConfig(loop_radii=radii)


class TestResidueFit:
    @pytest.mark.parametrize("radii", [(1e-2, 3e-3, 1e-3), (2e-2, 1e-2, 5e-3, 2e-3, 1e-3)])
    def test_recovers_exact_model(self, radii):
        c, b, d = 0.3 - 1.7j, -2.5 + 0.25j, 11.0 + 4.0j
        values = [c + b * e * math.log(e) + d * e for e in radii]
        design = [[1.0] * len(radii), [e * math.log(e) for e in radii], radii]
        fit = _lstsq(design, values)
        assert max(abs(x - y) for x, y in zip(fit, (c, b, d))) < 1e-9
        assert abs(fit[0] - c) < 1e-13

    def test_least_squares_residual_is_orthogonal(self):
        radii = (2e-2, 1e-2, 5e-3, 2e-3, 1e-3)
        values = [1.0 + 0.5j, 0.9 + 0.4j, 1.1 + 0.45j, 0.95 + 0.5j, 1.02 + 0.47j]
        design = [[1.0] * len(radii), [e * math.log(e) for e in radii], radii]
        fit = _lstsq(design, values)
        residual = [v - sum(f * col[i] for f, col in zip(fit, design)) for i, v in enumerate(values)]
        for col in design:
            scale = math.hypot(*col) * max(map(abs, values))
            assert abs(sum(a * r for a, r in zip(col, residual))) < 1e-12 * scale
