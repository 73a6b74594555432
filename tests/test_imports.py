"""Import hygiene, by stdlib-ast scans of the package and tests.

Every imported name is used.  A name counts as used when the module reads it
(a bare name, or the head of an attribute chain such as `mp.isfinite`) or
lists it in `__all__`.  Package `__init__.py` files, whose imports are
re-exports, and `__future__` imports are exempt.

A suite report is built in one place: no module of the package but `exact`,
which holds the builder `suite_report`, writes a dict literal with a
"suite" key.

Text is lexed in one place: no class of the package outside `funcfield`,
which holds the cursor `_Reader`, defines `peek`, and the character loops
that the cursor replaced are gone by name.

Functions are evaluated in one place, and form terms read in one: no
module of the package but `funcfield` calls `_poly_column` or `_terms`,
the evaluator's polynomial parts, and none but `forms` reads the
`.scalars` or `.generators` of a term.

The package and the tests' references stay apart: no module of the package
imports `oracles`, no name that tests/oracles.py defines exists in a
package module, and tests/oracles.py imports none of the package's
evaluator (`_poly_column`, `_evaluate`, `_evaluate_columns`), so a check
against an oracle never compares the package with itself.

Free shapes live in one place: no module of the package but `forms`
imports one of its free-shape helpers other than `_pullback` or defines a
function named `*_shape`, so the slot layout (f, 1 - f, g_1, ...) is written
once.  And the regulator's images are built one way: the direct builders
`_bracket_image` and `_wedge_image` appear in the package only where they
are defined and as the first argument of `_pullback`.

The CLI's bounds live in its parser and its defaults in the library:
`cli._reports` holds no numeric literal, so it compares no `args.<name>` with
a number and restates no default, and `cli` keeps no second list of each
subcommand's options (`_ECHOED`).  An element carries its weight: no
function of `regulator` takes both an element `e` and a `weight`.

A form's factors are keyed by its builders alone: `_scalar_pair` and
`_gen_pair` are used only in `_single`, `_alternation_sum` and `_pullback`,
so the grammar builds its calls through the builders.  And a coefficient is
scaled by one rule: `_times` is defined once in the package.

Every constructor validates what it builds: no module of the package calls
`object.__new__`, so every object is made through its class's `__init__`.
And a polynomial's coefficients are folded once: no method of `Polynomial`
but `__init__` calls `_fold` or `_exact`.

The regulator values r through the evaluation plan alone: `regulator`
imports nothing from `polylog` but `pi_projection`, so it computes no sv
value of its own.

An sv argument is checked in one place: every public function of `polylog`
that takes (n, z) calls `_check_argument`.

mpmath is imported where it is used: no module of the package imports it at
import time, and a fresh interpreter that imports `polyreg`, evaluates the
double routes and runs `all` never loads it, while the 130-bit route still
runs from a fresh interpreter.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/polyreg/*.py"))
FILES = PACKAGE + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", [p for p in FILES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom math import pi, tau as t\nt\n"
    assert unused_imports(source) == [(2, "os"), (3, "pi")]


def imported_modules(source: str) -> set:
    """Every dotted name an import statement of the source mentions."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(filter(None, [node.module]))
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


def module_level_names(source: str) -> set:
    """The names a module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_package_does_not_import_oracles():
    offenders = [
        path.name
        for path in PACKAGE
        if any("oracles" in name.split(".") for name in imported_modules(path.read_text()))
    ]
    assert offenders == []


def test_no_oracle_name_in_the_package():
    names = module_level_names((ROOT / "tests" / "oracles.py").read_text())
    modules = [
        importlib.import_module("polyreg" if p.stem == "__init__" else "polyreg." + p.stem)
        for p in PACKAGE
    ]
    clashes = sorted((m.__name__, n) for m in modules for n in names if hasattr(m, n))
    assert "sv_transport" in names and clashes == []


# the package's evaluator, which tests/oracles.py must not import
EVALUATOR = {"_poly_column", "_evaluate", "_evaluate_columns"}


def test_oracles_do_not_import_the_evaluator():
    assert imported_modules((ROOT / "tests" / "oracles.py").read_text()) & EVALUATOR == set()


def test_guard_scans_find_a_violation():
    source = "from . import oracles\nfrom oracles.sub import f\nX: int = 1\nY = Z = 2\n"
    assert {"oracles", "oracles.sub"} <= imported_modules(source)
    evaluator = "from polyreg.funcfield import _compile, _evaluate as one\n"
    assert imported_modules(evaluator) & EVALUATOR == {"_evaluate"}
    source += "import os\ndef g(): pass\nclass C: pass\n"
    assert module_level_names(source) == {"X", "Y", "Z", "g", "C"}


def suite_literals(source: str) -> list:
    """The line of each dict literal in the source that has a "suite" key."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Dict)
        and any(isinstance(k, ast.Constant) and k.value == "suite" for k in node.keys)
    )


def test_suite_reports_come_from_one_builder():
    found = {path.name: suite_literals(path.read_text()) for path in PACKAGE}
    # exact: suite_report itself
    assert len(found.pop("exact.py")) == 1
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_suite_scan_finds_a_literal():
    source = 'a = {"suite": "x", "cases": []}\nb = {**a, "pass": True}\nc = dict(suite="y")\n'
    source += 'd = [{"input": 1}, {\n"suite": "z"}]\n'
    assert suite_literals(source) == [1, 4]


# the character loops that split element text and call arguments by hand
LOOP_NAMES = {"_split_terms", "_top_level_star", "_split_wedge", "call_args"}


def lexer_findings(source: str, filename: str) -> list:
    """(line, name) of each class outside funcfield.py that defines peek,
    and of each def, name or attribute in LOOP_NAMES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and filename != "funcfield.py":
            found += [
                (f.lineno, node.name + ".peek")
                for f in node.body
                if isinstance(f, ast.FunctionDef) and f.name == "peek"
            ]
        name = next(filter(None, (getattr(node, a, None) for a in ("name", "id", "attr"))), None)
        if name in LOOP_NAMES:
            found.append((node.lineno, name))
    return sorted(found)


def test_one_lexer():
    found = {path.name: lexer_findings(path.read_text(), path.name) for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_lexer_scan_finds_a_second_lexer():
    source = "class P(R):\n    def peek(self):\n        pass\n\n\n"
    source += "def _split_wedge(s):\n    return s\n"
    assert lexer_findings(source, "forms.py") == [(2, "P.peek"), (6, "_split_wedge")]
    assert lexer_findings(source, "funcfield.py") == [(6, "_split_wedge")]
    assert lexer_findings("args = self.call_args()\n", "forms.py") == [(1, "call_args")]


# name -> the one package module that may use it: called, or read as an attribute
OWNED_CALLS = {name: "funcfield.py" for name in ("_poly_column", "_terms")}
OWNED_ATTRIBUTES = {"scalars": "forms.py", "generators": "forms.py"}


def boundary_findings(source: str, filename: str) -> list:
    """(line, name) of each call of a name in OWNED_CALLS and each read of
    an attribute in OWNED_ATTRIBUTES outside the module that owns it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if OWNED_CALLS.get(name, filename) != filename:
                found.append((node.lineno, name))
        elif isinstance(node, ast.Attribute):
            if OWNED_ATTRIBUTES.get(node.attr, filename) != filename:
                found.append((node.lineno, node.attr))
    return sorted(found)


def test_one_evaluator_and_one_reader_of_terms():
    found = {path.name: boundary_findings(path.read_text(), path.name) for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_boundary_scan_finds_a_crossing():
    source = "for t in a.terms:\n    fs = [s[1] for s in t.scalars] + list(t.generators)\n"
    source += "v = _poly_column(num, cols, 1) / funcfield._terms(p, ())\n"
    assert boundary_findings(source, "regulator.py") == [
        (2, "generators"), (2, "scalars"), (3, "_poly_column"), (3, "_terms")
    ]
    assert boundary_findings(source, "forms.py") == [(3, "_poly_column"), (3, "_terms")]
    assert boundary_findings(source, "funcfield.py") == [(2, "generators"), (2, "scalars")]


# the free-shape helpers of forms, with the names of earlier ones; outside
# forms a module reaches a free shape through `_pullback` alone
FREE_SHAPE_NAMES = {"_shape", "_d_sv", "_free_atoms", "_free_shape", "_substitute", "_d_sv_shape"}


def free_shape_findings(source: str, filename: str) -> list:
    """(line, name) of each import of a FREE_SHAPE_NAMES name from forms and
    of each function named `*_shape`, unless the source is forms.py."""
    if filename == "forms.py":
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "forms":
            found += [(node.lineno, a.name) for a in node.names if a.name in FREE_SHAPE_NAMES]
        elif isinstance(node, ast.FunctionDef) and node.name.endswith("_shape"):
            found.append((node.lineno, node.name))
    return sorted(found)


def test_one_free_shape_route():
    found = {path.name: free_shape_findings(path.read_text(), path.name) for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_free_shape_scan_finds_a_violation():
    source = "from .forms import _pullback, _shape, form\nfrom polyreg.forms import _d_sv\n"
    source += "from .funcfield import _substitute\n\n\ndef _bracket_shape(n, m):\n    pass\n"
    want = [(1, "_shape"), (2, "_d_sv"), (6, "_bracket_shape")]
    assert free_shape_findings(source, "regulator.py") == want
    assert free_shape_findings(source, "forms.py") == []


# the direct image builders of regulator, reached only through `_pullback`
IMAGE_BUILDERS = {"_bracket_image", "_wedge_image"}


def image_builder_findings(source: str) -> list:
    """(line, name) of each use of an IMAGE_BUILDERS name (read, attribute
    or import) that is not the first argument of a `_pullback` call or a
    branch of a conditional there."""
    tree, allowed = ast.parse(source), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args and "_pullback" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            todo = [node.args[0]]
            while todo:
                arg = todo.pop()
                todo += [arg.body, arg.orelse] if isinstance(arg, ast.IfExp) else []
                allowed.add(arg)
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            name = node.name
        if name in IMAGE_BUILDERS and node not in allowed:
            found.append((node.lineno, name))
    return sorted(found)


def test_one_image_route():
    found = {path.name: image_builder_findings(path.read_text()) for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_image_route_scan_finds_a_violation():
    source = "def _wedge_image(n, f, gs):\n    return _pullback(_bracket_image, 2, f, gs, 1)\n"
    source += "a = _pullback(_bracket_image if t.depth else _wedge_image, 0, None, gs, 1)\n"
    source += "b = _wedge_image(t.wedge) + _pullback(build, 0, None, [_wedge_image], 1)\n"
    source += "from .regulator import _bracket_image\nc = R._bracket_image(2, f, gs)\n"
    want = [(4, "_wedge_image"), (4, "_wedge_image"), (5, "_bracket_image"),
            (6, "_bracket_image")]
    assert image_builder_findings(source) == want


def bound_findings(source: str) -> list:
    """(line, name) of each comparison in `_reports` between an `args.<name>`
    attribute and a numeric literal, and of a module-level `_ECHOED`."""
    tree = ast.parse(source)
    found = [(node.lineno, "_ECHOED") for node in tree.body
             if "_ECHOED" in module_level_names(ast.unparse(node))]
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef) or function.name != "_reports":
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(isinstance(n, ast.Constant) and type(n.value) in (int, float)
                       for n in sides):
                    found += [(n.lineno, n.attr) for n in sides if isinstance(n, ast.Attribute)
                              and getattr(n.value, "id", None) == "args"]
    return sorted(found)


def numeric_literals(source: str, name: str = "_reports") -> list:
    """(line, value) of each int, float or complex literal in the function `name`."""
    return sorted((node.lineno, node.value) for function in ast.walk(ast.parse(source))
                  if isinstance(function, ast.FunctionDef) and function.name == name
                  for node in ast.walk(function) if isinstance(node, ast.Constant)
                  and type(node.value) in (int, float, complex))


def test_cli_bounds_live_in_the_parser():
    source = (ROOT / "src" / "polyreg" / "cli.py").read_text()
    assert bound_findings(source) == []
    assert numeric_literals(source) == []


def test_literal_scan_finds_a_restated_default():
    source = "def _reports(args, cfg, parse):\n    tol = 1e-8 if args.tol is None else args.tol\n"
    source += "    weights = (3, 4) if args.weight is None else (args.weight,)\n"
    source += "    return args.orientation or 1, False, None, 'all'\n\n\n"
    source += "def _sv_report(precision):\n    return precision > 53\n"
    assert numeric_literals(source) == [(2, 1e-8), (3, 3), (3, 4), (4, 1)]


def element_weight_findings(source: str) -> list:
    """(line, name) of each function that takes both an element `e` and a `weight`."""
    return [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and {"e", "weight"} <= {
                a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}]


def test_checks_read_the_weight_off_the_element():
    assert element_weight_findings((ROOT / "src" / "polyreg" / "regulator.py").read_text()) == []


def test_element_weight_scan_finds_a_second_weight():
    source = "def chain_check(weight, e, cfg=None):\n    pass\n\n\n"
    source += "def loop_residue_check(e, a, *, weight=2):\n    pass\n\n\n"
    source += "def standard_chain_elements(weight):\n    pass\n\n\ndef r_map(e):\n    pass\n"
    assert element_weight_findings(source) == [(1, "chain_check"), (5, "loop_residue_check")]


def polylog_findings(source: str) -> list:
    """(line, name) of each import of `polylog`, or of a name from it, other
    than `pi_projection`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "polylog":
                found += [(node.lineno, a.name) for a in node.names if a.name != "pi_projection"]
            else:
                found += [(node.lineno, a.name) for a in node.names if a.name == "polylog"]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if "polylog" in a.name.split(".")]
    return sorted(found)


def test_regulator_values_sv_through_the_plan():
    assert polylog_findings((ROOT / "src" / "polyreg" / "regulator.py").read_text()) == []


# the factor keyers of forms, and the builders that may use them
KEYERS = {"_scalar_pair", "_gen_pair"}
KEYER_USERS = {"_single", "_alternation_sum", "_pullback"}


def keyer_findings(source: str) -> list:
    """(line, def) of each use of a KEYERS name (a read, an attribute or an
    import) outside the defs of KEYER_USERS, by its outermost def (None at
    module level)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            name = child.name if isinstance(child, ast.alias) else (
                getattr(child, "id", None) or getattr(child, "attr", None))
            if name in KEYERS and inner not in KEYER_USERS:
                found.append((child.lineno, inner))
            visit(child, inner)

    visit(ast.parse(source), None)
    return sorted(found)


def test_factors_are_keyed_by_the_builders():
    found = {path.name: keyer_findings(path.read_text()) for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_keyer_scan_finds_a_violation():
    source = "def _single(d, c, scalars=()):\n    return list(map(_scalar_pair, scalars))\n\n\n"
    source += "def _call(name, args):\n    def inner(f):\n        return _gen_pair(('dlog', f))\n"
    source += "    return _scalar_pair(('log', f))\n\n\n"
    source += "class _FormParser:\n    def factor(self):\n        return F._gen_pair(g)\n"
    source += "from .forms import _scalar_pair\n"
    want = [(7, "_call"), (8, "_call"), (13, "factor"), (14, None)]
    assert keyer_findings(source) == want


def definitions(source: str, name: str) -> list:
    """Lines where the source defines `name`: a def, or an assignment to it."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
                  or isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == name for t in node.targets))


def test_one_scaling_rule():
    found = {path.name: definitions(path.read_text(), "_times") for path in PACKAGE}
    assert [(name, len(lines)) for name, lines in found.items() if lines] == [("funcfield.py", 1)]


def test_definition_scan_finds_a_second_rule():
    source = "def _times(a, c):\n    return a * c\n\n\n"
    source += "class C:\n    def _times(self, c):\n        pass\n\n\n"
    source += "_times = lambda a, c: a * c\ntimes = _times(2, 3)\n"
    assert definitions(source, "_times") == [1, 6, 10]


def bypass_findings(source: str) -> list:
    """Lines of each call of `object.__new__`, which makes an object without
    running its class's `__init__`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "__new__" and getattr(node.func.value, "id", None) == "object")


def test_one_constructor_per_type():
    found = {path.name: bypass_findings(path.read_text()) for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_constructor_scan_finds_a_bypass():
    source = "class P:\n    @classmethod\n    def _raw(cls, terms):\n"
    source += "        p = object.__new__(cls)\n        p.terms = terms\n        return p\n\n\n"
    source += "q = object.__new__(P)\nr = P.__new__(P)\ns = super().__new__(P)\n"
    assert bypass_findings(source) == [4, 9]


def fold_findings(source: str) -> list:
    """(method, line) of each call of `_fold` or `_exact` in a method of
    class `Polynomial` other than `__init__`."""
    return sorted((method.name, node.lineno) for cls in ast.parse(source).body
                  if isinstance(cls, ast.ClassDef) and cls.name == "Polynomial"
                  for method in cls.body
                  if isinstance(method, ast.FunctionDef) and method.name != "__init__"
                  for node in ast.walk(method)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_fold", "_exact"))


def test_polynomial_folds_in_its_constructor_alone():
    source = (ROOT / "src" / "polyreg" / "funcfield.py").read_text()
    assert "\nclass Polynomial:" in source and fold_findings(source) == []


def test_fold_scan_finds_a_second_fold():
    source = "class Polynomial:\n    def __init__(self, terms):\n"
    source += "        self.terms = {e: _exact(c) for e, c in terms.items()}\n\n"
    source += "    def __add__(self, other):\n        return _fold(1)\n\n"
    source += "    @staticmethod\n    def constant(value):\n        return [_exact(value)]\n\n\n"
    source += "def _quo(a, b):\n    return _fold(a / b)\n\n\n"
    source += "class RationalFunction:\n    def __neg__(self):\n        return _fold(-1)\n"
    assert fold_findings(source) == [("__add__", 6), ("constant", 10)]


def test_polylog_scan_finds_an_sv_evaluator():
    source = "from .polylog import pi_projection, sv_polylog\nfrom . import forms, polylog\n"
    source += "import polyreg.polylog as P\nfrom polyreg.polylog import pi_projection\n"
    source += "from .polycomplex import residue\n"
    assert polylog_findings(source) == [(1, "sv_polylog"), (2, "polylog"),
                                        (3, "polyreg.polylog")]


def unchecked_entry_points(source: str) -> tuple:
    """(entry points, unchecked): the public module-level functions whose
    first two arguments are (n, z), and those of them with no call of
    `_check_argument`."""
    entries, unchecked = [], []
    for node in ast.parse(source).body:
        if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and [a.arg for a in node.args.args[:2]] == ["n", "z"]):
            entries.append(node.name)
            if not any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_check_argument"
                       for c in ast.walk(node)):
                unchecked.append(node.name)
    return entries, unchecked


def test_one_argument_check_per_entry_point():
    source = (ROOT / "src" / "polyreg" / "polylog.py").read_text()
    assert unchecked_entry_points(source) == (["li", "sv_polylog", "sv_state"], [])


def test_argument_check_scan_finds_an_unchecked_entry_point():
    source = "def li(n, z, precision_bits=53):\n    if n < 1:\n        raise ValueError\n\n\n"
    source += "def sv_state(n, z):\n    _check_argument('sv_state', n, z)\n\n\n"
    source += "def pi_projection(n, w):\n    pass\n\n\n"
    source += "def _li_series(n, z, eps):\n    pass\n\n\n"
    source += "class C:\n    def sv(self, n, z):\n        pass\n"
    assert unchecked_entry_points(source) == (["li", "sv_state"], ["li"])


def test_bound_scan_finds_a_refusal():
    source = "_ECHOED = {}\n\n\ndef _reports(args, cfg, parse):\n"
    source += "    if args.max_k < 0 or 2 > args.weight or args.tol is None:\n"
    source += "        raise ValueError\n    return args.precision <= 53.0\n\n\n"
    source += "def _sv_report(args):\n    return args.precision <= 53\n"
    want = [(1, "_ECHOED"), (5, "max_k"), (5, "weight"), (7, "precision")]
    assert bound_findings(source) == want


def eager_imports(source: str, module: str) -> list:
    """Lines of the import statements of `module` (or a submodule) that run
    when the source is imported: any outside a function body."""
    found, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            todo.extend(ast.iter_child_nodes(node))
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_no_eager_mpmath_import():
    found = {path.name: eager_imports(path.read_text(), "mpmath") for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_eager_import_scan_finds_one():
    source = "import mpmath as mp\ntry:\n    from mpmath.libmp import from_rational\n"
    source += "except ImportError:\n    pass\nclass C:\n    import mpmath\n"
    source += "def f():\n    import mpmath as mp\n    return mp\nimport mpmathx\n"
    assert eager_imports(source, "mpmath") == [1, 3, 7]


def fresh_python(*args: str) -> str:
    """Standard output of a fresh interpreter run with these arguments on
    the package's source; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_default_path_never_loads_mpmath():
    """Import, the disc series, the z = 1 slots, the log-expansion, inversion
    and every suite of `all`, in a fresh interpreter."""
    code = """
import contextlib, io, sys
import polyreg
from polyreg import cli, polylog
loaded = ["mpmath" in sys.modules]
polyreg.sv_polylog(2, 0.3 + 0.2j)
polylog.sv_state(7, 1)
polyreg.sv_polylog(5, 0.9 + 0.8j)
polyreg.sv_polylog(4, 30 - 7j)
loaded.append("mpmath" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["all", "--samples", "1"])
print(code, loaded + ["mpmath" in sys.modules])
"""
    assert fresh_python("-c", code) == "0 [False, False, False]\n"


def test_high_precision_route_from_a_fresh_interpreter():
    """The 130-bit route imports mpmath itself; its case prints what it did
    while mpmath was imported with the package."""
    argv = ["sv-polylog", "--weight", "3", "--at", "0.3+0.2i", "--precision", "130", "--json"]
    out = fresh_python("-m", "polyreg.cli", *argv)
    assert json.loads(out)["results"][0]["cases"] == [
        {
            "input": "L_3(0.3+0.2i)",
            "pass": True,
            "precision_bits": 130,
            "value": "(0.732480410697545477995774684177864021857 + 0.0j)",
        }
    ]
