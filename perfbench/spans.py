"""Layer spans recorded from outside the package.

`Tracer.install()` replaces the public entry points of each polyreg module
with timing wrappers, in every polyreg module that holds a reference to
them (so `forms.sv_state` and `regulator.evaluate` are wrapped too), and
`Tracer.remove()` puts the originals back.  The package itself is not
edited.  A wrapper records the span's duration and its self time: the
duration minus the time covered by wrapped calls made inside it.

Spans of suites, cases, form evaluations and sv calls are kept one by one;
all other calls are aggregated per (name, parent, tag).
"""

import functools
import sys
import time

import gen

# layer -> public functions wrapped in every module that imports them
LAYER_FUNCTIONS = {
    # beta and bernoulli are memo lookups called ~10^5 times per pass; a
    # wrapper there would cost more than they do, so their time stays with
    # the caller
    "exact": ("beta_kp", "beta_kp_recursive", "verify_row_identities", "verify_proposition"),
    "funcfield": (
        "parse_function", "rf_eval", "rf_dir_derivative", "ord_at", "unit_part",
        "one_minus",
    ),
    "polylog": ("sv_polylog", "sv_state", "sv_polylog_check_symmetries", "li"),
    "polycomplex": (
        "element", "bracket", "bracket_tensor", "pure_wedge", "delta", "theta",
        "residue", "residue_twisted", "parse_element", "random_element",
        "residue_chain_check",
    ),
    "forms": (
        "evaluate", "numeric_d", "exterior_derivative", "weighted_alternation",
        "sv_scalar", "sv_pq", "alpha", "dlog", "diarg", "log_abs", "wedge",
        "format_form", "parse_form",
    ),
    "regulator": (
        "r_map", "chain_check", "chain_suite", "standard_chain_elements",
        "top_check", "holomorphic_part", "loop_residue_check",
        "golden_formula_tests",
    ),
    "cli": ("run",),
}
# classes whose constructor is a public entry point of a layer
LAYER_CLASSES = {"exact": ("BetaTable",)}
# names the `all` command calls once per manifest suite; wrapped again in
# the cli module only, so their spans carry the manifest suite name
SUITE_CALLS = (
    "_beta_report", "verify_row_identities", "verify_proposition", "BetaTable",
    "sv_polylog_check_symmetries", "residue_chain_check", "golden_formula_tests",
    "chain_suite", "_top_report", "loop_residue_check",
)
SUITES = (
    "beta-table", "coefficient-rows", "proposition", "beta-recursion-grid",
    "polylog-symmetries", "residue-chain", "golden-formulas", "chain-map",
    "top-cycle", "loop-residue",
)
SV_CALLS = ("polylog.sv_polylog", "polylog.sv_state")
CASE_CALLS = ("regulator.chain_check", "regulator.top_check", "regulator.loop_residue_check")
EVAL_CALLS = ("forms.evaluate", "forms.numeric_d")
BUILD_CALLS = tuple(
    "forms." + name for name in LAYER_FUNCTIONS["forms"] if name not in ("evaluate", "numeric_d")
)
KEPT = SV_CALLS + CASE_CALLS + EVAL_CALLS

# every per-layer metric of a traced run, with its unit
PER_LAYER_UNITS = {}
for _region in gen.REGIONS:
    PER_LAYER_UNITS["polylog.calls." + _region] = "count"
    PER_LAYER_UNITS["polylog.self_s." + _region] = "s"
PER_LAYER_UNITS.update({
    "polylog.errors": "count",
    "polylog.repeat_share": "ratio",
    "polylog.max_rel_err": "ratio",
    "funcfield.eval_calls": "count",
    "funcfield.deriv_calls": "count",
    "funcfield.self_s": "s",
    "funcfield.pole_errors": "count",
    "forms.eval_calls": "count",
    "forms.eval_terms": "count",
    "forms.eval_self_s": "s",
    "forms.genericity_errors": "count",
    "forms.build_calls": "count",
    "forms.build_s": "s",
    "forms.residual_terms_max": "count",
    "regulator.r_map_calls": "count",
    "regulator.r_map_s": "s",
    "regulator.self_s": "s",
    "regulator.sampling_evals": "count",
    "polycomplex.calls": "count",
    "polycomplex.self_s": "s",
    "exact.calls": "count",
    "exact.self_s": "s",
})
for _suite in SUITES:
    PER_LAYER_UNITS["suite.%s.s" % _suite] = "s"
PER_LAYER_UNITS.update({"cli.self_s": "s", "cli.manifest_bytes": "bytes", "trace.overhead": "ratio"})


def _suite_name(result) -> str:
    if isinstance(result, dict):
        return result.get("suite", "unnamed")
    return "beta-recursion-grid"  # BetaTable: the grid is its construction


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.stack = []  # open frames: [name, time covered by children]
        self.agg = {}  # (name, parent, tag) -> [calls, total_s, self_s, errors]
        self.spans = []  # (name, parent, start_s, duration_s, self_s, tag)
        self.error_types = {}  # (name, exception type) -> count
        self.eval_terms = 0
        self.sv_seen = set()
        self.sv_repeats = 0
        self._patched = []  # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _tag(self, name, args):
        if name in SV_CALLS and len(args) >= 2:
            key = gen.point_key(args[0], complex(args[1]))
            if key in self.sv_seen:
                self.sv_repeats += 1
            else:
                self.sv_seen.add(key)
            return gen.classify(complex(args[1]))
        if name in EVAL_CALLS and args:
            self.eval_terms += len(args[0].terms)
        return ""

    def wrap(self, name, fn, suite=False):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else ""
            tag = "" if suite else tracer._tag(name, args)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            error = None
            try:
                result = fn(*args, **kwargs)
                if suite:
                    tag = _suite_name(result)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                tracer._record(name, parent, tag, start, duration, duration - frame[1], error)

        return wrapper

    def _record(self, name, parent, tag, start, duration, self_s, error):
        entry = self.agg.get((name, parent, tag))
        if entry is None:
            entry = self.agg[(name, parent, tag)] = [0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_s
        if error:
            entry[3] += 1
            key = (name, error)
            self.error_types[key] = self.error_types.get(key, 0) + 1
        if name in KEPT or name.startswith("suite."):
            self.spans.append((name, parent, start - self.t0, duration, self_s, tag))

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attribute, value):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self):
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "polyreg" or key.startswith("polyreg."))
        ]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for layer, names in LAYER_FUNCTIONS.items():
            home = by_name.get(layer)
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue  # entry point removed by a later change
                wrapper = self.wrap("%s.%s" % (layer, fname), original)
                for m in modules:
                    for attribute, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, attribute, wrapper)
        for layer, classes in LAYER_CLASSES.items():
            for cname in classes:
                cls = getattr(by_name.get(layer), cname, None)
                if cls is not None:
                    self._set(cls, "__init__", self.wrap("%s.%s" % (layer, cname), cls.__init__))
        cli = by_name.get("cli")
        for fname in SUITE_CALLS:
            target = getattr(cli, fname, None)
            if target is not None:
                self._set(cli, fname, self.wrap("suite." + fname, target, suite=True))

    def remove(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- summaries ---------------------------------------------------------

    def _sum(self, column, names=(), prefix=None, tag=None, parent_prefix=None):
        """Sum one aggregate column (0 calls, 1 total_s, 2 self_s, 3 errors)
        over the rows that match every given filter."""
        out = 0
        for (name, parent, row_tag), row in self.agg.items():
            if names and name not in names:
                continue
            if prefix is not None and not name.startswith(prefix):
                continue
            if tag is not None and row_tag != tag:
                continue
            if parent_prefix is not None and not parent.startswith(parent_prefix):
                continue
            out += row[column]
        return out

    def layer_metrics(self) -> dict:
        """Per-layer values, named as in PER_LAYER_UNITS."""
        calls, total, own, errors = 0, 1, 2, 3
        out = {}
        for region in gen.REGIONS:
            out["polylog.calls." + region] = self._sum(calls, SV_CALLS, tag=region)
            out["polylog.self_s." + region] = self._sum(own, SV_CALLS, tag=region)
        out["polylog.errors"] = self._sum(errors, SV_CALLS)
        out["polylog.repeat_share"] = self.sv_repeats / max(self._sum(calls, SV_CALLS), 1)
        out["funcfield.eval_calls"] = self._sum(calls, ("funcfield.rf_eval",))
        out["funcfield.deriv_calls"] = self._sum(calls, ("funcfield.rf_dir_derivative",))
        out["funcfield.self_s"] = self._sum(own, prefix="funcfield.")
        out["funcfield.pole_errors"] = sum(
            self.error_types.get((name, "PoleError"), 0)
            for name in ("funcfield.rf_eval", "funcfield.rf_dir_derivative")
        )
        out["forms.eval_calls"] = self._sum(calls, EVAL_CALLS)
        out["forms.eval_terms"] = self.eval_terms
        out["forms.eval_self_s"] = self._sum(own, EVAL_CALLS)
        out["forms.genericity_errors"] = self.error_types.get(
            ("forms.evaluate", "GenericityError"), 0
        )
        out["forms.build_calls"] = self._sum(calls, BUILD_CALLS)
        out["forms.build_s"] = self._sum(own, BUILD_CALLS)
        out["regulator.r_map_calls"] = self._sum(calls, ("regulator.r_map",))
        out["regulator.r_map_s"] = self._sum(total, ("regulator.r_map",))
        out["regulator.self_s"] = self._sum(own, prefix="regulator.")
        # rf_eval called by a check itself, not under forms.evaluate
        out["regulator.sampling_evals"] = self._sum(
            calls, ("funcfield.rf_eval",), parent_prefix="regulator."
        )
        for layer in ("polycomplex", "exact"):
            out[layer + ".calls"] = self._sum(calls, prefix=layer + ".")
            out[layer + ".self_s"] = self._sum(own, prefix=layer + ".")
        for suite in SUITES:
            out["suite.%s.s" % suite] = self._sum(total, prefix="suite.", tag=suite)
        out["cli.self_s"] = self._sum(own, ("cli.run",)) + self._sum(own, prefix="suite.")
        return out

    def dump(self) -> dict:
        """Everything recorded, in a JSON-ready shape."""
        return {
            "spans": [
                {"name": n, "parent": p, "start_s": s, "duration_s": d, "self_s": o, "tag": t}
                for n, p, s, d, o, t in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "tag": t, "calls": c, "total_s": tot,
                 "self_s": own, "errors": e}
                for (n, p, t), (c, tot, own, e) in sorted(self.agg.items())
            ],
            "errors": [
                {"name": n, "type": e, "count": c} for (n, e), c in sorted(self.error_types.items())
            ],
        }
