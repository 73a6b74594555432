"""The three benchmark workloads.

Each runs a closed loop with one caller on one thread: the next operation
starts when the previous one has returned.  Every operation is timed and
counted; a failure is counted by kind and the run goes on.  An operation
fails when it raises, when its value misses the oracle's accuracy gate, or
when its result is wrong (an exact identity is false, a value is grossly
off the oracle, a verdict is false).  Only a wrong result makes the run
incorrect: a raise is the program declining to answer, and an inaccurate
value is a shortfall that `polylog.max_rel_err` measures.
"""

import collections
import itertools
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import gen
import oracle
from speed import Speed
from polyreg import exact, forms, funcfield, polycomplex, polylog, regulator
from spans import Tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
VERIFY_SAMPLES = 1  # `polyreg all --samples`; see README.md for the choice
VERIFY_PASSES = 2  # the fewest that can compare manifests
SYMBOLIC_ELEMENTS = 10  # chain elements per symbolic pass (2 of each weight)
SYMBOLIC_GRID = 20  # verify_proposition / BetaTable size per symbolic pass
# seconds of one pass on the reference host; they size a run (see Clock)
SV_PASS_S = 30.0
SYMBOLIC_PASS_S = 0.8
VERIFY_PASS_S = 15.0


def timed(fn, *args):
    """(value, error type name or None, seconds) of one call."""
    start = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # counted as a failed operation by the caller
        return None, type(exc).__name__, time.perf_counter() - start
    return value, None, time.perf_counter() - start


class Tally:
    """Attempted and failed operations, with each operation's latency."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = collections.Counter()  # exception type or "Inaccurate" -> count
        self.wrong: List[str] = []  # one line per wrong result
        self.latencies: List[float] = []

    def add(self, seconds: float, error: Optional[str] = None, wrong: Optional[str] = None):
        self.attempted += 1
        self.latencies.append(seconds)
        if error:
            self.failed += 1
            self.errors[error] += 1
        elif wrong:
            self.failed += 1
            self.wrong.append(wrong)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Outcome:
    tally: Tally
    pass_s: List[float]  # timed seconds of each untraced pass
    peak_rss_kib: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    layers: Optional[Dict[str, float]] = None  # traced runs only
    trace_dump: Optional[dict] = None
    speed: Speed = field(default_factory=Speed)
    windows: List[Tuple[float, float]] = field(default_factory=list)  # of each pass

    def begin_pass(self, repeats: int = 1) -> float:
        """Sample the host speed, then return the pass's start time."""
        self.speed.sample(repeats)
        return time.perf_counter()

    def end_pass(self, seconds: float, started: float) -> None:
        self.pass_s.append(seconds)
        self.windows.append((started, time.perf_counter()))

    def scaled_pass_s(self) -> List[float]:
        """Pass times at the reference speed (see speed.py)."""
        return [s * self.speed.scale(t0, t1) for s, (t0, t1) in zip(self.pass_s, self.windows)]


class Clock:
    """Run size: a fixed number of passes, `seconds` over `pass_s` (what one
    pass takes on the reference host, README.md), and at least `min_passes`.
    The count depends on nothing measured, so one seed and one `--seconds`
    always make the same operations and meet the same failures, however fast
    the host is at the time.  A hard stop ends a run on a host far slower
    than the reference one."""

    def __init__(self, seconds: float, pass_s: float, min_passes: int = 1):
        self.start = time.perf_counter()
        self.planned = max(min_passes, round(seconds / pass_s))
        self.passes = 0
        self.hard_stop = self.start + max(2.0 * seconds, seconds + 60.0)

    def more(self) -> bool:
        if self.passes >= self.planned or self.expired():
            return False
        self.passes += 1
        return True

    def expired(self) -> bool:
        return time.perf_counter() >= self.hard_stop

    def remaining(self) -> float:
        return self.hard_stop - time.perf_counter()


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _clear_sv_cache():
    clear = getattr(polylog, "clear_cache", None)
    if clear is not None:
        clear()


def _traced_replay(run_passes, untraced: Outcome, **replay) -> Outcome:
    """Replay the passes of an untraced measurement under the tracer."""
    _clear_sv_cache()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(**replay)
    finally:
        tracer.remove()
    untraced.tally.wrong.extend(traced.tally.wrong)
    untraced.layers = tracer.layer_metrics()
    untraced.layers["trace.overhead"] = median(traced.pass_s) / median(untraced.pass_s) - 1.0
    untraced.trace_dump = tracer.dump()
    return untraced


# ---------------------------------------------------------------------------
# sv-sweep: cold single-valued polylog calls over five regions


def _sv_call(tally: Tally, n: int, z: complex):
    """One timed sv call, checked against the oracle outside the timing.

    Returns (seconds, relative error or None if it raised, passed)."""
    value, error, seconds = timed(polylog.sv_polylog, n, z)
    if error:
        tally.add(seconds, error=error)
        return seconds, None, False
    ref = oracle.sv_reference(n, z)
    err = oracle.rel_err(complex(value), ref)
    if err <= oracle.REL_TOL:
        tally.add(seconds)
    elif err <= oracle.WRONG_TOL:
        tally.add(seconds, error="Inaccurate")
    else:  # also nan
        tally.add(seconds, wrong="sv(%d, %r) = %r, reference %r" % (n, z, value, ref))
    return seconds, err, err <= oracle.REL_TOL


def _sv_passes(seed: int, clock: Optional[Clock] = None, passes: Optional[int] = None) -> Outcome:
    tally = Tally()
    out = Outcome(tally, [])
    failed_in = collections.Counter()
    worst = 0.0
    stream = gen.sv_points(seed)
    while clock.more() if passes is None else len(out.pass_s) < passes:
        started = out.begin_pass()
        pass_s = 0.0
        for i, (region, n, z) in enumerate(next(stream)):
            if i and i % 10 == 0:  # a pass lasts half a minute
                out.speed.sample()
            seconds, err, passed = _sv_call(tally, n, z)
            pass_s += seconds
            if not passed:
                failed_in[region] += 1
            if err is not None and err <= oracle.WRONG_TOL:
                worst = max(worst, err)
            if clock is not None and clock.expired():
                break
        out.end_pass(pass_s, started)
    out.speed.sample()
    out.counters["max_rel_err"] = worst
    out.notes["failed_by_region"] = dict(sorted(failed_in.items()))
    out.peak_rss_kib = _peak_rss_kib()
    return out


def sv_sweep(seed: int, seconds: float, trace: bool) -> Outcome:
    if not trace:
        return _sv_passes(seed, clock=Clock(seconds, SV_PASS_S))
    untraced = _sv_passes(seed, clock=Clock(seconds / 2.0, SV_PASS_S))
    return _traced_replay(_sv_passes, untraced, seed=seed, passes=len(untraced.pass_s))


# ---------------------------------------------------------------------------
# symbolic: exact construction and identity checks over Q


def build_element(spec):
    """The chain element coefficient * {bracket}_depth (x) wedge of a spec."""
    _weight, coefficient, depth, bracket, wedge = spec
    return polycomplex.bracket_tensor(
        funcfield.parse_function(bracket),
        depth,
        [funcfield.parse_function(s) for s in wedge],
        coefficient,
    )


def _places():
    return [
        ("0", funcfield.Valuation.finite(Fraction(0))),
        ("1", funcfield.Valuation.finite(Fraction(1))),
        ("inf", funcfield.Valuation.infinity()),
    ]


def _construct(e):
    image = regulator.r_map(e)
    lhs = forms.exterior_derivative(image)
    rhs = regulator.r_map(polycomplex.delta(e))
    return image, len((lhs - rhs).terms)


def _form_round_trip(image):
    return forms.parse_form(forms.format_form(image)) == image


def _element_round_trip(e):
    return polycomplex.parse_element(str(e), weight=e.weight) == e


def _dd_zero(e):
    return polycomplex.delta(polycomplex.delta(e)).is_zero()


def _residue_commutes(e, v):
    lhs = polycomplex.residue_twisted(polycomplex.delta(e), v)
    r = polycomplex.residue_twisted(e, v)
    return lhs == (r if r.is_zero() else polycomplex.delta(r))


def _golden():
    return regulator.golden_formula_tests()["pass"]


def _proposition():
    return exact.verify_proposition(SYMBOLIC_GRID, SYMBOLIC_GRID)["pass"]


def _beta_table():
    exact.BetaTable(SYMBOLIC_GRID, SYMBOLIC_GRID)
    return True


def symbolic_inputs(seed: int):
    """Endless stream of passes, each a list of (spec, element)."""
    specs = gen.chain_specs(seed)
    while True:
        chunk = list(itertools.islice(specs, SYMBOLIC_ELEMENTS))
        yield [(spec, build_element(spec)) for spec in chunk]


def _check(tally: Tally, label: str, fn, *args):
    """Run one exact check; returns (value, error, seconds)."""
    value, error, seconds = timed(fn, *args)
    if error:
        tally.add(seconds, error=error)
    elif value is False:
        tally.add(seconds, wrong="%s is false" % label)
    else:
        tally.add(seconds)
    return value, error, seconds


def _symbolic_passes(inputs, clock: Optional[Clock] = None, passes: Optional[int] = None) -> Outcome:
    tally = Tally()
    out = Outcome(tally, [])
    places = _places()
    residual_max = 0
    form_raised = 0
    forms_tried = 0
    while clock.more() if passes is None else len(out.pass_s) < passes:
        started = out.begin_pass()
        pass_s = 0.0
        for spec, e in next(inputs):
            label = str(e)
            built, _, s = _check(tally, "construct " + label, _construct, e)
            pass_s += s
            if built is not None:
                image, residual = built
                residual_max = max(residual_max, residual)
                _, error, s = _check(
                    tally, "form round trip of r(%s)" % label, _form_round_trip, image
                )
                pass_s += s
                forms_tried += 1
                form_raised += error is not None
            _, _, s = _check(tally, "element round trip of " + label, _element_round_trip, e)
            pass_s += s
            if spec[2] >= 3:  # delta(e) is not a top-degree wedge
                _, _, s = _check(tally, "delta^2(%s) == 0" % label, _dd_zero, e)
                pass_s += s
            for name, v in places:
                _, _, s = _check(
                    tally, "residue at %s commutes for %s" % (name, label),
                    _residue_commutes, e, v,
                )
                pass_s += s
        for label, fn in (
            ("golden formulas", _golden),
            ("proposition grid", _proposition),
            ("beta table", _beta_table),
        ):
            _, _, s = _check(tally, label, fn)
            pass_s += s
        out.end_pass(pass_s, started)
    out.speed.sample()
    out.counters["residual_terms_max"] = residual_max
    out.notes["form_round_trip_raised"] = "%d of %d" % (form_raised, forms_tried)
    out.peak_rss_kib = _peak_rss_kib()
    return out


def symbolic(seed: int, seconds: float, trace: bool) -> Outcome:
    if not trace:
        return _symbolic_passes(symbolic_inputs(seed), clock=Clock(seconds, SYMBOLIC_PASS_S))
    untraced = _symbolic_passes(
        symbolic_inputs(seed), clock=Clock(seconds / 2.0, SYMBOLIC_PASS_S)
    )
    count = len(untraced.pass_s)
    inputs = symbolic_inputs(seed)
    prepared = iter([next(inputs) for _ in range(count)])  # built before tracing
    return _traced_replay(_symbolic_passes, untraced, inputs=prepared, passes=count)


# ---------------------------------------------------------------------------
# verify-all: the `polyreg all` command, one fresh interpreter per pass


def _all_pass(seed: int, clock: Clock, trace_file: Optional[Path] = None) -> dict:
    argv = [sys.executable, str(HERE / "allpass.py"),
            "--seed", str(seed), "--samples", str(VERIFY_SAMPLES)]
    if trace_file is not None:
        argv += ["--trace", str(trace_file)]
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=max(5.0, clock.remaining())
        )
    except subprocess.TimeoutExpired:
        return {"error": "TimeoutExpired"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": "WorkerExit%d" % proc.returncode, "detail": tail[0]}
    return json.loads(lines[-1])


def _record_all(out: Outcome, report: dict, digests: set):
    tally = out.tally
    if "error" in report:  # no manifest: the pass fails its rc == 0 gate
        tally.attempted += 1
        tally.failed += 1
        tally.errors[report["error"]] += 1
        tally.wrong.append("pass died: %s" % report.get("detail", report["error"]))
        return
    tally.attempted += report["cases"]
    tally.failed += report["cases_failed"]
    if report["rc"] != 0 or not report["pass"]:
        tally.wrong.append("pass with rc=%d, pass=%s" % (report["rc"], report["pass"]))
    digests.add(report["sha256"])
    out.peak_rss_kib = max(out.peak_rss_kib, report["maxrss_kib"])
    out.notes["cases_per_pass"] = report["cases"]
    out.notes["manifest_bytes"] = report["manifest_bytes"]


def verify_all(seed: int, seconds: float, trace: bool) -> Outcome:
    clock = Clock(seconds, VERIFY_PASS_S, min_passes=VERIFY_PASSES)
    out = Outcome(Tally(), [])
    digests = set()
    if trace:
        plain = _all_pass(seed, clock)
        trace_file = OUT_DIR / ("verify-all-seed%d.trace.json" % seed)
        traced = _all_pass(seed, clock, trace_file=trace_file)
        for report in (plain, traced):
            _record_all(out, report, digests)
        if "error" not in plain and "error" not in traced:
            out.pass_s.append(plain["seconds"])
            out.layers = dict(traced["layers"])
            out.layers["trace.overhead"] = traced["seconds"] / plain["seconds"] - 1.0
            out.trace_dump = json.loads(trace_file.read_text())
    else:
        while clock.more():
            report = _all_pass(seed, clock)
            _record_all(out, report, digests)
            if "error" not in report:
                # the pass interpreter timed the reference loop around its pass
                before, after = (tuple(s) for s in report["speed"])
                out.speed.samples += [before, after]
                out.pass_s.append(report["seconds"])
                out.windows.append((before[0], after[0]))
                out.tally.latencies.append(report["seconds"])
    if len(digests) > 1:
        out.tally.wrong.append("manifests of seed %d differ across passes" % seed)
    return out


WORKLOADS = {"verify-all": verify_all, "sv-sweep": sv_sweep, "symbolic": symbolic}
