"""Tests for the benchmark's own code.

Run from the root of the repository: python3 -m pytest perfbench
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from polyreg import polylog  # noqa: E402
from spans import Tracer  # noqa: E402


def _sv_passes(seed, count):
    return list(itertools.islice(gen.sv_points(seed), count))


def test_sv_points_deterministic_per_seed():
    assert _sv_passes(7, 2) == _sv_passes(7, 2)
    assert _sv_passes(7, 1) != _sv_passes(8, 1)


def test_sv_points_region_and_weight_shares_exact_and_distinct():
    passes = _sv_passes(3, 3)
    assert gen.PASS == {"disc": 20, "annulus": 40, "far": 15, "near1": 10, "cut": 15}
    for points in passes:
        assert len(points) == gen.PASS_SIZE == 100
        for region in gen.REGIONS:
            weights = [n for r, n, _ in points if r == region]
            assert sorted(weights) == sorted(list(gen.WEIGHTS) * (gen.PASS[region] // 5))
        for region, n, z in points:
            assert gen.classify(z) == region
    keys = {(n, z.real, z.imag, str(z.imag)) for points in passes for _, n, z in points}
    assert len(keys) == 3 * gen.PASS_SIZE


def test_sv_points_cover_each_region():
    points = [p for pass_ in _sv_passes(11, 4) for p in pass_]
    far = [abs(z) for r, _, z in points if r == "far"]
    near = [abs(z - 1) for r, _, z in points if r == "near1"]
    cut = [z for r, _, z in points if r == "cut"]
    assert 2.0 <= min(far) < 2e4 and 5e7 < max(far) <= 1e12
    assert 1e-8 <= min(near) < 1e-5 and 1e-4 < max(near) <= 1e-2
    assert {str(z.imag) for z in cut} == {"0.0", "-0.0"}
    assert all(1.0 < z.real <= 1e3 for z in cut)
    assert max(z.real for z in cut) > 1e2


def test_classifier_signed_zero_imaginary_parts():
    assert gen.classify(complex(3.0, 0.0)) == "cut"
    assert gen.classify(complex(3.0, -0.0)) == "cut"
    assert gen.classify(complex(1.001, -0.0)) == "cut"
    assert gen.classify(complex(3.0, 1e-300)) == "far"
    assert gen.classify(complex(0.25, -0.0)) == "disc"
    assert gen.classify(complex(-3.0, -0.0)) == "far"
    assert gen.classify(complex(1.0, 1e-9)) == "near1"
    assert gen.classify(complex(0.9, 0.9)) == "annulus"


def test_chain_specs_deterministic_and_cover_weights():
    a = list(itertools.islice(gen.chain_specs(4), 25))
    assert a == list(itertools.islice(gen.chain_specs(4), 25))
    assert [s[0] for s in a] == list(gen.SYMBOLIC_WEIGHTS) * 5
    for weight, _, depth, bracket, wedge in a:
        assert 2 <= depth <= weight and len(wedge) == weight - depth
        assert bracket in gen.BRACKET_POOL and bracket not in wedge
        assert workloads.build_element((weight, 1, depth, bracket, wedge)).weight == weight


@pytest.mark.parametrize(
    "count, p, beyond",
    [(10, 100.0, 0), (19, 100.0, 0), (20, 50.0, 10), (40, 75.0, 10),
     (100, 90.0, 10), (199, 90.0, 19), (200, 95.0, 10), (1000, 99.0, 10), (10000, 99.9, 10)],
)
def test_tail_percentile_rule(count, p, beyond):
    values = list(range(1, count + 1))
    value, got_p, got_beyond = stats.tail(reversed(values))
    assert (got_p, got_beyond) == (p, beyond)
    assert value == (count if p == 100.0 else values[count - beyond - 1])
    assert sum(1 for v in values if v > value) == beyond


def test_nearest_rank_percentile():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 90) == 90
    assert stats.percentile([5.0], 99.9) == 5.0


def test_clock_runs_a_fixed_pass_count():
    clock = workloads.Clock(0.0, 1.0, min_passes=2)
    assert [clock.more() for _ in range(3)] == [True, True, False]
    clock = workloads.Clock(25.0, 0.8)
    assert sum(iter(clock.more, False)) == 31
    assert workloads.Clock(12.5, 30.0).planned == 1


def test_tally_counts_a_raised_convergence_error():
    def diverge():
        raise polylog.ConvergenceError("no")

    tally = workloads.Tally()
    value, error, seconds = workloads.timed(diverge)
    tally.add(seconds, error=error)
    tally.add(0.001)
    assert value is None and error == "ConvergenceError" and seconds >= 0
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, [])
    assert tally.errors == {"ConvergenceError": 1}
    assert tally.fail_ratio == 0.5


def _perturbed(ref, by=1e-6):
    """ref moved by `by`, relative in the benchmark's error measure."""
    return ref + by * max(abs(ref), 1.0)


def test_sv_pass_counts_failures_and_keeps_going(monkeypatch):
    def flaky(n, z):
        region = gen.classify(z)
        if region == "far":
            raise polylog.ConvergenceError("diverged")
        ref = oracle.sv_reference(n, z)
        if region == "near1":
            return _perturbed(ref, 1e-6)
        return _perturbed(ref, 1e-3) if region == "cut" else ref

    monkeypatch.setattr(polylog, "sv_polylog", flaky)
    out = workloads._sv_passes(0, passes=1)
    tally = out.tally
    assert tally.attempted == gen.PASS_SIZE
    assert tally.errors == {"ConvergenceError": gen.PASS["far"], "Inaccurate": gen.PASS["near1"]}
    assert len(tally.wrong) == gen.PASS["cut"]
    assert tally.failed == gen.PASS["far"] + gen.PASS["near1"] + gen.PASS["cut"]
    assert out.notes["failed_by_region"] == {"cut": 15, "far": 15, "near1": 10}
    assert 0.9e-6 < out.counters["max_rel_err"] < 1.1e-6
    assert len(out.pass_s) == 1


def test_oracle_gate_rejects_a_perturbed_value():
    for n, z in ((2, 0.3 + 0.4j), (3, 1.5 - 0.7j), (5, 0.2 + 0.1j)):
        ref = oracle.sv_reference(n, z)
        assert oracle.rel_err(polylog.sv_polylog(n, z), ref) <= oracle.REL_TOL
        assert oracle.REL_TOL < oracle.rel_err(_perturbed(ref), ref) <= oracle.WRONG_TOL
        assert oracle.rel_err(_perturbed(ref, 1e-3), ref) > oracle.WRONG_TOL


def test_oracle_reference_values():
    catalan = 0.915965594177219015054603514932
    assert abs(oracle.sv_reference(2, 1j) - catalan * 1j) < 1e-15
    assert oracle.sv_reference(3, complex(3.0, 0.0)) == oracle.sv_reference(3, complex(3.0, -0.0))
    assert oracle.sv_reference(2, complex(3.0, -0.0)) == 0j


def test_tracer_counts_by_region_and_restores():
    original = polylog.sv_polylog
    tracer = Tracer()
    tracer.install()
    try:
        assert polylog.sv_polylog is not original
        polylog.sv_polylog(2, 0.1 + 0.1j)
        polylog.sv_polylog(2, 0.1 + 0.1j)
    finally:
        tracer.remove()
    assert polylog.sv_polylog is original
    layers = tracer.layer_metrics()
    assert layers["polylog.calls.disc"] == 2
    assert layers["polylog.repeat_share"] == 0.5
    assert layers["polylog.self_s.disc"] > 0



def test_end_to_end_metrics():
    tally = workloads.Tally()
    for _ in range(19):
        tally.add(0.1)
    tally.add(0.3, error="ConvergenceError")
    out = workloads.Outcome(tally, [2.0, 4.0, 3.0], peak_rss_kib=2048)
    assert run.end_to_end(out, [0.4, 0.2, 0.3], scaled=False) == {
        "setup_s": 0.3, "wall_s": 3.0, "ops_per_s": 19 / 9.0,
        "op_p50_ms": 100.0, "op_tail_ms": 100.0, "peak_rss_mib": 2.0,
    }
    # the loop ran at half the reference speed from 10 s to 20 s
    ref = speed.REFERENCE_S
    out.speed.samples = [(0.0, ref), (10.0, 2 * ref), (20.0, 2 * ref), (30.0, ref)]
    out.windows = [(1.0, 3.0), (11.0, 15.0), (21.0, 24.0)]
    scaled = run.end_to_end(out, [0.4, 0.2, 0.3])
    assert out.scaled_pass_s() == pytest.approx([2.0 / 1.5, 4.0 / 2, 3.0 / 1.5])
    assert scaled["wall_s"] == pytest.approx(2.0)
    assert scaled["ops_per_s"] == pytest.approx(19 / (2.0 / 1.5 + 4.0))
    assert scaled["setup_s"] == 0.3
    assert scaled["op_p50_ms"] == 100.0 and scaled["peak_rss_mib"] == 2.0


def test_speed_scale_uses_samples_around_the_window():
    s = speed.Speed()
    ref = speed.REFERENCE_S
    s.samples = [(0.0, ref), (5.0, 4 * ref), (10.0, 2 * ref)]
    assert s.scale(0.5, 4.0) == pytest.approx(1 / 2.5)  # samples at 0 and 5
    assert s.scale(6.0, 9.0) == pytest.approx(1 / 3.0)  # samples at 5 and 10
    assert s.scale() == pytest.approx(0.5)
    s.sample()
    assert len(s.samples) == 4 and s.samples[-1][1] > 0
