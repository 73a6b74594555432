"""polyreg benchmark: one command, three seeded workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {verify-all,sv-sweep,symbolic}
                             --seed N --seconds S --trace {0,1}

With --trace 0 it prints every end-to-end metric; with --trace 1 it
replays the measured work with every layer's public functions wrapped and
prints the per-layer metrics, writing the spans under perfbench/out/.
Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The package is
imported from ./src of the checkout; without it the run exits with code 2.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}
# the end-to-end metrics of BENCHMARK.json, which bounds them.  The latency
# percentiles are printed but not bounded: they shift with the host's speed
# like the others and also with which points a seed draws, and their spread
# over ten seeds reached the largest bound allowed (see README.md).
BOUNDED = ("setup_s", "wall_s", "ops_per_s", "peak_rss_mib")


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported tree; git would answer for an enclosing repo
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polyreg").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".txt"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import mpmath
    from polyreg import polylog

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "backend": getattr(polylog, "BACKEND", None),
    }


def measure_setup() -> list:
    """Wall seconds of SETUP_PROBES fresh interpreters running setup_probe.py."""
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            capture_output=True, text=True, timeout=60,
        )
        out.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed: %s" % proc.stderr.strip()[-500:])
    return out


def end_to_end(outcome, setup: list, scaled: bool = True) -> dict:
    """End-to-end values; with `scaled`, pass times are at the reference
    speed (speed.py).  Set-up is process start and imports, which the
    reference loop does not track, and latencies are printed only: both
    stay raw."""
    tally = outcome.tally
    tail, _p, _beyond = stats.tail(tally.latencies)
    pass_s = outcome.scaled_pass_s() if scaled else outcome.pass_s
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_s),
        "ops_per_s": (tally.attempted - tally.failed) / sum(pass_s),
        "op_p50_ms": 1000.0 * statistics.median(tally.latencies),
        "op_tail_ms": 1000.0 * tail,
        "peak_rss_mib": outcome.peak_rss_kib / 1024.0,
    }


def per_layer(outcome) -> dict:
    """Traced-run values; a layer the run never reached reads 0."""
    layers = dict.fromkeys(spans.PER_LAYER_UNITS, 0)
    layers.update(outcome.layers or {})
    layers["polylog.max_rel_err"] = outcome.counters.get("max_rel_err", 0.0)
    layers["forms.residual_terms_max"] = outcome.counters.get("residual_terms_max", 0)
    return layers


def _report_lines(args, env, outcome, setup, metrics) -> list:
    tally = outcome.tally
    lines = [
        "workload %s, seed %d, %s: closed loop, one caller, one thread"
        % (args.workload, args.seed, "traced" if args.trace else "untraced"),
        "env %s" % json.dumps(env, sort_keys=True),
        "setup %s s over %d probes" % (" ".join("%.4f" % s for s in setup), len(setup)),
        "passes %d, pass seconds %s"
        % (len(outcome.pass_s), " ".join("%.4f" % s for s in outcome.pass_s)),
    ]
    if tally.latencies:
        _tail, p, beyond = stats.tail(tally.latencies)
        lines.append(
            "op latency samples %d; tail is p%g with %d samples beyond"
            % (len(tally.latencies), p, beyond)
        )
    lines.append(
        "fail_ratio %.6f (%d of %d failed; by kind %s; wrong %d)"
        % (tally.fail_ratio, tally.failed, tally.attempted,
           dict(sorted(tally.errors.items())), len(tally.wrong))
    )
    for line in tally.wrong[:10]:
        lines.append("  wrong: %s" % line)
    for key, value in sorted(outcome.counters.items()):
        lines.append("%s %r" % (key, value))
    for key, value in sorted(outcome.notes.items()):
        lines.append("%s %s" % (key, value))
    for name, (value, unit) in metrics.items():
        lines.append("%-34s %.6g %s" % (name, value, unit))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="polyreg benchmark")
    ap.add_argument("--workload", required=True, choices=("verify-all", "sv-sweep", "symbolic"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "polyreg" / "__init__.py").is_file():
        print("error: no package source at %s" % (ROOT / "src" / "polyreg"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    env = environment(args.seed)
    setup = measure_setup()
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    if not outcome.pass_s:
        print("error: no pass completed: %s" % outcome.tally.wrong[:3], file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(outcome)
        metrics = {name: (values[name], unit) for name, unit in spans.PER_LAYER_UNITS.items()}
        shown = metrics
        if outcome.trace_dump is not None:
            workloads.OUT_DIR.mkdir(exist_ok=True)
            path = workloads.OUT_DIR / ("%s-seed%d.trace.json" % (args.workload, args.seed))
            path.write_text(json.dumps({"env": env, **outcome.trace_dump}))
            outcome.notes["trace_file"] = str(path.relative_to(ROOT))
    else:
        values = end_to_end(outcome, setup)
        shown = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        metrics = {name: shown[name] for name in BOUNDED}
        raw = end_to_end(outcome, setup, scaled=False)
        outcome.notes["raw"] = " ".join("%s=%.6g" % (k, raw[k]) for k in ("wall_s", "ops_per_s"))
        outcome.notes["speed"] = "loop %s s" % " ".join(
            "%.4f" % s for _, s in outcome.speed.samples)
    for line in _report_lines(args, env, outcome, setup, shown):
        print(line)
    tally = outcome.tally
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
