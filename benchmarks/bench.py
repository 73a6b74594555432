"""Repeat the perfbench runs and summarise them in BENCH_<label>.json.

Usage (from the root of a checkout):

    python3 benchmarks/bench.py --label LABEL [--repeats 5] [--seed 89]

runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
`--repeats` times for each workload W of BENCHMARK.json, T its
`run_seconds`, one run after another, and writes
BENCH_<label>.json in the current directory: for each workload the runs'
attempted and failed counts, whether every run was correct, and the min,
median, quartiles and IQR of each end-to-end metric; with perfbench's env
line (of the first run) and the checkout's commit (`git describe --dirty`).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(stdout: str):
    """(env, result) of one perfbench run: its `env` line and last line."""
    lines = stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def spread(values) -> dict:
    """min, median, quartiles (inclusive method) and IQR of the values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": list(values)}


def summarise(results) -> dict:
    """One workload's entry from the final JSON lines of its runs."""
    metrics = results[0]["metrics"]
    return {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "metrics": {
            name: {"unit": m["unit"], **spread([r["metrics"][name]["value"] for r in results])}
            for name, m in metrics.items()
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=89)
    args = ap.parse_args(argv)
    if args.repeats < 5:
        ap.error("--repeats must be at least 5")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env, workloads = None, {}
    for name in [w["name"] for w in spec["workloads"]]:
        results = []
        for _ in range(args.repeats):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
            )
            run_env, result = parse_run(proc.stdout)
            env = env or run_env
            results.append(result)
        workloads[name] = summarise(results)
    commit = None  # an exported tree; git would answer for an enclosing repo
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                                cwd=ROOT, capture_output=True, text=True).stdout.strip()
    out = {"label": args.label, "commit": commit, "env": env, "seed": args.seed,
           "seconds": spec["run_seconds"], "workloads": workloads}
    Path("BENCH_%s.json" % args.label).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
