"""Repeat the perfbench runs and summarise them in BENCH_<label>.json.

Usage (from the root of a checkout):

    python3 benchmarks/bench.py --label LABEL [--repeats 5] [--seed 89]
        [--parent DIR [--parent-label LABEL]]

runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
`--repeats` times for each workload W of BENCHMARK.json, T its
`run_seconds`, one run after another, and writes
BENCH_<label>.json in the current directory: for each workload the runs'
attempted and failed counts, whether every run was correct, and the min,
median, quartiles and IQR of each end-to-end metric; with perfbench's env
line (of the first run) and the checkout's commit (`git describe --dirty`).

With `--parent DIR`, the checkout at DIR (say, a clean clone of the parent
commit) is measured in the same invocation, run by run: each repeat runs
both checkouts back to back, DIR first on even repeats and this checkout
first on odd ones, so drift in the machine's load falls on both sides
alike.  DIR's runs go to BENCH_<parent-label>.json, in the same schema;
the label defaults to DIR's short commit, and must be given when DIR is an
exported tree with no commit.  This checkout's file then also holds a
`paired` block: for each workload and end-to-end metric, the median of the
change/parent ratios of the repeats (each repeat's two runs are a pair) and
in how many repeats this checkout did better, lower or higher as the
metric's `better` in BENCHMARK.json says.
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


def paired(change: dict, parent: dict, end_to_end: list) -> dict:
    """The `paired` block from each side's results per workload, repeat i
    of one side paired with repeat i of the other: per end-to-end metric
    (BENCHMARK.json's entries), its `better` direction, the median
    change/parent ratio (None if a parent value is 0), and in how many of
    the repeats the change was better."""
    out = {}
    for name, runs in change.items():
        out[name] = {}
        for metric in end_to_end:
            pairs = [(c["metrics"][metric["name"]]["value"], p["metrics"][metric["name"]]["value"])
                     for c, p in zip(runs, parent[name])]
            lower = metric["better"] == "lower"
            out[name][metric["name"]] = {
                "better": metric["better"],
                "median_ratio": statistics.median(c / p for c, p in pairs)
                if all(p for _, p in pairs) else None,
                "change_better": sum(c < p if lower else c > p for c, p in pairs),
                "repeats": len(pairs),
            }
    return out


def run_once(root: Path, workload: str, seed: int, seconds) -> tuple:
    """(env, result) of one perfbench run of the checkout at root."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True, timeout=600,
    )
    return parse_run(proc.stdout)


def commit_of(root: Path):
    """`git describe` of the checkout at root; None for an exported tree,
    where git would answer for an enclosing repository."""
    if not (root / ".git").exists():
        return None
    return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=root, capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=89)
    ap.add_argument("--parent", type=Path, help="a second checkout, run alternately with this one")
    ap.add_argument("--parent-label", help="the label of the --parent checkout's BENCH file"
                    " (default: its short commit)")
    args = ap.parse_args(argv)
    if args.repeats < 5:
        ap.error("--repeats must be at least 5")
    sides = [(ROOT, args.label)]
    if args.parent is not None:
        parent = args.parent.resolve()
        label = args.parent_label or (commit_of(parent) or "")[:7]
        if not label:
            ap.error("--parent-label is needed for a --parent tree with no commit")
        if label == args.label:
            ap.error("the --parent label must differ from --label")
        sides.insert(0, (parent, label))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    envs = [None] * len(sides)
    results = [{name: [] for name in names} for _ in sides]
    for name in names:
        for i in range(args.repeats):
            order = range(len(sides)) if i % 2 == 0 else reversed(range(len(sides)))
            for k in order:
                env, result = run_once(sides[k][0], name, args.seed, spec["run_seconds"])
                envs[k] = envs[k] or env
                results[k][name].append(result)
    for k, ((root, label), env, runs) in enumerate(zip(sides, envs, results)):
        out = {"label": label, "commit": commit_of(root), "env": env, "seed": args.seed,
               "seconds": spec["run_seconds"],
               "workloads": {name: summarise(r) for name, r in runs.items()}}
        if k:  # this checkout, run beside the parent (sides[0])
            out["paired"] = paired(runs, results[0], spec["end_to_end"])
        Path("BENCH_%s.json" % label).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
