"""benchmarks/bench.py: the summary of repeated perfbench runs and the schema
of the BENCH_*.json files, on fixed numbers (no benchmark is run here)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "benchmarks" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
SPREAD = ("min", "median", "q1", "q3", "iqr", "values")


def _stdout(wall_s: float, failed: int = 0, ops_per_s: float = 1.0) -> str:
    """The tail of a perfbench run's output, shaped as run.py prints it."""
    values = {"wall_s": wall_s, "ops_per_s": ops_per_s}
    result = {
        "correct": True,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 1.0), "unit": unit}
                    for name, unit in METRICS.items()},
    }
    env = {"commit": None, "nproc": 2, "seed": 89, "source_sha256": "ab" * 32}
    return "workload w\nenv %s\nwall_s %g s\n%s\n" % (
        json.dumps(env, sort_keys=True), wall_s, json.dumps(result))


def test_parse_run():
    env, result = bench.parse_run(_stdout(0.25, failed=3))
    assert env["source_sha256"] == "ab" * 32 and env["nproc"] == 2
    assert result["failed"] == 3 and result["metrics"]["wall_s"]["value"] == 0.25


def test_spread_on_fixed_numbers():
    got = bench.spread([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (got["min"], got["q1"], got["median"], got["q3"], got["iqr"]) == (1, 2, 3, 4, 2)
    got = bench.spread([0.30, 0.10, 0.20, 0.40, 0.50, 0.60])
    assert got["median"] == pytest.approx(0.35) and got["iqr"] == pytest.approx(0.25)
    assert got["q1"] == pytest.approx(0.225) and got["min"] == 0.10


def test_summarise():
    runs = [bench.parse_run(_stdout(w, failed=f))[1] for w, f in ((0.3, 0), (0.1, 1), (0.2, 0))]
    got = bench.summarise(runs)
    assert got["runs"] == 3 and got["correct"] is True
    assert got["attempted"] == [100] * 3 and got["failed"] == [0, 1, 0]
    assert set(got["metrics"]) == set(METRICS)
    wall = got["metrics"]["wall_s"]
    assert (wall["unit"], wall["min"], wall["median"]) == ("s", 0.1, 0.2)
    assert wall["values"] == [0.3, 0.1, 0.2]


def _check_schema(doc: dict):
    assert set(doc) - {"paired"} == {"label", "commit", "env", "seed", "seconds", "workloads"}
    assert {"commit", "source_sha256", "nproc", "seed"} <= set(doc["env"])
    assert set(doc["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert doc["seconds"] == SPEC["run_seconds"]
    for entry in doc["workloads"].values():
        assert entry["runs"] >= 5 and entry["correct"] in (True, False)
        assert len(entry["attempted"]) == len(entry["failed"]) == entry["runs"]
        assert set(entry["metrics"]) == set(METRICS)
        for name, m in entry["metrics"].items():
            assert m["unit"] == METRICS[name] and set(SPREAD) < set(m)
            assert len(m["values"]) == entry["runs"]
            assert m["min"] <= m["q1"] <= m["median"] <= m["q3"]
            assert m["iqr"] == pytest.approx(m["q3"] - m["q1"])
    for name, entry in doc.get("paired", {}).items():
        assert name in doc["workloads"] and set(entry) == set(METRICS)
        for metric, m in entry.items():
            assert set(m) == {"better", "median_ratio", "change_better", "repeats"}
            assert m["repeats"] == doc["workloads"][name]["runs"]
            assert 0 <= m["change_better"] <= m["repeats"]


def test_main_writes_the_schema(tmp_path, monkeypatch):
    walls = iter([0.1 * (i % 7 + 1) for i in range(100)])

    def fake_run(argv, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, "abc123-dirty\n", "")
        return subprocess.CompletedProcess(argv, 0, _stdout(next(walls)), "")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--label", "probe", "--repeats", "5"]) == 0
    doc = json.loads((tmp_path / "BENCH_probe.json").read_text())
    _check_schema(doc)
    assert doc["label"] == "probe" and doc["seed"] == 89
    with pytest.raises(SystemExit):
        bench.main(["--label", "probe", "--repeats", "4"])


def test_parent_runs_alternate_with_this_checkout(tmp_path, monkeypatch):
    """--parent runs the two checkouts back to back in each repeat, the
    parent first on even repeats, and writes each side's runs to its own
    file with its own commit; the parent's label defaults to its short
    commit and must be given for a tree with no commit.  This checkout is
    stood in for by a fake one with a commit, so the test also holds in an
    exported tree."""
    parent = tmp_path / "parent"
    (parent / ".git").mkdir(parents=True)
    checkout = tmp_path / "checkout"
    (checkout / ".git").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench, "ROOT", checkout)
    calls = []

    def fake_run(argv, cwd=None, **kwargs):
        if argv[0] == "git":
            commit = "p" * 40 if Path(cwd) == parent else "c" * 40
            return subprocess.CompletedProcess(argv, 0, commit + "\n", "")
        assert Path(argv[1]) == Path(cwd) / "perfbench" / "run.py"
        calls.append((argv[argv.index("--workload") + 1], Path(cwd)))
        wall_s = 0.2 if Path(cwd) == parent else 0.1
        return subprocess.CompletedProcess(argv, 0, _stdout(wall_s), "")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--label", "change", "--parent", str(parent), "--repeats", "6"]) == 0
    names = [w["name"] for w in SPEC["workloads"]]
    pair = {0: [parent, bench.ROOT], 1: [bench.ROOT, parent]}
    assert calls == [(name, root) for name in names for i in range(6) for root in pair[i % 2]]
    for label, wall, commit in (("ppppppp", 0.2, "p" * 40), ("change", 0.1, "c" * 40)):
        doc = json.loads((tmp_path / ("BENCH_%s.json" % label)).read_text())
        _check_schema(doc)
        assert (doc["label"], doc["commit"]) == (label, commit)
        assert ("paired" in doc) == (label == "change")
        for entry in doc["workloads"].values():
            assert entry["runs"] == 6 and entry["metrics"]["wall_s"]["values"] == [wall] * 6
    assert bench.main(["--label", "change", "--parent", str(parent), "--parent-label", "base"]) == 0
    assert json.loads((tmp_path / "BENCH_base.json").read_text())["commit"] == "p" * 40
    exported = tmp_path / "exported"
    exported.mkdir()
    for bad in (["--parent", str(exported)], ["--parent", str(parent), "--parent-label", "change"]):
        with pytest.raises(SystemExit):
            bench.main(["--label", "change"] + bad)


def test_paired_block(tmp_path, monkeypatch):
    """The change's file pairs repeat i of each side: the median of the
    change/parent ratios, and in how many repeats the change was better,
    lower for wall_s and higher for ops_per_s as BENCHMARK.json says."""
    parent = tmp_path / "parent"
    (parent / ".git").mkdir(parents=True)
    walls = {"parent": [0.2, 0.2, 0.4, 0.1, 0.2], "change": [0.1, 0.3, 0.2, 0.05, 0.4]}
    ops = {"parent": [10.0] * 5, "change": [20.0, 5.0, 10.0, 30.0, 40.0]}
    runs = {"parent": 0, "change": 0}

    def fake_run(argv, cwd=None, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, "f" * 40 + "\n", "")
        side = "parent" if Path(cwd) == parent else "change"
        i = runs[side] % 5  # the repeat, each workload's runs in turn
        runs[side] += 1
        return subprocess.CompletedProcess(
            argv, 0, _stdout(walls[side][i], ops_per_s=ops[side][i]), "")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--label", "change", "--parent", str(parent), "--parent-label", "base"]) == 0
    doc = json.loads((tmp_path / "BENCH_change.json").read_text())
    _check_schema(doc)
    assert "paired" not in json.loads((tmp_path / "BENCH_base.json").read_text())
    assert set(doc["paired"]) == {w["name"] for w in SPEC["workloads"]}
    for entry in doc["paired"].values():
        # wall_s ratios 0.5, 1.5, 0.5, 0.5, 2; ops_per_s ratios 2, 0.5, 1, 3, 4
        assert entry["wall_s"] == {"better": "lower", "median_ratio": 0.5,
                                   "change_better": 3, "repeats": 5}
        assert entry["ops_per_s"] == {"better": "higher", "median_ratio": 2.0,
                                      "change_better": 3, "repeats": 5}
        assert entry["setup_s"]["median_ratio"] == 1.0 and entry["setup_s"]["change_better"] == 0
    parent_runs = [bench.parse_run(_stdout(w))[1] for w in (0.2, 0.0)]
    change_runs = [bench.parse_run(_stdout(w))[1] for w in (0.1, 0.1)]
    got = bench.paired({"w": change_runs}, {"w": parent_runs}, SPEC["end_to_end"])
    assert got["w"]["wall_s"]["median_ratio"] is None  # a parent value of 0 has no ratio


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files(path):
    doc = json.loads(path.read_text())
    _check_schema(doc)
    assert path.name == "BENCH_%s.json" % doc["label"]
