"""One pass of `polyreg all` in a fresh interpreter (the verify-all workload).

Usage: python3 perfbench/allpass.py --seed S --samples K [--trace FILE]

Runs `polyreg.cli.run(["all", "--seed", S, "--samples", K, "--json"])` in
process with stdout captured and times that call only; the reference loop
of speed.py is timed just before and after it.  Each pass gets a
fresh interpreter because a user's `polyreg all` starts cold: no cache
filled by an earlier pass may help it.  Prints one JSON line with the
manifest's digest, so the caller can check that passes of one seed agree
byte for byte.  With --trace the call runs under the layer tracer, whose
spans go to FILE.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--samples", type=int, required=True)
    ap.add_argument("--trace", default=None, help="write layer spans to this file")
    args = ap.parse_args(argv)

    from polyreg import cli
    from speed import Speed

    speed = Speed()
    command = ["all", "--seed", str(args.seed), "--samples", str(args.samples), "--json"]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    speed.sample(repeats=3)
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.run(command)
        seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
    speed.sample(repeats=3)

    text = out.getvalue()
    try:
        manifest = json.loads(text)
    except ValueError:
        manifest = {}
    cases = [c for r in manifest.get("results", []) for c in r.get("cases", [])]
    report = {
        "seconds": seconds,
        "rc": rc,
        "pass": manifest.get("pass") is True,
        "cases": len(cases),
        "cases_failed": sum(1 for c in cases if not c.get("pass")),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "manifest_bytes": len(text.encode()),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "speed": speed.samples,  # perf_counter is system-wide, so the caller can merge them
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.manifest_bytes"] = report["manifest_bytes"]
        report["layers"] = layers
        Path(args.trace).parent.mkdir(parents=True, exist_ok=True)
        Path(args.trace).write_text(json.dumps({"command": command, **tracer.dump()}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
