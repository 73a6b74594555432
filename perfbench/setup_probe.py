"""Set-up probe: import polyreg and make one minimal call into each layer.

Usage: python3 perfbench/setup_probe.py

The benchmark times this script from spawn to exit, so the figure covers
interpreter start, imports and whatever a layer builds on first use.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    from polyreg import cli, exact, forms, funcfield, polycomplex, polylog, regulator

    exact.beta_kp(2, 2)
    f = funcfield.parse_function("t+2")
    funcfield.rf_eval(f, 0.5)
    polylog.sv_polylog(2, 0.3 + 0.2j)
    e = polycomplex.parse_element("{t+2}_2 (x) t", weight=3)
    polycomplex.delta(e)
    forms.evaluate(forms.dlog(f), 0.5, [1.0])
    regulator.r_map(e)
    cli.build_parser()
    return 0


if __name__ == "__main__":
    sys.exit(main())
