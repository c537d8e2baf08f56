#!/usr/bin/env python3
"""Per-prime cost of the point counts on y^2 = x^5 - x + 1.

    python3 perfbench/baseline_table.py [--out perfbench/baseline_per_prime.json]

Times `count_points` over F_p (ext 1) and F_{p^2} (ext 2) at p = 1021, 4093
and 16381 under the benchmark's tracer, one span per call, and writes the
median of REPEATS spans per cell with the host facts.  The committed JSON is
the "before" column a change to the counting layer compares against.  The
p = 16381 F_{p^2} count takes about 15 s per repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

import frobstat  # noqa: E402
import frobstat.cli  # noqa: E402,F401  (loads every module the tracer targets)
from perfbench import layers  # noqa: E402
from perfbench.host import host_facts  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

PRIMES = (1021, 4093, 16381)
CURVE = (1, -1, 0, 0, 0, 1)
REPEATS = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(HERE / "baseline_per_prime.json"))
    args = ap.parse_args(argv)

    curve = frobstat.counting.make_curve(CURVE)
    tracer = Tracer()
    tracer.install(layers.targets(frobstat))
    tracer.recording = True
    try:
        for _ in range(REPEATS):
            for p in PRIMES:
                for ext in (1, 2):
                    frobstat.counting.count_points(curve, p, ext)
    finally:
        tracer.recording = False
        tracer.uninstall()

    def cell(p, ext):
        return statistics.median(
            end - start for name, start, end, _, attr in tracer.spans
            if name == f"counting.count_ext{ext}" and attr == p)

    rows = [{"p": p, "fp_count_s": cell(p, 1), "fp2_count_s": cell(p, 2)} for p in PRIMES]
    table = {"curve": "y^2 = x^5 - x + 1", "repeats": REPEATS,
             "host": host_facts(), "rows": rows}
    Path(args.out).write_text(json.dumps(table, indent=1) + "\n")
    for r in rows:
        print(f"p={r['p']:>6}  F_p {r['fp_count_s'] * 1e3:9.3f} ms"
              f"  F_p^2 {r['fp2_count_s']:9.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
