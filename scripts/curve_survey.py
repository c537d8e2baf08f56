#!/usr/bin/env python3
"""Scan a few curves, print their empirical moments next to the exact group
moments, and show which group the classifier picks.

Run from the repo root after installing the package:

    python scripts/curve_survey.py --N 8192
"""

import argparse
import time
from fractions import Fraction

from frobstat.counting import make_curve
from frobstat.haar import exact_moment, get_entry
from frobstat.scan import scan_curve
from frobstat.stats import (
    classify,
    empirical_density,
    empirical_moments,
    records_density_map,
    z_scores,
)

# ascending f coefficients, group we expect the classifier to pick
CURVES = [
    ([1, 1, 0, 1], "SU(2)"),  # y^2 = x^3 + x + 1
    ([1, 0, 0, 1], "N(U(1))"),  # y^2 = x^3 + 1
    ([0, -1, 0, 1], "N(U(1))"),  # y^2 = x^3 - x
    ([1, -1, 0, 0, 0, 1], "USp(4)"),  # y^2 = x^5 - x + 1
    ([1, 0, 0, 0, 0, 0, 1], None),  # y^2 = x^6 + 1, split/CM type, for contrast
]

SHOW_ORDERS = [(2, 0), (4, 0), (6, 0), (0, 1), (0, 2), (2, 1)]


def survey(coeffs, expect, n, threads):
    curve = make_curve(coeffs)
    t0 = time.perf_counter()
    records = scan_curve(curve, n, threads=threads)
    dt = time.perf_counter() - t0
    print(f"=== {curve.pretty()}  (genus {curve.genus}, "
          f"{len(records)} primes, {dt:.1f}s)")

    table = empirical_moments(records, dmax=8)
    densities = records_density_map(records)
    ranked = classify(table, densities)
    top = ranked[0][0]
    for (d1, d2) in SHOW_ORDERS:
        if (d1, d2) not in table.entries:
            continue
        stat = table.entries[(d1, d2)]
        exact = exact_moment(top, d1, d2)
        print(f"  M[{d1},{d2}] = {stat.value:8.4f} +- {stat.stderr:.4f}"
              f"   {top} says {float(exact):7.4f}")
    # the terms whose squares make up the classifier's score for top
    print(f"  z-scores against {top}:")
    for term, z in z_scores(table, densities)[top]:
        print(f"    {term:<12} {z:+.2f}")

    mass0 = empirical_density(records, "a1", Fraction(0))
    print(f"  mass at a1 = 0: {mass0.hits}/{mass0.n} "
          f"= {float(mass0.frequency):.4f}")
    entry = get_entry(top)
    for stat_name, value, mass in entry.point_masses:
        print(f"  ({top} puts mass {mass} at {stat_name} = {value})")

    print("  ranking:", "  ".join(
        f"{gid}:{score:.1f}" for gid, score in ranked[:4]))
    verdict = "ok" if expect in (None, top) else f"EXPECTED {expect}"
    print(f"  -> classifier picks {top}  [{verdict}]")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=8192, help="prime bound")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--skip-genus2", action="store_true",
                    help="genus-2 scans dominate the runtime; skip them")
    args = ap.parse_args()

    for coeffs, expect in CURVES:
        if args.skip_genus2 and len(coeffs) > 4:
            continue
        n = args.N if len(coeffs) <= 4 else min(args.N, 4096)
        survey(coeffs, expect, n, args.threads)


if __name__ == "__main__":
    main()
