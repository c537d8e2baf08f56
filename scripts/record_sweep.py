#!/usr/bin/env python3
"""Scan records of 64 genus-2 curves at every good prime below N, one JSON
line per (curve, p), for comparing two checkouts of frobstat with diff.

The curves are 14 fixed ones (split Jacobians and leading coefficients
that are not squares mod some p among them) and 50 quintics and sextics in
turn with coefficients in [-9, 9], drawn from random.Random(20261021) and
skipping the draws that are not squarefree.  The last line lists the
(curve, p) pairs whose record enumerated F_{p^2}.  The console line counts
the records by how c2 was decided: by baby-step giant-step alone, by the
Hasse-Witt matrix W (with BSGS's order, where BSGS ran), or by the walk
over the Jacobian points.

Run it from the root of each checkout and compare the files:

    PYTHONPATH=src python scripts/record_sweep.py --N 1200 --out sweep.jsonl
"""

import argparse
import json
import random
import time

from frobstat import counting, hasse_witt
from frobstat.scan import record_for_prime

FIXED = [
    [1, -1, 0, 0, 0, 1],  # x^5 - x + 1
    [2, 3, -1, 0, 1, 5, 1],  # x^6 + 5x^5 + x^4 - x^2 + 3x + 2
    [1, 0, 0, 0, 0, 0, 1],  # x^6 + 1
    [0, -1, 0, 0, 0, 1],  # x^5 - x
    [0, 1, 0, 0, 0, 1],  # x^5 + x
    [1, 0, 0, 0, 0, 1],  # x^5 + 1
    [0, -1, 0, 0, 0, 0, 1],  # x^6 - x
    [1, 0, 0, 1, 0, 0, 1],  # x^6 + x^3 + 1
    [1, 0, -5, 0, -5, 0, 1],  # x^6 - 5x^4 - 5x^2 + 1
    [1, 0, 0, 0, 0, 0, 2],  # 2x^6 + 1
    [0, 2, 0, 0, 0, 3],  # 3x^5 + 2x
    [0, -2, -2, -2, -1, 1],  # x^5 - x^4 - 2x^3 - 2x^2 - 2x
    [1, 1, 0, 0, 0, 2],  # 2x^5 + x + 1
    [3, 0, 3, 1, 0, 3, 3],  # 3x^6 + 3x^5 + x^3 + 3x^2 + 3
]
SEEDED = 50
SEED = 20261021


def curves() -> list[list[int]]:
    """The fixed curves, then the seeded ones."""
    rng = random.Random(SEED)
    drawn, degree = [], 5
    while len(drawn) < SEEDED:
        f = [rng.randint(-9, 9) for _ in range(degree)]
        f.append(rng.choice([c for c in range(-9, 10) if c]))
        try:
            counting.make_curve(f)
        except ValueError:
            continue
        drawn.append(f)
        degree = 11 - degree
    return FIXED + drawn


def sweep(n: int, out) -> tuple[int, list, dict]:
    """Write the record of every good p < n of every curve to out; return
    the number of records, the (f, p) pairs that enumerated F_{p^2} and
    the number of records settled by each route."""
    enumerated, calls = [], {"hasse_witt": 0, "_jacobian_survivors": 0}
    originals = {name: getattr(hasse_witt, name) for name in calls}
    count_ext2 = hasse_witt._count_ext2

    def spy(f_mod_p, p, chi):
        enumerated.append([f, p])  # the curve of the loop below
        return count_ext2(f_mod_p, p, chi)

    def counted(name):
        def call(*args):
            calls[name] += 1
            return originals[name](*args)
        return call

    hasse_witt._count_ext2 = spy
    for name in calls:
        setattr(hasse_witt, name, counted(name))
    records = 0
    try:
        for f in curves():
            curve = counting.make_curve(f)
            for p in counting.good_primes(curve, n - 1):
                line = {"f": f, **record_for_prime(curve, p).to_json_dict()}
                out.write(json.dumps(line, separators=(",", ":")) + "\n")
                records += 1
    finally:
        hasse_witt._count_ext2 = count_ext2
        for name, original in originals.items():
            setattr(hasse_witt, name, original)
    out.write(json.dumps({"fp2_enumerations": enumerated}, separators=(",", ":")) + "\n")
    walk = calls["_jacobian_survivors"]
    routes = {"bsgs": records - calls["hasse_witt"], "w": calls["hasse_witt"] - walk, "walk": walk}
    return records, enumerated, routes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--N", type=int, default=1200, help="every good prime below N")
    ap.add_argument("--out", required=True, help="JSONL file to write")
    args = ap.parse_args()
    t0 = time.perf_counter()
    with open(args.out, "w") as out:
        records, enumerated, routes = sweep(args.N, out)
    top = max((p for _, p in enumerated), default=None)
    print(f"{len(FIXED) + SEEDED} curves, {records} records; c2 by BSGS {routes['bsgs']}, "
          f"by W {routes['w']}, by the walk {routes['walk']}; "
          f"{len(enumerated)} F_{{p^2}} enumerations (largest p: {top}), "
          f"{time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
