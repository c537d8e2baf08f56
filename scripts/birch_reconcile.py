#!/usr/bin/env python3
"""Fixed-prime trace moments: the exact tally over all curves mod p vs the
closed-form polynomials in p, then the drift of M_2d / p^d toward the
Catalan numbers as p grows.

    python scripts/birch_reconcile.py --pmax 97
"""

import argparse
import time

from frobstat.arith import sieve_primes
from frobstat.birch import (
    ap_distribution,
    birch_formula,
    catalan_trend,
    tau_of_prime,
)
from frobstat.haar import exact_moment

CATALAN = [exact_moment("SU(2)", 2 * d) for d in range(1, 6)]


def reconcile(p):
    t0 = time.perf_counter()
    dist = ap_distribution(p)
    tau_p = tau_of_prime(p)
    print(f"=== p = {p}  ({dist.total} curve pairs, "
          f"tau(p) = {tau_p}, {time.perf_counter() - t0:.2f}s)")
    for d in (2, 4, 6, 8, 10):
        brute = dist.moment(d)
        form = birch_formula(p, d, tau_p if d == 10 else None)
        flag = "ok" if brute == form else "MISMATCH"
        print(f"  M{d:<2} = {str(brute):>18}   formula {str(form):>18}   {flag}")
    odd = [d for d in (1, 3, 5, 7, 9) if dist.moment(d) != 0]
    print(f"  odd moments vanish: {'yes' if not odd else odd}")


def trend(pmax):
    primes = [p for p in sieve_primes(pmax) if p >= 5]
    print(f"=== M_2d / p^d vs Catalan, p up to {pmax}")
    header = "  p    " + "".join(f"   d={d} (-> {c})" for d, c in
                                 zip(range(1, 6), CATALAN))
    print(header)
    rows = catalan_trend(range(1, 6), primes)
    for p in primes[-6:]:
        cells = "".join(f"   {float(rows[d][p]):10.4f}" for d in range(1, 6))
        print(f"  {p:<5}{cells}")
    print("  (d = 5 converges more slowly: the tau term only dies "
          "like 1/sqrt(p))")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", default="5,7,11,13,17",
                    help="primes for the exact reconciliation")
    ap.add_argument("--pmax", type=int, default=97,
                    help="bound for the Catalan trend table")
    args = ap.parse_args()

    for tok in args.p.split(","):
        reconcile(int(tok))
    print()
    trend(args.pmax)


if __name__ == "__main__":
    main()
