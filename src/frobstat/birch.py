"""Fixed-prime trace distribution over all elliptic curves mod p.

For an odd prime p >= 5, run over all (A, B) in F_p^2 with nonzero
discriminant -16(4A^3 + 27B^2) and tally a = p + 1 - #E(F_p).  The singular
locus 4A^3 + 27B^2 = 0 has exactly p points, so p^2 - p curves contribute.

The tally runs over twist orbits rather than over all p^2 pairs.  The
substitution x -> u x maps (A, B) to (u^2 A, u^3 B) and multiplies the trace
by chi(u).  With AB != 0 the orbit has p - 1 curves and holds exactly one
point (t, t), t = A^3 / B^2; half of its curves have trace a(t, t) and half
-a(t, t).  The lines A = 0 and B = 0 are summed directly.  That is 3(p - 1)
character sums of length p: O(p^2) time and O(p) memory.

Even power moments of a admit exact closed forms in p; the tenth brings in
the Ramanujan tau function, read from the 8th power of Jacobi's series for
eta^3.  Everything here is exact (Fraction / int).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .arith import character_table, is_prime


@dataclass(frozen=True)
class ApDistribution:
    p: int
    counts: dict[int, int]  # trace a -> number of (A, B) pairs
    total: int  # p^2 - p

    def moment(self, d: int) -> Fraction:
        return Fraction(
            sum(a**d * c for a, c in self.counts.items()), self.total
        )


def ap_distribution(p: int) -> ApDistribution:
    """Tally Frobenius traces over all nonsingular Weierstrass pairs mod p.

    a(A, B) = -sum_x chi(x^3 + A x + B).  For each c in F_p^* one numpy pass
    gives a(0, c) and a(c, 0), which count once each, and the orbit
    representative a(c, c), which counts (p - 1)/2 times as a and as -a.
    The orbit t = -27/4 is the singular one and is skipped.
    """
    if p < 5 or not is_prime(p):
        raise ValueError("need a prime p >= 5 (singular-locus count assumes it)")
    chi = character_table(p)
    x = np.arange(p, dtype=np.int64)
    x3 = x * x % p * x % p
    # x^3 + c * lin[k] is x^3 + c, x^3 + c x and x^3 + c x + c
    lin = np.stack([np.ones(p, dtype=np.int64), x, x + 1])
    traces = np.empty((p - 1, 3), dtype=np.int64)
    for c in range(1, p):
        traces[c - 1] = -chi[(x3 + c * lin) % p].sum(axis=1)
    singular = -27 * pow(4, -1, p) % p
    orbit = np.delete(traces[:, 2], singular - 1)
    off = math.isqrt(4 * p) + 1  # traces live in [-2 sqrt p, 2 sqrt p]
    size = 2 * off + 1
    acc = np.bincount(traces[:, :2].ravel() + off, minlength=size)
    acc += (p - 1) // 2 * (np.bincount(orbit + off, minlength=size)
                           + np.bincount(off - orbit, minlength=size))
    counts = {int(a - off): int(c) for a, c in enumerate(acc) if c}
    total = sum(counts.values())
    assert total == p * p - p, f"nonsingular count {total} != p^2 - p"
    return ApDistribution(p=p, counts=counts, total=total)


def birch_formula(p: int, d: int, tau_p: Optional[int] = None) -> Fraction:
    """Closed-form value of the d-th moment, even d in 2..10.

    d = 10 requires tau_p = tau(p) (Ramanujan tau).  These match the tally
    exactly; the test suite checks the tally against a brute force first and
    accepts the formulas as they reconcile.
    """
    q = Fraction(p)
    if d == 2:
        return q - 1 / q
    if d == 4:
        return 2 * q**2 - 3 - 1 / q
    if d == 6:
        return 5 * q**3 - 9 * q - 5 - 1 / q
    if d == 8:
        return 14 * q**4 - 28 * q**2 - 20 * q - 7 - 1 / q
    if d == 10:
        if tau_p is None:
            raise ValueError("d = 10 needs tau(p)")
        return (
            42 * q**5 - 90 * q**3 - 75 * q**2 - 35 * q - 9 - (1 + tau_p) / q
        )
    raise ValueError("closed forms cover even d in 2..10")


def ramanujan_tau(nmax: int) -> list[int]:
    """[tau(1), ..., tau(nmax)] via q * prod_{n>=1} (1 - q^n)^24.

    By Jacobi's identity prod (1 - q^n)^3 is the sparse series
    sum_k (-1)^k (2k+1) q^(k(k+1)/2), so the product is its 8th power,
    taken as eight multiplications by that series, each linear in the
    series length.
    """
    if nmax < 1:
        raise ValueError("nmax >= 1")
    terms = []  # (exponent, coefficient) below nmax
    k = 0
    while k * (k + 1) // 2 < nmax:
        terms.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    coeffs = [1] + [0] * (nmax - 1)  # of q^0 .. q^(nmax-1)
    for _ in range(8):
        new = [0] * nmax
        for e, c in terms:
            new[e:] = [a + c * b for a, b in zip(new[e:], coeffs)]
        coeffs = new
    return coeffs


def tau_of_prime(p: int) -> int:
    return ramanujan_tau(p)[p - 1]


def catalan_trend(
    ds: Iterable[int], primes: list[int]
) -> dict[int, dict[int, Fraction]]:
    """{d: {p: M_{2d}(p) / p^d}}; each ratio tends to the d-th Catalan number.

    Each prime is tallied once, in O(p^2) time, for every d in ds.
    """
    dists = [ap_distribution(p) for p in primes]
    return {d: {dist.p: dist.moment(2 * d) / dist.p**d for dist in dists}
            for d in ds}
