"""Modular arithmetic helpers: primes, quadratic characters, polynomials mod p.

Everything here is exact integer arithmetic.  The quadratic character table
(an int64 array indexed by residue, so the counting modules index it with
whole arrays of values) and dense polynomials over F_p for the
factorization-shape scan are the only pieces of field theory the rest of
the package needs.  A polynomial over F_p is a plain list of ascending
coefficients, each a residue in [0, p), with no trailing zeros ([] is
zero); the functions take p as their last argument.  poly_trim is the one
place that strips trailing zeros, also for integer coefficient lists.
"""

from __future__ import annotations

import numpy as np


def sieve_primes(n: int) -> list[int]:
    """All primes <= n, ascending (sieve of Eratosthenes)."""
    if n < 2:
        return []
    mark = bytearray([1]) * (n + 1)
    mark[0] = mark[1] = 0
    for q in range(2, int(n**0.5) + 1):
        if mark[q]:
            mark[q * q :: q] = bytearray(len(range(q * q, n + 1, q)))
    return [i for i in range(2, n + 1) if mark[i]]


def is_prime(n: int) -> bool:
    """Trial division; fine for the prime sizes used here (< 10^7 or so)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    q = 3
    while q * q <= n:
        if n % q == 0:
            return False
        q += 2
    return True


def character_table(p: int) -> np.ndarray:
    """Legendre symbols mod an odd prime p: chi[a] in {-1, 0, +1} for a in
    0..p-1, as int64, with chi[0] = 0."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"character table needs an odd prime, got {p}")
    a = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[a * a % p] = 1
    chi[0] = 0
    return chi


# ---------------------------------------------------------------------------
# dense univariate polynomials over F_p as lists, coefficient index =
# exponent, so len(a) - 1 is the degree; only poly_trim changes its input

def poly_trim(coeffs: list[int]) -> list[int]:
    """Strip trailing zeros in place and return the list."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_add(a: list[int], b: list[int], p: int) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return poly_trim(out)


def poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return poly_trim(out)


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly_trim([c % p for c in out])


def poly_divmod(a: list[int], f: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by f over F_p.  f must be nonzero."""
    if not f:
        raise ZeroDivisionError("polynomial division by zero")
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    r = list(a)
    quot = [0] * max(len(r) - df, 0)
    while len(r) > df:
        q = r.pop() * inv_lead % p
        if q:
            shift = len(r) - df
            quot[shift] = q
            r[shift:] = [(c - q * fc) % p for c, fc in zip(r[shift:], f)]
    return quot, poly_trim(r)


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p (Euclid); gcd(0, 0) = 0."""
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def poly_xgcd(
    a: list[int], b: list[int], p: int
) -> tuple[list[int], list[int], list[int]]:
    """(g, s, t) with g = s*a + t*b the monic gcd over F_p; all three are
    zero when a and b are."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, p), p)
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1, p), p)
    if not r0:
        return [], [], []
    inv = pow(r0[-1], p - 2, p)
    return tuple([c * inv % p for c in x] for x in (r0, s0, t0))


def poly_powmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    """base^e mod f by square and multiply; e >= 0."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = [1]
    acc = poly_divmod(base, f, p)[1]
    while e:
        if e & 1:
            result = poly_divmod(poly_mul(result, acc, p), f, p)[1]
        acc = poly_divmod(poly_mul(acc, acc, p), f, p)[1]
        e >>= 1
    return result


def poly_derivative(a: list[int], p: int) -> list[int]:
    return poly_trim([i * c % p for i, c in enumerate(a)][1:])
