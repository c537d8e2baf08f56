"""Modular arithmetic helpers: primes, quadratic characters, polynomials mod p.

Everything here is exact integer arithmetic.  The quadratic character table
(an int64 array indexed by residue, so the counting modules index it with
whole arrays of values) and dense polynomials over F_p for the Jacobian
walk in hasse_witt are the only pieces of field theory the rest of the
package needs.  A polynomial over F_p is a plain list of ascending
coefficients, each a residue in [0, p), with no trailing zeros ([] is
zero); the functions take p as their last argument.  poly_trim is the one
place that strips trailing zeros, also for integer coefficient lists.

Primes come from one segmented sieve of Eratosthenes, prime_blocks, which
holds one window of the number line at a time, so a caller that walks the
primes block by block needs memory that does not grow with the bound.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

# numbers per sieve window (at least sqrt(n), so the first window holds
# every prime that strikes out the later ones)
_WINDOW = 2**15


def prime_blocks(n: int, size: int) -> Iterator[list[int]]:
    """The primes <= n, ascending, in lists of `size` primes (the last may
    be shorter), from a segmented sieve of Eratosthenes."""
    block: list[int] = []
    for primes in _sieve_windows(n):
        block += primes
        while len(block) >= size:
            yield block[:size]
            block = block[size:]
    if block:
        yield block


def _sieve_windows(n: int) -> Iterator[list[int]]:
    """The primes <= n, one ascending list per window of the number line.
    The first window is sieved by its own primes and keeps those up to
    sqrt(n), which strike out the composites of every later window."""
    if n < 2:
        return
    width = max(math.isqrt(n) + 1, _WINDOW)
    base: list[int] = []
    for lo in range(0, n + 1, width):
        hi = min(lo + width, n + 1)
        mark = bytearray([1]) * (hi - lo)
        if lo == 0:
            mark[:2] = bytes(2)
            strikers = (q for q in range(2, math.isqrt(hi - 1) + 1) if mark[q])
        else:
            strikers = (q for q in base if q * q < hi)
        for q in strikers:
            start = max(q * q, -(-lo // q) * q)
            mark[start - lo :: q] = bytes(len(range(start, hi, q)))
        primes = (np.flatnonzero(np.frombuffer(mark, dtype=np.uint8)) + lo).tolist()
        if lo == 0:
            base = [q for q in primes if q * q <= n]
        yield primes


def sieve_primes(n: int) -> list[int]:
    """All primes <= n, ascending."""
    return [q for primes in _sieve_windows(n) for q in primes]


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
    0..p-1, as int64, with chi[0] = 0.

    p must be prime, which is not tested here: the callers
    (counting._check_reduction, birch.ap_distribution) test it first, and
    an odd composite p gives a table of no meaning.  Only the (p-1)/2
    squares x^2 with 1 <= x <= (p-1)/2 are marked, since (-x)^2 = x^2.
    x^2 < p^2 / 4, so the int64 arithmetic is exact for every p with
    p^2 < 2^63, the bound counting enforces first.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"character table needs an odd prime, got {p}")
    x = np.arange(1, (p + 1) // 2, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[reduce_mod(x * x, p)] = 1
    chi[0] = 0
    return chi


def reduce_mod(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p in place for nonnegative int64 a; returns a.  From about 500
    elements on, numpy runs a - (a // p) * p two to three times faster than
    a % p, which costs less on shorter arrays (numpy 2.4)."""
    if a.size < 512:
        a %= p
        return a
    q = a // p
    q *= p
    a -= q
    return a


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
