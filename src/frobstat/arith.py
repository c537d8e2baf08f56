"""Modular arithmetic helpers: primes, quadratic characters, polynomials mod p.

Everything here is exact integer arithmetic.  The quadratic character table
(an int64 array indexed by residue, so the counting modules index it with
whole arrays of values) and dense polynomials over F_p for the
factorization-shape scan are the only pieces of field theory the rest of
the package needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
# dense univariate polynomials over F_p, coefficient index = exponent

def poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@dataclass(frozen=True)
class PolyModP:
    """A polynomial over F_p.  coeffs[i] is the coefficient of x^i, reduced
    into [0, p); no trailing zeros, so the zero polynomial has coeffs == ()."""

    p: int
    coeffs: tuple[int, ...] = field(default=())

    @classmethod
    def make(cls, p: int, coeffs) -> "PolyModP":
        c = [int(a) % p for a in coeffs]
        return cls(p=p, coeffs=tuple(poly_trim(c)))

    @property
    def degree(self) -> int:
        # degree of the zero polynomial reported as -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs


def poly_sub(a: PolyModP, b: PolyModP) -> PolyModP:
    p = a.p
    n = max(len(a.coeffs), len(b.coeffs))
    out = [0] * n
    for i, c in enumerate(a.coeffs):
        out[i] = c
    for i, c in enumerate(b.coeffs):
        out[i] = (out[i] - c) % p
    return PolyModP(p, tuple(poly_trim(out)))


def poly_mul(a: PolyModP, b: PolyModP) -> PolyModP:
    p = a.p
    if a.is_zero() or b.is_zero():
        return PolyModP(p)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca:
            for j, cb in enumerate(b.coeffs):
                out[i + j] += ca * cb
    return PolyModP(p, tuple(poly_trim([c % p for c in out])))


def poly_divmod(a: PolyModP, f: PolyModP) -> tuple[PolyModP, PolyModP]:
    """(quotient, remainder) of a by f over F_p.  f must be nonzero."""
    p = a.p
    if f.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    df = f.degree
    inv_lead = pow(f.coeffs[-1], p - 2, p)
    quot = [0] * max(len(r) - df, 0)
    while len(r) - 1 >= df:
        if r[-1] == 0:
            r.pop()
            continue
        q = r[-1] * inv_lead % p
        shift = len(r) - 1 - df
        quot[shift] = q
        for i, c in enumerate(f.coeffs):
            r[shift + i] = (r[shift + i] - q * c) % p
        r.pop()
    return PolyModP(p, tuple(poly_trim(quot))), PolyModP(p, tuple(poly_trim(r)))


def poly_rem(a: PolyModP, f: PolyModP) -> PolyModP:
    """a mod f.  f must be nonzero."""
    return poly_divmod(a, f)[1]


def poly_gcd(a: PolyModP, b: PolyModP) -> PolyModP:
    """Monic gcd over F_p (Euclid); gcd(0, 0) = 0."""
    p = a.p
    while not b.is_zero():
        a, b = b, poly_rem(a, b)
    if a.is_zero():
        return a
    inv = pow(a.coeffs[-1], p - 2, p)
    return PolyModP(p, tuple(c * inv % p for c in a.coeffs))


def poly_powmod(base: PolyModP, e: int, f: PolyModP) -> PolyModP:
    """base^e mod f by square and multiply; e >= 0."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    p = base.p
    result = PolyModP(p, (1,))
    acc = poly_rem(base, f)
    while e:
        if e & 1:
            result = poly_rem(poly_mul(result, acc), f)
        acc = poly_rem(poly_mul(acc, acc), f)
        e >>= 1
    return result


def poly_derivative(a: PolyModP) -> PolyModP:
    p = a.p
    out = [i * c % p for i, c in enumerate(a.coeffs)][1:]
    return PolyModP(p, tuple(poly_trim(out)))
