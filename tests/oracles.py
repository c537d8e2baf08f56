"""Slow reference implementations that the tests compare the package against.

None of these is called by the package itself: they are direct, obviously
correct versions of quantities the runtime computes another way.
"""

import numpy as np

from frobstat.arith import poly_trim
from frobstat.laurent import LaurentPoly


def legendre(p: int, a: int) -> int:
    """Legendre symbol (a/p) for an odd prime p by Euler's criterion."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def smallest_nonresidue(p: int) -> int:
    return next(a for a in range(2, p) if legendre(p, a) == -1)


# Elements of F_{p^2} = F_p[t]/(t^2 - d) are pairs (a, b) meaning a + b*t.


def fp2_mul(p: int, d: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(a + b t)(c + e t) in F_p[t]/(t^2 - d)."""
    a, b = x
    c, e = y
    return ((a * c + d * b * e) % p, (a * e + b * c) % p)


def fp2_pow(p: int, d: int, x: tuple[int, int], e: int) -> tuple[int, int]:
    result = (1, 0)
    acc = x
    while e:
        if e & 1:
            result = fp2_mul(p, d, result, acc)
        acc = fp2_mul(p, d, acc, acc)
        e >>= 1
    return result


def chi2_direct(p: int, d: int, x: tuple[int, int]) -> int:
    """Quadratic character of F_{p^2} via Euler's criterion x^((p^2-1)/2)."""
    if x == (0, 0):
        return 0
    y = fp2_pow(p, d, x, (p * p - 1) // 2)
    if y == (1, 0):
        return 1
    if y == (p - 1, 0):
        return -1
    raise AssertionError(f"character value {y} not +-1")


def roots_mod_p(coeffs, p: int) -> list[int]:
    """The roots in F_p of the integer polynomial f, ascending, from
    sum f_i x^i evaluated at every x with a running power of x."""
    x = np.arange(p, dtype=np.int64)
    power = np.ones(p, dtype=np.int64)
    total = np.zeros(p, dtype=np.int64)
    for c in coeffs:
        total = (total + c % p * power) % p
        power = power * x % p
    return [int(r) for r in np.flatnonzero(total == 0)]


def poly_add(a: list[int], b: list[int], p: int) -> list[int]:
    """a + b over F_p, on the package's trimmed residue lists."""
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return poly_trim(out)


def singular_count(p: int) -> int:
    """Direct count of (A, B) with 4A^3 + 27B^2 = 0 mod p (independent of
    ap_distribution's masking; used to verify it equals p)."""
    n = 0
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b * b) % p == 0:
                n += 1
    return n


def eval_angles(poly: LaurentPoly, *thetas):
    """Evaluate poly at z_i = exp(i*theta_i), one scalar or numpy array of
    angles per variable; real for conjugation-symmetric polynomials (the
    imaginary part is discarded)."""
    total = 0.0 * sum(thetas)
    for e, c in poly.terms.items():
        total = total + float(c) * np.cos(sum(ei * th for ei, th in zip(e, thetas)))
    return total


def trace_stats(genus: int, angles: np.ndarray):
    """(a1, a2) arrays from eigenangle rows; a2 is None for genus 1."""
    if genus == 1:
        return 2.0 * np.cos(angles[:, 0]), None
    c1, c2 = np.cos(angles[:, 0]), np.cos(angles[:, 1])
    return 2.0 * (c1 + c2), 2.0 + 4.0 * c1 * c2
