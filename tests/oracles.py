"""Slow reference implementations that the tests compare the package against.

None of these is called by the package itself: they are direct, obviously
correct versions of quantities the runtime computes another way.
"""

from frobstat.arith import Fp2, PolyModP, poly_trim


def fp2_mul(ctx: Fp2, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(a + b t)(c + e t) in F_p[t]/(t^2 - d)."""
    a, b = x
    c, e = y
    p = ctx.p
    return ((a * c + ctx.d * b * e) % p, (a * e + b * c) % p)


def fp2_pow(ctx: Fp2, x: tuple[int, int], e: int) -> tuple[int, int]:
    result = (1, 0)
    acc = x
    while e:
        if e & 1:
            result = fp2_mul(ctx, result, acc)
        acc = fp2_mul(ctx, acc, acc)
        e >>= 1
    return result


def chi2_direct(ctx: Fp2, x: tuple[int, int]) -> int:
    """Quadratic character of F_{p^2} via Euler's criterion x^((p^2-1)/2)."""
    if x == (0, 0):
        return 0
    y = fp2_pow(ctx, x, (ctx.p * ctx.p - 1) // 2)
    if y == (1, 0):
        return 1
    if y == (ctx.p - 1, 0):
        return -1
    raise AssertionError(f"character value {y} not +-1")


def poly_add(a: PolyModP, b: PolyModP) -> PolyModP:
    p = a.p
    n = max(len(a.coeffs), len(b.coeffs))
    out = [0] * n
    for i, c in enumerate(a.coeffs):
        out[i] = c
    for i, c in enumerate(b.coeffs):
        out[i] = (out[i] + c) % p
    return PolyModP(p, tuple(poly_trim(out)))


def singular_count(p: int) -> int:
    """Direct count of (A, B) with 4A^3 + 27B^2 = 0 mod p (independent of
    ap_distribution's masking; used to verify it equals p)."""
    n = 0
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b * b) % p == 0:
                n += 1
    return n
