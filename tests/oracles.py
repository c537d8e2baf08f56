"""Slow reference implementations that the tests compare the package against.

None of these is called by the package itself: they are direct, obviously
correct versions of quantities the runtime computes another way.
"""

import math
from fractions import Fraction

import numpy as np

from frobstat.arith import character_table, poly_divmod, poly_mul, poly_sub, poly_trim
from frobstat.birch import ApDistribution
from frobstat.chebotarev import SkippedPrimeError
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


# the lazy reduction of count_ext2 keeps values below about 3.5 p^3, which
# fits in int64 only for p below this bound
EXT2_MAX_P = 10**6
# rows of b values evaluated per numpy pass in count_ext2
_EXT2_CHUNK = 128


def count_ext2(curve, p: int) -> int:
    """#C(F_{p^2}) of a curve from frobstat.counting.make_curve, counted
    over F_p[t]/(t^2 - d) with numpy, the fast O(p^2) oracle for n2.

    Evaluates f by Horner directly in the extension and tests squareness via
    chi_p(Norm).  Conjugate elements a + bt and a - bt give equal character
    values, so only b in 0..(p-1)/2 is evaluated and the b > 0 half doubled.
    """
    assert p < EXT2_MAX_P, f"count_ext2 is exact in int64 only for p < {EXT2_MAX_P}"
    chi = character_table(p)
    # the smallest nonresidue d defines F_{p^2} = F_p[t]/(t^2 - d)
    d = int(np.argmax(chi < 0))
    coeffs = [a % p for a in curve.f_coeffs]

    # b = 0 row: x in F_p, f(x) in F_p, chi2 = 1 unless f(x) = 0
    char_sum = p - len(roots_mod_p(coeffs, p))

    a_row = np.arange(p, dtype=np.int64)[None, :]
    for b0 in range(1, (p - 1) // 2 + 1, _EXT2_CHUNK):
        b = np.arange(b0, min(b0 + _EXT2_CHUNK, (p - 1) // 2 + 1), dtype=np.int64)[:, None]
        bd = b * d % p
        u = np.zeros((len(b), p), dtype=np.int64)
        v = np.zeros((len(b), p), dtype=np.int64)
        # lazy reduction: values stay below ~3.5p^3 over two unreduced
        # steps, inside int64 for p < EXT2_MAX_P
        for i, a in enumerate(reversed(coeffs)):
            u, v = u * a_row + v * bd + a, u * b + v * a_row
            if i & 1:
                u %= p
                v %= p
        u %= p
        v %= p
        norm = (u * u - d * v * v) % p
        char_sum += 2 * int(chi[norm].sum())

    affine = p * p + char_sum
    # deg even: the leading coefficient is an F_p unit, hence a square in
    # F_{p^2}, so both branches at infinity are rational
    inf = 1 if curve.degree % 2 == 1 else 2
    return affine + inf


def values_mod_p_horner(coeffs: list[int], p: int) -> np.ndarray:
    """f(x) mod p at every x in F_p by Horner over all of F_p; coeffs
    ascending, reduced."""
    x = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for a in reversed(coeffs):
        acc = (acc * x + a) % p
    return acc


def sqrt_compare(u: int, v: int, p: int) -> bool:
    """Exact test of u + v*sqrt(p) >= 0 for integers u, v and p >= 0."""
    if u >= 0 and v >= 0:
        return True
    if u < 0 and v <= 0:
        return False
    if v < 0:  # u >= 0: need u^2 >= v^2 p
        return u * u >= v * v * p
    return v * v * p >= u * u  # u < 0, v > 0


def weil_ok_genus2(p: int, c1: int, c2: int) -> bool:
    """Whether 1 + c1 T + c2 T^2 + p c1 T^3 + p^2 T^4 has all inverse roots
    of absolute value sqrt(p), by four separate exact tests: t = T + 1/T
    turns the normalized quartic into h(t) = t^2 + a1 t + (a2 - 2), which
    needs disc >= 0, h(2) >= 0, h(-2) >= 0 and its vertex -a1/2 in [-2, 2]."""
    return (
        c1 * c1 - 4 * c2 + 8 * p >= 0  # p * disc
        and sqrt_compare(2 * p + c2, 2 * c1, p)  # p * h(2)
        and sqrt_compare(2 * p + c2, -2 * c1, p)  # p * h(-2)
        and c1 * c1 <= 16 * p  # |a1| <= 4
    )


def bareiss_det(m: list[list[int]]) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def discriminant_sylvester(coeffs: list[int]) -> int:
    """Discriminant of f given ascending integer coefficients, as
    (-1)^(n(n-1)/2) Res(f, f') / lc(f) with the resultant taken as the
    determinant of the Sylvester matrix."""
    c = poly_trim(list(coeffs))
    n = len(c) - 1
    deriv = [i * a for i, a in enumerate(c)][1:]
    m = n - 1
    size = n + m
    rows = [[0] * i + c[::-1] + [0] * (size - n - 1 - i) for i in range(m)]
    rows += [[0] * i + deriv[::-1] + [0] * (size - m - 1 - i) for i in range(n)]
    res = bareiss_det(rows)
    assert res % c[-1] == 0
    return (-1) ** (n * (n - 1) // 2) * (res // c[-1])


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


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p (Euclid); gcd(0, 0) = 0."""
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


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


def factorization_shape_ddf(f_coeffs, p: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors of f mod p, ascending, by
    distinct-degree splitting one prime at a time: gcd(x^{p^i} - x, f)
    collects exactly the degree-i factors.  Raises SkippedPrimeError when p
    divides the leading coefficient or f mod p is not squarefree."""
    coeffs = poly_trim([int(a) for a in f_coeffs])
    if len(coeffs) < 2:
        raise ValueError("need deg f >= 1")
    if coeffs[-1] % p == 0:
        raise SkippedPrimeError(f"p={p} divides the leading coefficient")
    f = [a % p for a in coeffs]
    if len(poly_gcd(f, poly_derivative(f, p), p)) != 1:
        raise SkippedPrimeError(f"f is not squarefree mod p={p}")

    shape: list[int] = []
    x = [0, 1]
    h = poly_divmod(x, f, p)[1]  # x^{p^0 * 1}; powered up once per round
    d = 0
    while len(f) > 1:
        d += 1
        deg = len(f) - 1
        if 2 * d > deg:
            # whatever remains has no factor of degree <= deg/2: irreducible
            shape.append(deg)
            break
        h = poly_powmod(h, p, f, p)
        g = poly_gcd(f, poly_sub(h, x, p), p)
        if len(g) > 1:
            assert (len(g) - 1) % d == 0
            shape.extend([d] * ((len(g) - 1) // d))
            f = poly_divmod(f, g, p)[0]
            h = poly_divmod(h, f, p)[1]
    return tuple(sorted(shape))


def ap_distribution_per_a(p: int) -> ApDistribution:
    """The tally that frobstat.birch.ap_distribution computed before it ran
    over twist orbits: a brute force over all p^2 pairs (A, B).

    a(A, B) = -sum_x chi(x^3 + A x + B).  Vectorized per A: the table of
    chi(x^3 + A x + B) over (x, B) is a pure index shift of the chi table.
    O(p^3) time and a p x p int64 temporary for every A.
    """
    chi = character_table(p)
    x = np.arange(p, dtype=np.int64)
    b = np.arange(p, dtype=np.int64)
    x3 = x * x % p * x % p
    off = math.isqrt(4 * p) + 1  # traces live in [-2 sqrt p, 2 sqrt p]
    acc = np.zeros(2 * off + 1, dtype=np.int64)
    for a_coef in range(p):
        t = (x3 + a_coef * x) % p  # f(x) - B for this A
        traces = -chi[(t[:, None] + b[None, :]) % p].sum(axis=0)
        disc_zero = (4 * a_coef**3 + 27 * b * b) % p == 0
        acc += np.bincount(traces[~disc_zero] + off, minlength=2 * off + 1)
    counts = {int(a - off): int(c) for a, c in enumerate(acc) if c}
    return ApDistribution(p=p, counts=counts, total=sum(counts.values()))


def singular_count(p: int) -> int:
    """Direct count of (A, B) with 4A^3 + 27B^2 = 0 mod p, to verify that it
    equals p, as ap_distribution's total p^2 - p assumes."""
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


def closed_form_moment(kind: str, d: int) -> Fraction:
    """Reference closed forms for the genus-1 groups' even moments M_{2d}."""
    if kind == "catalan":
        return Fraction(math.comb(2 * d, d), d + 1)
    if kind == "central_binomial":
        return Fraction(math.comb(2 * d, d))
    if kind == "half_central_binomial":
        return Fraction(1) if d == 0 else Fraction(math.comb(2 * d, d), 2)
    raise ValueError(f"unknown closed form {kind!r}")
