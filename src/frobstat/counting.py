"""Point counting on hyperelliptic curves y^2 = f(x) over F_p and F_{p^2}.

f has integer coefficients and degree 3..6, so the smooth model has genus 1
or 2.  Counts are affine character sums plus the points at infinity of the
smooth model: one point for odd deg f, and for even deg f two points when
the leading coefficient is a square in the field (always true in F_{p^2}).

A genus-2 scan needs the O(p^2) F_{p^2} count only where the Hasse-Witt
path of hasse_witt does not apply; scan.record_for_prime checks each prime
once and hands one character table and one array of the values of f mod p
to the private counts and to that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import character_table, is_prime, poly_trim, sieve_primes

# the F_{p^2} count's lazy reduction keeps values below about 3.5 p^3,
# which fits in int64 only for p below this bound
EXT2_MAX_P = 10**6
# rows of b values evaluated per numpy pass in the F_{p^2} count
_EXT2_CHUNK = 128


class BadReductionError(ValueError):
    """Raised when a prime cannot be used for counting; .reason says why."""

    def __init__(self, p: int, reason: str):
        self.p = p
        self.reason = reason
        super().__init__(f"p={p} rejected: {reason}")


class WeilBoundError(RuntimeError):
    """A computed count violated the Hasse-Weil bound (internal bug guard)."""


def _bareiss_det(m: list[list[int]]) -> int:
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


def poly_discriminant(coeffs: list[int]) -> int:
    """Discriminant of f given ascending integer coefficients.

    disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), computed exactly via the
    Sylvester determinant.
    """
    c = poly_trim(list(coeffs))
    n = len(c) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    deriv = [i * a for i, a in enumerate(c)][1:]
    m = len(deriv) - 1  # n - 1 since char 0
    size = n + m
    desc_f = c[::-1]
    desc_g = deriv[::-1]
    rows = []
    for i in range(m):
        rows.append([0] * i + desc_f + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + desc_g + [0] * (size - m - 1 - i))
    res = _bareiss_det(rows)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    lead = c[-1]
    assert res % lead == 0
    return sign * (res // lead)


@dataclass(frozen=True)
class HyperellipticCurve:
    """y^2 = f(x) with integer f of degree 3..6 and nonzero discriminant.

    f_coeffs is ascending: f_coeffs[i] multiplies x^i.  genus is 1 for
    degrees 3-4 and 2 for degrees 5-6.  disc is the discriminant of f over
    the rationals.
    """

    f_coeffs: tuple[int, ...]
    genus: int
    disc: int

    @property
    def degree(self) -> int:
        return len(self.f_coeffs) - 1

    @property
    def leading(self) -> int:
        return self.f_coeffs[-1]

    def pretty(self) -> str:
        parts = []
        for i in range(self.degree, -1, -1):
            a = self.f_coeffs[i]
            if a == 0:
                continue
            if i == 0:
                term = str(abs(a))
            else:
                xa = "x" if i == 1 else f"x^{i}"
                term = xa if abs(a) == 1 else f"{abs(a)}*{xa}"
            parts.append(("- " if a < 0 else "+ " if parts else "") + term)
        return "y^2 = " + " ".join(parts)


def make_curve(f_coeffs) -> HyperellipticCurve:
    c = poly_trim([int(a) for a in f_coeffs])
    deg = len(c) - 1
    if deg < 3 or deg > 6:
        raise ValueError(f"deg f must be 3..6, got {deg}")
    disc = poly_discriminant(c)
    if disc == 0:
        raise ValueError("f must be squarefree (nonzero discriminant)")
    genus = 1 if deg <= 4 else 2
    return HyperellipticCurve(f_coeffs=tuple(c), genus=genus, disc=disc)


def _check_reduction(curve: HyperellipticCurve, p: int) -> None:
    # for odd p not dividing lc(f), f mod p is squarefree iff p does not
    # divide disc(f)
    if p == 2:
        raise BadReductionError(p, "p=2 not supported (y^2 = f degenerates)")
    if not is_prime(p):
        raise BadReductionError(p, "not a prime")
    if curve.leading % p == 0:
        raise BadReductionError(p, "p divides the leading coefficient")
    if curve.disc % p == 0:
        raise BadReductionError(p, "f is not squarefree mod p")


def _assert_weil(count: int, p: int, ext: int, genus: int) -> None:
    lo, hi = hasse_interval(p, ext, genus)
    if not lo <= count <= hi:
        raise WeilBoundError(
            f"count {count} violates the Weil bound at p={p}, ext={ext}"
        )


def _check_ext2_bound(p: int) -> None:
    if p >= EXT2_MAX_P:
        raise ValueError(
            f"the F_{{p^2}} count needs p < {EXT2_MAX_P} to stay in int64, got p={p}"
        )


def count_points(curve: HyperellipticCurve, p: int, ext: int = 1) -> int:
    """Number of points on the smooth model of the curve over F_{p^ext}.

    ext is 1 or 2.  Affine points are counted by the quadratic character
    sum; chi(0) = 0 makes the x with f(x) = 0 contribute exactly one point.
    Raises BadReductionError for unusable primes, ValueError for ext = 2 at
    p >= EXT2_MAX_P, and WeilBoundError if the result falls outside the
    Hasse-Weil interval (which would be a bug).  The F_p count and the
    character table form values below p^2 in int64, so they are exact only
    for p < 3.03e9; their 8p-byte arrays exhaust memory long before that.
    """
    _check_reduction(curve, p)
    if ext == 1:
        count = _count_ext1
    elif ext == 2:
        _check_ext2_bound(p)
        count = _count_ext2
    else:
        raise ValueError(f"ext must be 1 or 2, got {ext}")
    n = count(curve, p, character_table(p), _values_mod_p([a % p for a in curve.f_coeffs], p))
    _assert_weil(n, p, ext, curve.genus)
    return n


def _values_mod_p(coeffs: list[int], p: int) -> np.ndarray:
    """f(x) mod p at every x in F_p by Horner; coeffs ascending, reduced."""
    x = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for a in reversed(coeffs):
        acc = (acc * x + a) % p
    return acc


def _count_ext1(curve: HyperellipticCurve, p: int, chi: np.ndarray, values: np.ndarray) -> int:
    """Count over F_p from chi and values = f mod p at every x in F_p."""
    affine = p + int(chi[values].sum())
    if curve.degree % 2 == 1:
        inf = 1
    else:
        inf = 2 if chi[curve.leading % p] == 1 else 0
    return affine + inf


def _count_ext2(curve: HyperellipticCurve, p: int, chi: np.ndarray, values: np.ndarray) -> int:
    """Count over F_{p^2} = F_p[t]/(t^2 - d); chi and values as for _count_ext1.

    Evaluates f by Horner directly in the extension and tests squareness via
    chi_p(Norm).  Conjugate elements a + bt and a - bt give equal character
    values, so only b in 0..(p-1)/2 is evaluated and the b > 0 half doubled.
    """
    # the smallest nonresidue d defines F_{p^2} = F_p[t]/(t^2 - d)
    d = int(np.argmax(chi < 0))
    coeffs = [a % p for a in curve.f_coeffs]

    # b = 0 row: x in F_p, f(x) in F_p, chi2 = 1 unless f(x) = 0
    char_sum = p - int((values == 0).sum())

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


def good_primes(curve: HyperellipticCurve, n: int) -> list[int]:
    """Odd primes <= n dividing neither lc(f) nor disc(f), ascending."""
    bad = abs(curve.leading * curve.disc)
    return [p for p in sieve_primes(n) if p > 2 and bad % p != 0]


def hasse_interval(p: int, ext: int, genus: int) -> tuple[int, int]:
    """Closed integer interval of admissible point counts over F_{p^ext}."""
    q = p**ext
    w = math.isqrt(4 * genus * genus * q)  # floor(2g sqrt(q)), exact
    return q + 1 - w, q + 1 + w
