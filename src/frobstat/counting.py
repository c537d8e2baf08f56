"""Point counting on hyperelliptic curves y^2 = f(x) over F_p and F_{p^2}.

f has integer coefficients, degree 3..6 and a nonzero discriminant (from
Euclid's resultant of f and f'), so the smooth model has genus 1 or 2.
The F_p count is the affine character sum plus the points at infinity of
the smooth model: one point for odd deg f, and for even deg f two points
when the leading coefficient is a square mod p.

frobenius is the one per-prime route, read by count_points and
scan.record_for_prime: one reduction check, one character table and one
array of f mod p feed the F_p count and the L-polynomial, which gives the
count over F_{p^2}.  hasse_witt_lpoly decides every genus-2 L-polynomial,
and enumerates F_{p^2} itself where the Jacobian points leave c2 open, as
for x^5 - x at p = 3 and 5.  The L-polynomial is the one Weil check:
lpoly_from_counts and hasse_witt_lpoly raise LPolyValidationError for
counts no Weil-admissible polynomial gives, and a Weil-admissible one
keeps every count it predicts inside the Hasse-Weil interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import character_table, is_prime, poly_trim, reduce_mod, sieve_primes
from .hasse_witt import hasse_witt_lpoly
from .lpoly import LPoly, lpoly_from_counts, predicted_count


class BadReductionError(ValueError):
    """Raised when a prime cannot be used for counting; .reason says why."""

    def __init__(self, p: int, reason: str):
        self.p = p
        self.reason = reason
        super().__init__(f"p={p} rejected: {reason}")


def poly_discriminant(coeffs: list[int]) -> int:
    """Discriminant of f given ascending integer coefficients.

    disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f) for f of degree n.  The
    resultant comes from Euclid's algorithm over the rationals:
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) for
    r = a mod b, Res(a, b) = 0 when r = 0 and deg b > 0, and
    Res(a, c) = c^(deg a) for a constant c.
    """
    a = [Fraction(c) for c in poly_trim(list(coeffs))]
    n = len(a) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    b = [i * c for i, c in enumerate(a)][1:]
    res = Fraction((-1) ** (n * (n - 1) // 2), a[-1])
    while len(b) > 1:
        r = a[:]
        while len(r) >= len(b):
            q = r.pop() / b[-1]
            shift = len(r) + 1 - len(b)
            for i, c in enumerate(b[:-1]):
                r[shift + i] -= q * c
            poly_trim(r)
        if not r:
            return 0
        res *= (-1) ** ((len(a) - 1) * (len(b) - 1)) * b[-1] ** (len(a) - len(r))
        a, b = b, r
    return int(res * b[0] ** (len(a) - 1))


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
    # divide disc(f); the int64 tables hold values below p^2
    if p * p >= 2**63:
        raise BadReductionError(p, "p^2 >= 2^63 overflows the int64 tables")
    if p == 2:
        raise BadReductionError(p, "p=2 not supported (y^2 = f degenerates)")
    if not is_prime(p):
        raise BadReductionError(p, "not a prime")
    if curve.leading % p == 0:
        raise BadReductionError(p, "p divides the leading coefficient")
    if curve.disc % p == 0:
        raise BadReductionError(p, "f is not squarefree mod p")


def count_points(curve: HyperellipticCurve, p: int, ext: int = 1) -> int:
    """Number of points on the smooth model of the curve over F_{p^ext}.

    ext is 1 or 2.  Both counts come from frobenius: the F_p count, and
    the count over F_{p^2} that its L-polynomial predicts.  Raises as
    frobenius does.
    """
    if ext not in (1, 2):
        raise ValueError(f"ext must be 1 or 2, got {ext}")
    n1, lp = frobenius(curve, p)
    return n1 if ext == 1 else predicted_count(lp, 2)


def frobenius(curve: HyperellipticCurve, p: int) -> tuple[int, LPoly]:
    """(n1, L-polynomial) at p, from one table and one array of f mod p;
    in genus 2 hasse_witt_lpoly decides the L-polynomial.

    Raises BadReductionError for unusable primes, and LPolyValidationError
    for counts that no Weil-admissible L-polynomial gives (which would be
    a bug).  The character table and f mod p form values below p^2 in
    int64, so primes with p^2 >= 2^63 (p > 3037000499) are refused as
    BadReductionError before any table is built.
    """
    _check_reduction(curve, p)
    chi = character_table(p)
    values = _values_mod_p([a % p for a in curve.f_coeffs], p)
    n1 = _count_ext1(curve, p, chi, values)
    if curve.genus == 1:
        return n1, lpoly_from_counts(1, p, n1)
    return n1, hasse_witt_lpoly(curve.f_coeffs, p, n1 - p - 1, chi, values)


def _values_mod_p(coeffs: list[int], p: int) -> np.ndarray:
    """f(x) mod p at every x in F_p by one Horner pass in place; coeffs
    ascending, reduced, p an odd prime.

    The largest int64 intermediate is a step acc * x + a <= (p-1)^2 + p - 1
    < p^2, exact for every p with p^2 < 2^63, which _check_reduction
    enforces first.
    """
    x = np.arange(p, dtype=np.int64)
    acc = np.full(p, coeffs[-1], dtype=np.int64)
    for a in coeffs[-2::-1]:
        acc *= x
        acc += a
        reduce_mod(acc, p)
    return acc


def _count_ext1(curve: HyperellipticCurve, p: int, chi: np.ndarray, values: np.ndarray) -> int:
    """Count over F_p from chi and values = f mod p at every x in F_p: the
    affine points by the quadratic character sum, where chi(0) = 0 makes
    each x with f(x) = 0 one point, and then the points at infinity."""
    affine = p + int(chi[values].sum())
    if curve.degree % 2 == 1:
        inf = 1
    else:
        inf = 2 if chi[curve.leading % p] == 1 else 0
    return affine + inf


def good_primes(curve: HyperellipticCurve, n: int) -> list[int]:
    """Odd primes <= n dividing neither lc(f) nor disc(f), ascending."""
    bad = abs(curve.leading * curve.disc)
    return [p for p in sieve_primes(n) if p > 2 and bad % p != 0]
