"""L-polynomials of genus 1 and 2 curves from point counts.

Genus 1: P(T) = 1 + c1*T + p*T^2.
Genus 2: P(T) = 1 + c1*T + c2*T^2 + p*c1*T^3 + p^2*T^4.

The functional equation fixes the top coefficients, so n1 determines genus 1
and (n1, n2) determines genus 2.  Validity (all inverse roots of absolute
value sqrt(p)) is decided in exact integer arithmetic: substituting
t = T + 1/T turns the normalized quartic into h(t) = t^2 + a1*t + (a2 - 2),
which must have two real roots in [-2, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


class LPolyValidationError(ValueError):
    """Counts inconsistent with a Weil-admissible L-polynomial."""


@dataclass(frozen=True)
class LPoly:
    genus: int
    p: int
    c1: int
    c2: Optional[int] = None  # genus 2 only

    def coefficients(self) -> list[int]:
        """Coefficients of P(T), ascending in T."""
        if self.genus == 1:
            return [1, self.c1, self.p]
        return [1, self.c1, self.c2, self.p * self.c1, self.p * self.p]


@dataclass(frozen=True)
class NormalizedCoeffs:
    genus: int
    a1: float  # c1 / sqrt(p)
    a2: Optional[float] = None  # c2 / p, genus 2 only


def normalize(lp: LPoly) -> NormalizedCoeffs:
    rt = math.sqrt(lp.p)
    if lp.genus == 1:
        return NormalizedCoeffs(genus=1, a1=lp.c1 / rt)
    return NormalizedCoeffs(genus=2, a1=lp.c1 / rt, a2=lp.c2 / lp.p)


def _sqrt_compare(u: int, v: int, p: int) -> bool:
    """Exact test of u + v*sqrt(p) >= 0 for integers u, v."""
    if u >= 0 and v >= 0:
        return True
    if u < 0 and v <= 0:
        return False
    if v < 0:  # u >= 0: need u^2 >= v^2 p
        return u * u >= v * v * p
    return v * v * p >= u * u  # u < 0, v > 0


def weil_check(lp: LPoly) -> bool:
    """True iff all inverse roots of P have absolute value sqrt(p), decided
    exactly on (c1, c2, p) with no floating point."""
    return weil_ok(lp.p, lp.c1, None if lp.genus == 1 else lp.c2)


def weil_ok(p: int, c1: int, c2: Optional[int]) -> bool:
    """weil_check on bare coefficients, c2 None for genus 1, so a reader
    can test a record without building an LPoly."""
    if c2 is None:
        return c1 * c1 <= 4 * p
    # h(t) = t^2 + a1 t + (a2 - 2) needs two real roots in [-2, 2]:
    # disc >= 0, h(2) >= 0, h(-2) >= 0, vertex -a1/2 in [-2, 2]
    if c1 * c1 - 4 * c2 + 8 * p < 0:  # p * disc
        return False
    if not _sqrt_compare(2 * p + c2, 2 * c1, p):  # p * h(2)
        return False
    if not _sqrt_compare(2 * p + c2, -2 * c1, p):  # p * h(-2)
        return False
    return c1 * c1 <= 16 * p  # |a1| <= 4


def lpoly_from_counts(
    genus: int, p: int, n1: int, n2: Optional[int] = None
) -> LPoly:
    """Build the L-polynomial from point counts over F_p (and F_{p^2}).

    Raises LPolyValidationError naming the failing condition when the counts
    cannot come from a Weil-admissible polynomial.
    """
    c1 = n1 - p - 1
    if genus == 1:
        lp = LPoly(genus=1, p=p, c1=c1)
        if not weil_check(lp):
            raise LPolyValidationError(
                f"|c1| = {abs(c1)} exceeds 2*sqrt(p) at p={p}"
            )
        return lp
    if genus != 2:
        raise ValueError(f"genus must be 1 or 2, got {genus}")
    if n2 is None:
        raise LPolyValidationError("genus 2 needs the count over F_{p^2}")
    s1 = -c1
    s2 = p * p + 1 - n2
    if (s1 * s1 - s2) % 2 != 0:
        raise LPolyValidationError(
            f"s1^2 - s2 = {s1 * s1 - s2} is odd; counts inconsistent"
        )
    c2 = (s1 * s1 - s2) // 2
    lp = LPoly(genus=2, p=p, c1=c1, c2=c2)
    if not weil_check(lp):
        raise LPolyValidationError(
            f"(c1, c2) = ({c1}, {c2}) fails the unit-circle conditions at p={p}"
        )
    return lp


def predicted_count(lp: LPoly, n: int) -> int:
    """#C(F_{p^n}) implied by the L-polynomial, for n in 1..4.

    Power sums s_k of the inverse roots follow from Newton's identities on
    the coefficients of P; the count is p^n + 1 - s_n.
    """
    if not 1 <= n <= 4:
        raise ValueError("n must be in 1..4")
    # elementary symmetric functions of the inverse roots: e_k = (-1)^k c_k
    e = [(-1) ** k * c for k, c in enumerate(lp.coefficients())]
    deg = len(e) - 1
    s = [0] * (n + 1)
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k):
            if i <= deg:
                acc += (-1) ** (i - 1) * e[i] * s[k - i]
        if k <= deg:
            acc += (-1) ** (k - 1) * k * e[k]
        s[k] = acc
    return lp.p**n + 1 - s[n]
