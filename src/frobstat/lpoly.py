"""L-polynomials of genus 1 and 2 curves from point counts.

Genus 1: P(T) = 1 + c1*T + p*T^2.
Genus 2: P(T) = 1 + c1*T + c2*T^2 + p*c1*T^3 + p^2*T^4.

The functional equation fixes the top coefficients, so n1 determines genus 1
and (n1, n2) determines genus 2.  Validity (all inverse roots of absolute
value sqrt(p)) is decided in exact integer arithmetic: c1^2 <= 4p in genus
1, and in genus 2 c2 in weil_c2(p, c1), the integer interval
ceil(2|c1|sqrt(p)) - 2p <= c2 <= c1^2/4 + 2p, empty once c1^2 > 16p.
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


def weil_c2(p: int, c1: int) -> range:
    """The c2 that make 1 + c1 T + c2 T^2 + p c1 T^3 + p^2 T^4 Weil-admissible.

    t = T + 1/T turns the normalized quartic into h(t) = t^2 + a1 t + a2 - 2,
    which needs two real roots in [-2, 2]: |a1| <= 4, disc >= 0 (the upper
    end) and h(+-2) >= 0 (the lower end).  The ceiling of 2|c1|sqrt(p) is
    exact, for p a square as well.
    """
    if c1 * c1 > 16 * p:
        return range(0)
    n = 4 * c1 * c1 * p
    r = math.isqrt(n)
    return range(r + (r * r < n) - 2 * p, (c1 * c1 + 8 * p) // 4 + 1)


def weil_check(lp: LPoly) -> bool:
    """True iff all inverse roots of P have absolute value sqrt(p), decided
    exactly on (c1, c2, p) with no floating point."""
    return weil_ok(lp.p, lp.c1, None if lp.genus == 1 else lp.c2)


def weil_ok(p: int, c1: int, c2: Optional[int]) -> bool:
    """weil_check on bare coefficients, c2 None for genus 1, so a reader
    can test a record without building an LPoly."""
    if c2 is None:
        return c1 * c1 <= 4 * p
    return c2 in weil_c2(p, c1)


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
    the coefficients of P, s_k = -k c_k - sum_{i<k} c_i s_{k-i} with c_k = 0
    past deg P; the count is p^n + 1 - s_n.
    """
    if not 1 <= n <= 4:
        raise ValueError("n must be in 1..4")
    c = lp.coefficients() + [0] * n
    s = [0] * (n + 1)
    for k in range(1, n + 1):
        s[k] = -k * c[k] - sum(c[i] * s[k - i] for i in range(1, k))
    return lp.p**n + 1 - s[n]
