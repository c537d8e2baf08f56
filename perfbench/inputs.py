"""Seeded benchmark inputs, drawn from families whose answer is known.

Seed 0 gives the canonical curves; any other seed draws from the same
families with `random.Random`, so a seed always gives the same inputs.
The draws do not call frobstat: squarefreeness, rational roots and
j-invariants are decided here in exact rational arithmetic.

Polynomials are ascending coefficient tuples, as on the frobstat command
line: (1, 1, 0, 1) is 1 + x + x^3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# the j-invariants of the 13 elliptic curves over Q with complex multiplication
CM_J_INVARIANTS = frozenset({
    0, 1728, -3375, 8000, -32768, 54000, 287496, -884736, -12288000,
    16581375, -884736000, -147197952000, -262537412640768000,
})


@dataclass(frozen=True)
class Curve:
    name: str
    f: tuple[int, ...]
    expected_group: str | None  # None when the family does not fix it


@dataclass(frozen=True)
class Polynomial:
    name: str
    coeffs: tuple[int, ...]
    group: str  # generators in frobstat's cycle notation


@dataclass(frozen=True)
class CatalogInputs:
    sampler_seed: int
    birch_primes: tuple[int, ...]
    polys: tuple[Polynomial, ...]


def _trim(c):
    c = [Fraction(a) for a in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def _rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] -= q * bc
        a.pop()
        a = _trim(a)
    return a


def is_squarefree(f) -> bool:
    """gcd(f, f') over Q is a constant (Euclid on Fractions)."""
    a = _trim(f)
    b = _trim([i * c for i, c in enumerate(a)][1:])
    while b:
        a, b = b, _rem(a, b)
    return len(a) == 1


def has_rational_root(f) -> bool:
    """Rational root test: every root r/s has r | f(0) and s | lc(f)."""
    c = [int(a) for a in f]
    if c[0] == 0:
        return True
    lead = abs(c[-1])
    divs = lambda n: [d for d in range(1, abs(n) + 1) if n % d == 0]
    for r in divs(c[0]):
        for s in divs(lead):
            for x in (Fraction(r, s), Fraction(-r, s)):
                if sum(a * x**i for i, a in enumerate(c)) == 0:
                    return True
    return False


def j_invariant(a: int, b: int) -> Fraction:
    """j of y^2 = x^3 + a x + b (nonzero discriminant assumed)."""
    return Fraction(1728 * 4 * a**3, 4 * a**3 + 27 * b * b)


def _label(f) -> str:
    return "f=" + ",".join(map(str, f))


def _rng(seed: int, family: str) -> random.Random:
    return random.Random(f"{family}:{seed}")


def _nonzero(rng, lo, hi):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def genus1_curves(seed: int) -> tuple[Curve, Curve]:
    """A generic curve (Sato-Tate group SU(2)) and a CM curve (N(U(1)))."""
    if seed == 0:
        return (Curve("x^3+x+1", (1, 1, 0, 1), "SU(2)"),
                Curve("x^3+1", (1, 0, 0, 1), "N(U(1))"))
    rng = _rng(seed, "genus1")
    while True:
        a, b = _nonzero(rng, -9, 9), _nonzero(rng, -9, 9)
        if 4 * a**3 + 27 * b * b != 0 and j_invariant(a, b) not in CM_J_INVARIANTS:
            break
    k = _nonzero(rng, -9, 9)
    cm = (k, 0, 0, 1) if rng.random() < 0.5 else (0, k, 0, 1)  # j = 0 or 1728
    return (Curve(_label((b, a, 0, 1)), (b, a, 0, 1), "SU(2)"),
            Curve(_label(cm), cm, "N(U(1))"))


def genus2_curves(seed: int) -> tuple[Curve, Curve]:
    """A quintic and a sextic without a rational root, both squarefree.

    Only the canonical quintic's group is fixed (USp(4), the criterion-06
    curve); a random small-coefficient curve may have extra endomorphisms.
    """
    if seed == 0:
        return (Curve("x^5-x+1", (1, -1, 0, 0, 0, 1), "USp(4)"),
                Curve("x^6+5x^5+x^4-x^2+3x+2", (2, 3, -1, 0, 1, 5, 1), None))
    rng = _rng(seed, "genus2")
    while True:
        f = tuple(rng.randint(-3, 3) for _ in range(5)) + (rng.randint(1, 3),)
        if is_squarefree(f):
            break
    quintic = Curve(_label(f), f, None)
    while True:
        g = tuple(rng.randint(-3, 3) for _ in range(6)) + (rng.randint(1, 3),)
        if is_squarefree(g) and not has_rational_root(g):
            break
    sextic = Curve(_label(g), g, None)
    return quintic, sextic


_S3 = "(1 2);(1 2 3)"
_S4 = "(1 2);(1 2 3 4)"


def catalog_inputs(seed: int) -> CatalogInputs:
    """Sampler seed, Birch primes and the two Chebotarev polynomials.

    Birch runs 5, 7, 11, 13 and one prime from each of three narrow bands in
    the hundreds; the bands keep the p^3 cost close to constant across seeds.
    The cubic is x^3 - a with a not a cube (Galois group S3); the quartic is
    x^4 - x - 1 (S4).
    """
    quartic = Polynomial("x^4-x-1", (-1, -1, 0, 0, 1), _S4)
    if seed == 0:
        return CatalogInputs(
            sampler_seed=0,
            birch_primes=(5, 7, 11, 13, 101, 211, 307),
            polys=(Polynomial("x^3-2", (-2, 0, 0, 1), _S3), quartic),
        )
    rng = _rng(seed, "catalog")
    cubes = {k**3 for k in range(1, 5)}
    a = rng.choice([a for a in range(2, 51) if a not in cubes])
    bands = ((101, 103, 107, 109, 113), (211, 223, 227, 229), (307, 311, 313, 317))
    return CatalogInputs(
        sampler_seed=rng.randrange(1, 2**31),
        birch_primes=(5, 7, 11, 13) + tuple(rng.choice(b) for b in bands),
        polys=(Polynomial(f"x^3-{a}", (-a, 0, 0, 1), _S3), quartic),
    )
