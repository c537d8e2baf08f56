"""Factorization shapes of a fixed integer polynomial across primes.

The shape of f mod p (the multiset of irreducible factor degrees) matches
the cycle type of the Frobenius class in the Galois group, so shape
frequencies converge to cycle-type frequencies.  The Galois group is an
input here (given by permutation generators); it is never computed.

Partitions appear as ascending tuples, e.g. (1, 2) for a linear times a
quadratic factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    poly_derivative,
    poly_divmod,
    poly_gcd,
    poly_powmod,
    poly_sub,
    poly_trim,
    sieve_primes,
)


class SkippedPrimeError(ValueError):
    """p gives bad reduction for the shape scan (ramified or divides lc)."""


def factorization_shape(f_coeffs, p: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors of f mod p, ascending.

    Uses distinct-degree splitting: gcd(x^{p^i} - x, f) collects exactly
    the degree-i factors.  Raises SkippedPrimeError when p divides the
    leading coefficient or f mod p is not squarefree.
    """
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


# ---------------------------------------------------------------------------
# permutation groups

def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Parse cycle notation like "(1 2)(3 4)" into a permutation tuple on
    0..n-1 (input points are 1-based)."""
    perm = list(range(n))
    depth = 0
    cycles: list[list[int]] = []
    cur: list[int] = []
    for tok in text.replace("(", " ( ").replace(")", " ) ").replace(",", " ").split():
        if tok == "(":
            depth += 1
            cur = []
        elif tok == ")":
            depth -= 1
            if cur:
                cycles.append(cur)
        else:
            cur.append(int(tok) - 1)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    for cyc in cycles:
        if any(not 0 <= i < n for i in cyc) or len(set(cyc)) != len(cyc):
            raise ValueError(f"bad cycle {[i + 1 for i in cyc]} for degree {n}")
        for i, a in enumerate(cyc):
            perm[a] = cyc[(i + 1) % len(cyc)]
    return tuple(perm)


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a then b) as functions: x -> b[a[x]]."""
    return tuple(b[a[x]] for x in range(len(a)))


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lens = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        length = 0
        j = s
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lens.append(length)
    return tuple(sorted(lens))


def close_group(
    generators: list[tuple[int, ...]], bound: int = 10_000
) -> set[tuple[int, ...]]:
    """All products of the generators (breadth-first closure)."""
    if not generators:
        raise ValueError("need at least one generator")
    n = len(generators[0])
    if any(len(g) != n or sorted(g) != list(range(n)) for g in generators):
        raise ValueError("generators must be permutations of the same degree")
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in frontier:
            for gen in generators:
                h = compose(g, gen)
                if h not in seen:
                    seen.add(h)
                    new.append(h)
                    if len(seen) > bound:
                        raise ValueError(f"group exceeds closure bound {bound}")
        frontier = new
    return seen


def cycle_type_distribution(
    generators: list[tuple[int, ...]],
) -> dict[tuple[int, ...], Fraction]:
    """Exact cycle-type frequencies over the generated group."""
    group = close_group(generators)
    tally: dict[tuple[int, ...], int] = {}
    for g in group:
        t = cycle_type(g)
        tally[t] = tally.get(t, 0) + 1
    order = len(group)
    return {t: Fraction(c, order) for t, c in sorted(tally.items())}


@dataclass(frozen=True)
class PartitionStats:
    predicted: dict[tuple[int, ...], Fraction]
    observed: dict[tuple[int, ...], int]
    primes_used: int
    primes_skipped: int

    def frequency(self, partition: tuple[int, ...]) -> Fraction:
        return Fraction(self.observed.get(partition, 0), self.primes_used)


def chebotarev_scan(
    f_coeffs, generators: list[tuple[int, ...]], n: int
) -> PartitionStats:
    """Shape tallies of f mod p over primes <= n against the predicted
    cycle-type frequencies of the given Galois group.

    Raises ValueError if a shape shows up that the group cannot produce
    (that means the supplied group is not the Galois group of f).
    """
    coeffs = poly_trim([int(a) for a in f_coeffs])
    deg = len(coeffs) - 1
    if generators and len(generators[0]) != deg:
        raise ValueError(
            f"permutation degree {len(generators[0])} != deg f = {deg}"
        )
    predicted = cycle_type_distribution(generators)
    assert sum(predicted.values()) == 1
    observed: dict[tuple[int, ...], int] = {}
    used = skipped = 0
    for p in sieve_primes(n):
        try:
            shape = factorization_shape(coeffs, p)
        except SkippedPrimeError:
            skipped += 1
            continue
        if shape not in predicted:
            raise ValueError(
                f"shape {shape} at p={p} is impossible for the given group"
            )
        observed[shape] = observed.get(shape, 0) + 1
        used += 1
    return PartitionStats(
        predicted=predicted,
        observed=dict(sorted(observed.items())),
        primes_used=used,
        primes_skipped=skipped,
    )
