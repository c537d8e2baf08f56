"""Factorization shapes of a fixed integer polynomial across primes.

The shape of f mod p (the multiset of irreducible factor degrees) matches
the cycle type of the Frobenius class in the Galois group, so shape
frequencies converge to cycle-type frequencies.  The Galois group is an
input here (given by permutation generators); it is never computed.

Shapes come from one numpy pass over a block of primes.  Every array has
a last axis with one int64 column per prime, reduced mod that column's p,
and f is made monic column by column.  In F_p[x]/(f), h_1 = x^p comes from
squaring with a shift by x on the bits of p, and h_d = x^(p^d) =
h_{d-1}(h_1) by Horner for d <= deg f / 2.  The rank test (Berlekamp,
"Factoring polynomials over finite fields", 1967): deg gcd(f, g) is deg f
minus the rank of multiplication by g on F_p[x]/(f), and the ranks come
from fraction-free elimination mod each column's p.  With g = f' it marks
the primes where f is not squarefree, which are skipped like the primes
dividing the leading coefficient.  With g = h_d - x it gives
R_d = sum of e * m_e over e | d, where m_e counts the factors of degree e,
so m_d = (R_d - sum of e * m_e over e | d, e < d) / d, and whatever degree
these leave is one irreducible factor.

The int64 arithmetic is exact while p^2 + p < 2^63 (a product of two
residues plus a residue), so primes must lie below 2^31.  The primes run
in blocks of a fixed size from the segmented sieve arith.prime_blocks, so
neither the primes held nor the numpy working set grows with N.

Partitions appear as ascending tuples, e.g. (1, 2) for a linear times a
quadratic factor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import poly_trim, prime_blocks

# every prime below this has p^2 + p < 2^63, so int64 residue arithmetic is exact
_P_BOUND = 2**31
# the largest group close_group builds
_CLOSURE_BOUND = 10_000
# a cycle of parse_cycles: the text between a "(" and the next ")"
_CYCLE = re.compile(r"\(([^()]*)\)")
# primes per numpy pass; the working set peaks near 35 * _BLOCK * deg^3
# bytes (2 MB at deg 3, 30 MB at deg 9) whatever N is
_BLOCK = 2048


class SkippedPrimeError(ValueError):
    """p gives bad reduction for the shape scan (ramified or divides lc)."""


def _times_x(a: np.ndarray, xn: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a * x mod f on residue columns a of shape (deg, B); xn is x^deg mod f."""
    out = a[-1] * xn
    out[1:] += a[:-1]
    return out % p


def _mul_matrix(g: np.ndarray, xn: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The matrix of multiplication by g on F_p[x]/(f), shape (deg, deg, B):
    column j holds g * x^j mod f."""
    cols = [g]
    for _ in range(len(g) - 1):
        cols.append(_times_x(cols[-1], xn, p))
    return np.stack(cols, axis=1)


def _apply(m: np.ndarray, v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """m v mod p for each column."""
    return (m * v[None] % p).sum(axis=1) % p


def _rank(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rank mod p of each matrix m[:, :, j].  Fraction-free elimination: the
    other rows are scaled by the pivot before the pivot row is subtracted,
    so nothing is divided and the pivot row itself becomes zero."""
    rank = np.zeros(m.shape[2], dtype=np.int64)
    batch = np.arange(m.shape[2])
    for k in range(m.shape[1]):
        nonzero = m[:, k] != 0
        found = nonzero.any(axis=0)
        row = m[nonzero.argmax(axis=0), :, batch].T
        pivot = np.where(found, row[k], 1)
        m = (pivot * m - m[:, k : k + 1] * row[None]) % p
        rank += found
    return rank


def _block_shapes(coeffs: list[int], primes: list[int]) -> dict[tuple[int, ...], list[int]]:
    """The shape of f mod p for every prime in the list, each below _P_BOUND,
    in one numpy pass: {shape: the primes with it, ascending}.  Primes that
    divide the leading coefficient or where f is not squarefree are left out."""
    deg = len(coeffs) - 1
    q = np.array(primes, dtype=object)  # object columns reduce coefficients of any size
    q = q[coeffs[-1] % q != 0]
    if not len(q):
        return {}
    p = q.astype(np.int64)
    inv = np.array([pow(coeffs[-1], -1, b) for b in q.tolist()], dtype=np.int64)
    # x^deg = -(f_0 + ... + f_{deg-1} x^(deg-1)) / lc mod f
    xn = -np.array([c % q for c in coeffs[:-1]], dtype=np.int64).reshape(deg, -1) * inv % p
    # the g of each rank test: f' of the monic f (coefficients -xn and 1),
    # then h_d - x for d = 1 .. deg/2
    gs = [np.vstack([-xn[1:], np.ones_like(p)]) * np.arange(1, deg + 1)[:, None] % p]
    if deg >= 2:
        x = np.zeros_like(xn)
        x[1] = 1
        h = np.zeros_like(xn)
        h[0] = 1  # then h_1 = x^p: square, and shift by x where p has the bit
        for bit in reversed(range(int(p.max()).bit_length())):
            h = _apply(_mul_matrix(h, xn, p), h, p)
            h = np.where((p >> bit) & 1, _times_x(h, xn, p), h)
        by_h1 = _mul_matrix(h, xn, p)
        for d in range(1, deg // 2 + 1):
            if d > 1:  # h_d = h_{d-1}(h_1) by Horner
                coeffs_of_h, h = h, np.zeros_like(h)
                for c in coeffs_of_h[::-1]:
                    h = _apply(by_h1, h, p)
                    h[0] = (h[0] + c) % p
            gs.append((h - x) % p)
    mats = np.concatenate([_mul_matrix(g, xn, p) for g in gs], axis=2)
    gcd_deg = deg - _rank(mats, np.tile(p, len(gs))).reshape(len(gs), len(p))
    counts: list[np.ndarray] = []  # counts[d - 1] = number of factors of degree d
    for d in range(1, len(gs)):
        below = sum(e * counts[e - 1] for e in range(1, d) if d % e == 0)
        counts.append((gcd_deg[d] - below) // d)
    # what the factors of degree <= deg/2 leave is one irreducible factor
    rest = deg - sum(d * m for d, m in enumerate(counts, 1))
    squarefree = gcd_deg[0] == 0
    table = np.vstack([np.broadcast_to(rest, p.shape), *counts])[:, squarefree]
    p = p[squarefree]
    keys, which = np.unique(table, axis=1, return_inverse=True)
    return {
        tuple(d for d, m in enumerate(ms, 1) for _ in range(m)) + ((left,) if left else ()):
            p[which.reshape(-1) == i].tolist()
        for i, (left, *ms) in enumerate(keys.T.tolist())
    }


def factorization_shape(f_coeffs, p: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors of f mod p, ascending.

    Runs the block pass of chebotarev_scan on the single prime p, which
    must lie below 2^31.  Raises SkippedPrimeError when p divides
    the leading coefficient or f mod p is not squarefree.
    """
    coeffs = poly_trim([int(a) for a in f_coeffs])
    if len(coeffs) < 2:
        raise ValueError("need deg f >= 1")
    if p >= _P_BOUND:
        raise ValueError(f"p={p} >= 2^31: the int64 shape arithmetic needs p^2 + p < 2^63")
    if coeffs[-1] % p == 0:
        raise SkippedPrimeError(f"p={p} divides the leading coefficient")
    shapes = _block_shapes(coeffs, [p])
    if not shapes:
        raise SkippedPrimeError(f"f is not squarefree mod p={p}")
    return next(iter(shapes))


# ---------------------------------------------------------------------------
# permutation groups

def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Parse cycle notation like "(1 2)(3 4)" into a permutation tuple on
    0..n-1 (input points are 1-based, split by spaces or commas).  Any
    text outside the cycles other than whitespace is a ValueError."""
    if _CYCLE.sub("", text).strip():
        raise ValueError(f"bad cycle notation {text!r}")
    perm = list(range(n))
    for body in _CYCLE.findall(text):
        cyc = [int(t) - 1 for t in body.replace(",", " ").split()]
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


def close_group(generators: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """All products of the generators (breadth-first closure), refused
    with ValueError once it passes _CLOSURE_BOUND elements."""
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
                    if len(seen) > _CLOSURE_BOUND:
                        raise ValueError(f"group exceeds closure bound {_CLOSURE_BOUND}")
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

    Raises ValueError if n >= 2^31 (before any prime is sieved), if no prime
    <= n is usable, or if a shape shows up that the group cannot produce
    (that means the supplied group is not the Galois group of f; the
    message names the smallest such p).
    """
    if n >= _P_BOUND:
        raise ValueError(f"N={n} >= 2^31: the int64 shape arithmetic needs p^2 + p < 2^63")
    coeffs = poly_trim([int(a) for a in f_coeffs])
    deg = len(coeffs) - 1
    if deg < 1:
        raise ValueError("need deg f >= 1")
    if generators and len(generators[0]) != deg:
        raise ValueError(
            f"permutation degree {len(generators[0])} != deg f = {deg}"
        )
    predicted = cycle_type_distribution(generators)
    assert sum(predicted.values()) == 1
    observed: dict[tuple[int, ...], int] = {}
    seen = 0
    for primes in prime_blocks(n, _BLOCK):
        seen += len(primes)
        shapes = _block_shapes(coeffs, primes)
        wrong = [(ps[0], shape) for shape, ps in shapes.items() if shape not in predicted]
        if wrong:
            p, shape = min(wrong)
            raise ValueError(f"shape {shape} at p={p} is impossible for the given group")
        for shape, ps in shapes.items():
            observed[shape] = observed.get(shape, 0) + len(ps)
    used = sum(observed.values())
    if not used:
        raise ValueError(f"no prime <= {n} has good reduction for f")
    return PartitionStats(
        predicted=predicted,
        observed=dict(sorted(observed.items())),
        primes_used=used,
        primes_skipped=seen - used,
    )
