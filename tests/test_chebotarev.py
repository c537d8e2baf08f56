import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobstat import chebotarev
from frobstat.arith import sieve_primes
from frobstat.chebotarev import (
    PartitionStats,
    SkippedPrimeError,
    chebotarev_scan,
    close_group,
    compose,
    cycle_type,
    cycle_type_distribution,
    factorization_shape,
    parse_cycles,
)

from oracles import factorization_shape_ddf

X3_MINUS_2 = [-2, 0, 0, 1]


def test_shape_frozen_examples():
    assert factorization_shape(X3_MINUS_2, 5) == (1, 2)
    assert factorization_shape(X3_MINUS_2, 31) == (1, 1, 1)
    assert factorization_shape(X3_MINUS_2, 7) == (3,)


def test_shape_skips_bad_primes():
    # x^3 - 2 is x^3 mod 2 (not squarefree) and ramified at 3 (disc -108)
    with pytest.raises(SkippedPrimeError):
        factorization_shape(X3_MINUS_2, 2)
    with pytest.raises(SkippedPrimeError):
        factorization_shape(X3_MINUS_2, 3)
    with pytest.raises(SkippedPrimeError):
        factorization_shape([1, 0, 0, 3], 3)  # p divides the lc
    with pytest.raises(ValueError):
        factorization_shape([5], 7)  # constant polynomial


def _slow_shape(coeffs, p):
    """Trial-division factorization for deg <= 4, independent of the rank
    test and of the distinct-degree oracle: strip roots, then split the
    rootless remainder by testing divisibility by every monic irreducible
    quadratic."""
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()

    def val(poly, x):
        acc = 0
        for a in reversed(poly):
            acc = (acc * x + a) % p
        return acc

    def divmod_lin(poly, r):
        # synthetic division by (x - r)
        out = [0] * (len(poly) - 1)
        carry = 0
        for i in range(len(poly) - 1, -1, -1):
            cur = (poly[i] + carry * r) % p
            if i == 0:
                rem = cur
            else:
                out[i - 1] = cur
                carry = cur
        return out, rem

    shape = []
    changed = True
    while changed and len(cs) > 1:
        changed = False
        for r in range(p):
            if val(cs, r) == 0:
                cs, rem = divmod_lin(cs, r)
                assert rem == 0
                shape.append(1)
                changed = True
                break
    deg = len(cs) - 1
    if deg == 0:
        return tuple(sorted(shape))
    if deg in (2, 3):
        # rootless quadratic and cubic are irreducible
        shape.append(deg)
        return tuple(sorted(shape))
    assert deg == 4
    monic = [(c * pow(cs[-1], p - 2, p)) % p for c in cs]
    for b in range(p):
        for c in range(p):
            quad = [c, b, 1]
            if any(val(quad, r) == 0 for r in range(p)):
                continue
            # long division of monic by quad
            rem = monic[:]
            for i in range(4, 1, -1):
                f = rem[i]
                rem[i] = 0
                rem[i - 1] = (rem[i - 1] - f * b) % p
                rem[i - 2] = (rem[i - 2] - f * c) % p
            if rem[0] == 0 and rem[1] == 0:
                return tuple(sorted(shape + [2, 2]))
    shape.append(4)
    return tuple(sorted(shape))


@given(coeffs=st.lists(st.integers(-9, 9), min_size=3, max_size=5),
       p=st.sampled_from([3, 5, 7, 11, 13]))
@settings(max_examples=250, deadline=None)
def test_shape_matches_trial_division(coeffs, p):
    try:
        shape = factorization_shape(coeffs, p)
    except (SkippedPrimeError, ValueError):
        return
    assert shape == _slow_shape(coeffs, p)
    trimmed = [c for c in coeffs]
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    assert sum(shape) == len(trimmed) - 1


def test_shape_of_irreducible_quartic():
    # x^4 + x + 1 has no roots mod 2... use p = 7 where it is irreducible
    assert factorization_shape([1, 1, 0, 0, 1], 7) == _slow_shape([1, 1, 0, 0, 1], 7)


def test_parse_cycles_and_compose():
    s = parse_cycles("(1 2 3)", 3)
    assert s == (1, 2, 0)
    t = parse_cycles("(1 2)", 3)
    assert compose(t, t) == (0, 1, 2)
    assert cycle_type(s) == (3,)
    assert cycle_type(t) == (1, 2)
    assert parse_cycles("", 4) == (0, 1, 2, 3)
    assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    with pytest.raises(ValueError):
        parse_cycles("(1 5)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1 1)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 4)
    assert parse_cycles("(1,2,3)", 3) == s
    # text outside the cycles, nested or stray parentheses
    for bad in ["1 2 3", "(1 2) 3", "(1 (2) 3)", "(1 2))("]:
        with pytest.raises(ValueError):
            parse_cycles(bad, 4)


def test_close_group_orders():
    s3 = close_group([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
    assert len(s3) == 6
    v4 = close_group([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    assert len(v4) == 4
    a4 = close_group([parse_cycles("(1 2 3)", 4), parse_cycles("(1 2 4)", 4)])
    assert len(a4) == 12
    c5 = close_group([parse_cycles("(1 2 3 4 5)", 5)])
    assert len(c5) == 5


def test_close_group_bound_enforced(monkeypatch):
    gens = [parse_cycles("(1 2)", 8), parse_cycles("(1 2 3 4 5 6 7 8)", 8)]
    with pytest.raises(ValueError):
        close_group(gens)  # |S8| = 40320 exceeds the bound of 10_000
    monkeypatch.setattr(chebotarev, "_CLOSURE_BOUND", 50_000)
    assert len(close_group(gens)) == 40320


def test_close_group_input_validation():
    with pytest.raises(ValueError):
        close_group([])
    with pytest.raises(ValueError):
        close_group([(0, 0, 1)])
    with pytest.raises(ValueError):
        close_group([(1, 0), (1, 2, 0)])


def test_cycle_type_distribution_s3():
    dist = cycle_type_distribution(
        [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]
    )
    assert dist == {
        (1, 1, 1): Fraction(1, 6),
        (1, 2): Fraction(1, 2),
        (3,): Fraction(1, 3),
    }


def test_cycle_type_distribution_v4():
    dist = cycle_type_distribution(
        [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)]
    )
    assert dist == {(1, 1, 1, 1): Fraction(1, 4), (2, 2): Fraction(3, 4)}


def test_scan_s3_frequencies_converge():
    gens = [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]
    stats = chebotarev_scan(X3_MINUS_2, gens, 10_000)
    assert stats.primes_used == 1227  # 1229 primes <= 10^4, minus p = 2, 3
    assert stats.primes_skipped == 2
    for part, target in stats.predicted.items():
        assert abs(stats.frequency(part) - target) < Fraction(2, 100)
    assert sum(stats.observed.values()) == stats.primes_used


def test_scan_quadratic_c2():
    gens = [parse_cycles("(1 2)", 2)]
    stats = chebotarev_scan([1, 0, 1], gens, 5000)  # x^2 + 1
    assert abs(stats.frequency((2,)) - Fraction(1, 2)) < Fraction(3, 100)
    assert abs(stats.frequency((1, 1)) - Fraction(1, 2)) < Fraction(3, 100)


def test_scan_rejects_wrong_degree_group():
    gens = [parse_cycles("(1 2)", 2)]
    with pytest.raises(ValueError):
        chebotarev_scan(X3_MINUS_2, gens, 100)


def test_scan_rejects_impossible_shape(monkeypatch):
    # the error names the smallest such p, also when each pass holds only a
    # few primes
    for block in (2048, 3):
        monkeypatch.setattr(chebotarev, "_BLOCK", block)
        # claiming Galois group C3 for x^3 - 2 breaks at the first (1, 2)
        # shape, p = 5
        gens = [parse_cycles("(1 2 3)", 3)]
        with pytest.raises(ValueError, match=r"shape \(1, 2\) at p=5 is impossible"):
            chebotarev_scan(X3_MINUS_2, gens, 100)
        # C4 has neither (1, 3), first seen for x^4 - x - 1 at p = 7, nor
        # (1, 1, 2), first seen at p = 17
        gens = [parse_cycles("(1 2 3 4)", 4)]
        with pytest.raises(ValueError, match=r"shape \(1, 3\) at p=7 is impossible"):
            chebotarev_scan([-1, -1, 0, 0, 1], gens, 1000)


def test_scan_tallies_do_not_depend_on_the_block_size(monkeypatch):
    gens = [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)]
    whole = chebotarev_scan([-1, -1, 0, 0, 1], gens, 3000)
    monkeypatch.setattr(chebotarev, "_BLOCK", 7)
    assert chebotarev_scan([-1, -1, 0, 0, 1], gens, 3000) == whole


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_scan_without_a_usable_prime_is_refused(n):
    # x^3 - 2 is bad at 2 and 3, so no prime <= 3 counts
    gens = [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]
    with pytest.raises(ValueError, match="no prime <= "):
        chebotarev_scan(X3_MINUS_2, gens, n)


def test_primes_past_the_int64_bound_are_refused_first(monkeypatch):
    def no_sieve(n, size):
        raise AssertionError("the sieve ran")

    monkeypatch.setattr(chebotarev, "prime_blocks", no_sieve)
    gens = [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]
    with pytest.raises(ValueError, match="2\\^31"):
        chebotarev_scan(X3_MINUS_2, gens, 2**31)
    for p in (2**31 + 11, 2**61 - 1):
        with pytest.raises(ValueError, match="2\\^31") as info:
            factorization_shape(X3_MINUS_2, p)
        assert not isinstance(info.value, SkippedPrimeError)
    # the largest prime below the bound still works
    assert sum(factorization_shape(X3_MINUS_2, 2**31 - 1)) == 3


def _oracle_polys() -> list[list[int]]:
    """45 seeded integer polynomials of degree 1..9: leading coefficients
    that are negative, divisible by small primes or past 2^63, f(0) = 0
    for every fourth, and every fourth of degree >= 2 congruent mod 15 to
    (x - a)^2 g, so not squarefree mod 3 and mod 5."""
    rng = random.Random(13)
    polys = []
    for i in range(45):
        deg = 1 + i % 9
        lead = rng.choice([1, -1, 2, -3, 6, -35, 210, 10**20 + 3])
        f = [rng.randint(-40, 40) for _ in range(deg)] + [lead]
        if i % 4 == 1:
            f[0] = 0
        if i % 4 == 3 and deg >= 2:
            a = rng.randint(-5, 5)
            g = [rng.randint(-9, 9) for _ in range(deg - 2)] + [lead]
            square = [int(c) for c in np.convolve([a * a, -2 * a, 1], g)]
            f = [c + 15 * rng.randint(-3, 3) for c in square[:-1]] + [lead]
        polys.append(f)
    return polys


def test_shapes_match_the_distinct_degree_oracle_below_3000():
    primes = sieve_primes(2999)
    skips = {"lc": 0, "squarefree": 0}
    for f in _oracle_polys():
        shapes = chebotarev._block_shapes(f, primes)
        got = {p: shape for shape, ps in shapes.items() for p in ps}
        for p in primes:
            try:
                want = factorization_shape_ddf(f, p)
            except SkippedPrimeError:
                skips["lc" if f[-1] % p == 0 else "squarefree"] += 1
                want = None
            assert got.get(p) == want, (f, p)
        assert all(ps == sorted(ps) for ps in shapes.values())
    # the seeded set reaches both kinds of skipped prime
    assert skips["lc"] > 0 and skips["squarefree"] > 0


@pytest.mark.parametrize("n", [10, 1000, 3001])
def test_scan_counts_every_prime_once(n):
    gens = [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)]
    for f in ([-1, -1, 0, 0, 1], [0, 3, 0, 0, -6]):
        stats = chebotarev_scan(f, gens, n)
        assert stats.primes_used + stats.primes_skipped == len(sieve_primes(n))
        assert sum(stats.observed.values()) == stats.primes_used


def _traced_peak(f, gens, n) -> int:
    tracemalloc.start()
    try:
        chebotarev_scan(f, gens, n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_does_not_grow_with_n():
    # measured for x^3 - x - 1: 1.42 MB at N = 10^4 (one block of 1229
    # primes) and 2.29 MB at 10^6 (full blocks of 2048), 1.6x; sieving all
    # of N up front peaked at 5.2 MB at 10^6, 3.7x
    f = [-1, -1, 0, 1]
    gens = [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]
    chebotarev_scan(f, gens, 100)
    assert _traced_peak(f, gens, 10**6) < 2 * _traced_peak(f, gens, 10**4)


def test_partition_stats_frequency():
    stats = PartitionStats(
        predicted={(2,): Fraction(1, 2)},
        observed={(2,): 3, (1, 1): 7},
        primes_used=10,
        primes_skipped=1,
    )
    assert stats.frequency((2,)) == Fraction(3, 10)
    assert stats.frequency((9, 9)) == 0
