import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobstat import counting, hasse_witt
from frobstat.arith import character_table, is_prime, sieve_primes
from frobstat.counting import (
    BadReductionError,
    count_points,
    good_primes,
    make_curve,
    poly_discriminant,
)
from frobstat.lpoly import LPolyValidationError, weil_ok
from frobstat.scan import record_for_prime
from frobstat.stats import ScanRecord

from oracles import (
    count_ext2,
    discriminant_sylvester,
    poly_derivative,
    poly_gcd,
    roots_mod_p,
    values_mod_p_horner,
)

# expected counts frozen from a standalone enumerator that walks every
# (x, y) pair of F_p x F_p (resp. F_{p^2} x F_{p^2}, built as F_p[t]/(t^2-d))
# and adds the points at infinity by testing the leading coefficient;
# count_points meets the F_{p^2} counts through the L-polynomial
BRUTE_COUNTS = {
    (1, 1, 0, 1): {3: (4, 16), 5: (9, 27), 7: (5, 55), 11: (14, 140), 13: (18, 180)},
    (1, 0, 0, 1): {5: (6, 36), 7: (12, 48), 11: (12, 144), 13: (12, 192)},
    (1, -1, 0, 0, 0, 1): {3: (7, 15), 5: (11, 31), 7: (7, 49), 11: (19, 135), 13: (15, 187)},
    (2, 0, 0, 1, 0, 0, 1): {5: (6, 40), 11: (12, 142)},
    (1, 1, 0, 0, 0, 0, 3): {5: (6, 26), 11: (13, 125)},
}


@pytest.mark.parametrize("f_coeffs", sorted(BRUTE_COUNTS))
def test_counts_match_brute_force(f_coeffs):
    curve = make_curve(list(f_coeffs))
    for p, (n1, n2) in BRUTE_COUNTS[f_coeffs].items():
        assert count_points(curve, p, ext=1) == n1
        assert count_points(curve, p, ext=2) == n2


def _slow_count(f_coeffs, p, ext):
    """In-test reference counter, independent of the counting module."""
    coeffs = list(f_coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if ext == 1:
        elems = list(range(p))
        mul = lambda x, y: x * y % p
        add = lambda x, y: (x + y) % p
        scale = lambda c, x: c * x % p
        zero, one = 0, 1
        lc = coeffs[-1] % p
    else:
        d = next(a for a in range(2, p)
                 if all((y * y - a) % p for y in range(p)))
        elems = [(a, b) for a in range(p) for b in range(p)]
        mul = lambda x, y: ((x[0] * y[0] + d * x[1] * y[1]) % p,
                            (x[0] * y[1] + x[1] * y[0]) % p)
        add = lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % p)
        scale = lambda c, x: (c * x[0] % p, c * x[1] % p)
        zero, one = (0, 0), (1, 0)
        lc = (coeffs[-1] % p, 0)
    squares = {}
    for z in elems:
        s = mul(z, z)
        squares[s] = squares.get(s, 0) + 1
    n = 0
    for x in elems:
        fx, xp = zero, one
        for c in coeffs:
            fx = add(fx, scale(c % p, xp))
            xp = mul(xp, x)
        n += squares.get(fx, 0)
    if deg % 2 == 1:
        n += 1
    elif squares.get(lc, 0):
        n += 2
    return n


@given(coeffs=st.lists(st.integers(-6, 6), min_size=4, max_size=7),
       p=st.sampled_from([3, 5, 7, 11]))
@settings(max_examples=60, deadline=None)
def test_counts_match_reference_on_random_curves(coeffs, p):
    try:
        curve = make_curve(coeffs)
    except ValueError:
        return
    try:
        n1 = count_points(curve, p, ext=1)
    except BadReductionError:
        return
    assert n1 == _slow_count(coeffs, p, 1)
    if p <= 7:
        assert count_points(curve, p, ext=2) == _slow_count(coeffs, p, 2)


def test_discriminant_frozen_values():
    assert poly_discriminant([1, 1, 0, 1]) == -31
    assert poly_discriminant([1, 0, 0, 1]) == -27
    assert poly_discriminant([1, 0, 0, 0, 0, 1]) == 3125


def test_discriminant_matches_the_sylvester_determinant():
    # Euclid's resultant over the rationals against the Sylvester
    # determinant, on 3000 seeded integer polynomials of degree 1-7; every
    # third is g^2 h, with a repeated factor, so its discriminant is 0
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def draw(degree):
        return [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-3, -2, -1, 1, 2, 5])]

    rng = random.Random(20261021)
    zeros = 0
    for k in range(3000):
        if k % 3 == 0:
            g = draw(rng.randint(1, 2))
            f = mul(mul(g, g), draw(rng.randint(0, 7 - 2 * (len(g) - 1))))
        else:
            f = draw(rng.randint(1, 7))
        disc = poly_discriminant(f)
        assert disc == discriminant_sylvester(f), f
        zeros += disc == 0
    assert zeros >= 1000


@given(a=st.integers(-30, 30), b=st.integers(-30, 30))
@settings(max_examples=100, deadline=None)
def test_discriminant_depressed_cubic_formula(a, b):
    assert poly_discriminant([b, a, 0, 1]) == -4 * a**3 - 27 * b**2


@given(a=st.integers(-12, 12), b=st.integers(-12, 12))
@settings(max_examples=100, deadline=None)
def test_discriminant_trinomial_quintic_formula(a, b):
    # disc(x^5 + a x + b) = 4^4 a^5 + 5^5 b^4
    assert poly_discriminant([b, a, 0, 0, 0, 1]) == 256 * a**5 + 3125 * b**4


def test_make_curve_validates_degree_and_singularity():
    with pytest.raises(ValueError):
        make_curve([1, 1])  # degree too small
    with pytest.raises(ValueError):
        make_curve([1, 0, 0, 0, 0, 0, 0, 1])  # degree too large
    with pytest.raises(ValueError):
        make_curve([0, 0, 0, 1])  # x^3 is singular
    assert make_curve([1, 1, 0, 1]).genus == 1
    assert make_curve([1, 0, 0, 0, 1]).genus == 1
    assert make_curve([1, -1, 0, 0, 0, 1]).genus == 2
    assert make_curve([2, 0, 0, 1, 0, 0, 1]).genus == 2


def test_bad_reduction_rejected_with_reason():
    curve = make_curve([1, 1, 0, 1])  # disc -31
    with pytest.raises(BadReductionError) as info:
        count_points(curve, 2)
    assert info.value.p == 2
    with pytest.raises(BadReductionError) as info:
        count_points(curve, 31)
    assert info.value.p == 31
    assert info.value.reason
    # leading coefficient vanishing mod p also degenerates
    curve6 = make_curve([1, 1, 0, 0, 0, 0, 3])
    with pytest.raises(BadReductionError):
        count_points(curve6, 3)
    with pytest.raises(BadReductionError):
        count_points(curve6, 7)  # 7 divides the discriminant
    with pytest.raises(ValueError):
        count_points(curve, 9)  # not prime at all


@pytest.mark.parametrize("p", [3037000507, 2**61 - 1])
def test_primes_past_the_int64_bound_are_refused_first(monkeypatch, p):
    # the tables form values below p^2 in int64; the bound is checked
    # before the primality test and before any table is built
    def must_not_run(*args):
        raise AssertionError("ran past the int64 bound")

    monkeypatch.setattr(counting, "character_table", must_not_run)
    monkeypatch.setattr(counting, "is_prime", must_not_run)
    with pytest.raises(BadReductionError) as info:
        count_points(make_curve([1, 1, 0, 1]), p)
    assert info.value.p == p and "2^63" in info.value.reason


def test_the_largest_admitted_prime_keeps_the_tables_inside_int64():
    # the bound of _check_reduction, with Python integers: nothing is
    # allocated.  isqrt(2^63 - 1) = 3037000499 is composite, so the largest
    # prime admitted is 3037000493 and the next prime is refused
    bound, p, next_prime = math.isqrt(2**63 - 1), 3037000493, 3037000507
    assert bound == 3037000499 and not is_prime(bound)
    assert is_prime(p) and is_prime(next_prime)
    assert not any(is_prime(q) for q in range(p + 1, next_prime))
    assert p * p < 2**63 <= next_prime * next_prime
    counting._check_reduction(make_curve([1, 1, 0, 1]), p)
    for q in (p, bound):
        half = (q - 1) // 2
        # x^2 with x <= (q-1)/2 in character_table and in hasse_witt's
        # table of square roots; a Horner step acc * x + a in _values_mod_p.
        # The last two, a value below q times such an x and the sum of two
        # values below q, are looser than the Horner step and kept as margins
        assert half * half < q * q
        assert (q - 1) * (q - 1) + q - 1 < q * q
        assert half * (q - 1) < q * q
        assert 2 * q - 1 < q * q < 2**63


def _kernel_cases() -> list[list[int]]:
    """46 seeded integer coefficient lists of length 1..7: sparse ones with
    only an even or only an odd part, f(0) = 0, and -1 (p - 1 once
    reduced), beside 36 random ones."""
    cases = [[1, 0, 0, 1], [1, 0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 0, 0, 0, 1],
             [0, 1], [5], [0], [-1] * 7, [-1, 0, -1, 0, -1, 0, -1], [0, -1, 0, -1, 0, -1]]
    rng = random.Random(20)
    for i in range(36):
        f = [rng.randint(-50, 50) for _ in range(1 + i % 7)]
        if i % 3 == 0:
            f[0] = 0
        if i % 5 == 0:
            f[rng.randrange(len(f))] = -1
        if i % 4 == 0:
            f[-1] = rng.choice([10**12 + 39, -(2**62) - 1])
        cases.append(f)
    return cases


def test_half_range_values_match_horner_below_3000():
    cases = _kernel_cases()
    assert len(cases) >= 40 and {len(f) for f in cases} == set(range(1, 8))
    mismatches = []
    for p in sieve_primes(2999)[1:]:
        for f in cases:
            coeffs = [a % p for a in f]
            got = counting._values_mod_p(coeffs, p)
            if got.dtype != np.int64 or not (got == values_mod_p_horner(coeffs, p)).all():
                mismatches.append((f, p))
    # values_mod_p_horner runs the same Horner scheme, so check a few primes
    # against the direct sum of c_i x^i with Python integers as well
    for p in (3, 5, 101, 1009):
        for f in cases:
            direct = [sum(c * pow(x, i, p) for i, c in enumerate(f)) % p for x in range(p)]
            if counting._values_mod_p([a % p for a in f], p).tolist() != direct:
                mismatches.append((f, p, "direct"))
    assert mismatches == []


@given(coeffs=st.lists(st.integers(-9, 9), min_size=4, max_size=7),
       p=st.sampled_from(sieve_primes(60)[1:]))
@settings(max_examples=300, deadline=None)
def test_reduction_check_agrees_with_squarefree_gcd(coeffs, p):
    # for odd p not dividing lc(f), p | disc(f) exactly when f mod p and its
    # derivative share a factor, so the discriminant test is the gcd test
    try:
        curve = make_curve(coeffs)
    except ValueError:
        return
    if curve.leading % p == 0:
        return
    fbar = [a % p for a in curve.f_coeffs]  # trimmed: p does not divide lc(f)
    squareful = len(poly_gcd(fbar, poly_derivative(fbar, p), p)) > 1
    assert (curve.disc % p == 0) == squareful
    try:
        count_points(curve, p)
        assert not squareful
    except BadReductionError as e:
        assert squareful and e.reason == "f is not squarefree mod p"


def test_primes_past_a_million_need_no_enumeration(monkeypatch):
    # the records and the F_{p^2} count come from the L-polynomial, so
    # nothing enumerates F_{p^2} and nothing bounds p
    curve = make_curve([1, -1, 0, 0, 0, 1])

    def must_not_run(f, p, chi):
        raise AssertionError("the O(p^2) count ran")

    monkeypatch.setattr(hasse_witt, "_count_ext2", must_not_run)
    # a quintic takes the Hasse-Witt path without counting
    rec = record_for_prime(curve, 1000003)
    assert weil_ok(rec.p, rec.c1, rec.c2)
    assert ScanRecord.from_json_dict(rec.to_json_dict()) == rec
    assert count_points(curve, 1000003, ext=2) == rec.n2
    # so does a sextic with no root mod p, on its real model
    sextic = make_curve([2, 3, -1, 0, 1, 5, 1])
    assert roots_mod_p(sextic.f_coeffs, 1000117) == []
    rec = record_for_prime(sextic, 1000117)
    assert weil_ok(rec.p, rec.c1, rec.c2)
    assert ScanRecord.from_json_dict(rec.to_json_dict()) == rec


@pytest.mark.parametrize("f_coeffs", [
    (1, 1, 0, 1), (1, 0, 0, 1), (2, -1, 3, 0, 5),  # genus 1, cubic and quartic
    (1, -1, 0, 0, 0, 1), (0, -1, 0, 0, 0, 1), (0, -2, -2, -2, -1, 1), (13, 1, 0, 2, 0, 3),
    (2, 3, -1, 0, 1, 5, 1), (1, 1, 0, 0, 0, 0, 3), (0, -1, 4, -4, 5, -3, 4),
])
def test_direct_count_matches_the_references(f_coeffs):
    # the enumeration the package keeps for undecided primes against the
    # pair enumerator and the numpy oracle at every good prime <= 13
    curve = make_curve(list(f_coeffs))
    primes = good_primes(curve, 13)
    assert primes
    for p in primes:
        n2 = hasse_witt._count_ext2([a % p for a in f_coeffs], p, character_table(p))
        assert n2 == _slow_count(f_coeffs, p, 2) == count_ext2(curve, p)


def test_ext2_count_from_the_lpoly_matches_the_oracle():
    genera = set()

    @given(coeffs=st.lists(st.integers(-9, 9), min_size=3, max_size=6),
           lead=st.integers(-9, 9).filter(bool), p=st.sampled_from(sieve_primes(2000)[1:]))
    @settings(max_examples=40, deadline=None)
    def check(coeffs, lead, p):
        try:
            curve = make_curve(coeffs + [lead])
            n2 = count_points(curve, p, ext=2)
        except (ValueError, BadReductionError):
            assume(False)
        genera.add(curve.genus)
        assert n2 == count_ext2(curve, p)

    check()
    assert genera == {1, 2}


def test_good_primes_matches_direct_filter():
    for coeffs, bound in [([1, 1, 0, 1], 200), ([1, -1, 0, 0, 0, 1], 500),
                          ([1, 1, 0, 0, 0, 0, 3], 300)]:
        curve = make_curve(coeffs)
        expected = [p for p in sieve_primes(bound)
                    if p != 2 and curve.disc % p != 0 and curve.leading % p != 0]
        assert good_primes(curve, bound) == expected


def test_good_primes_frozen_examples():
    assert good_primes(make_curve([1, 1, 0, 1]), 10) == [3, 5, 7]
    assert good_primes(make_curve([1, 0, 0, 1]), 10) == [5, 7]
    zar = make_curve([1, -1, 0, 0, 0, 1])
    gp = good_primes(zar, 4096)
    assert len(gp) == 561 and gp[-1] == 4093
    assert 19 not in gp and 151 not in gp  # disc = 2869 = 19 * 151


def test_counts_lie_in_hasse_interval():
    curve = make_curve([1, -1, 0, 0, 0, 1])
    for p in good_primes(curve, 100):
        for ext in (1, 2):
            n = count_points(curve, p, ext=ext)
            q = p**ext
            assert (n - q - 1) ** 2 <= 4 * curve.genus**2 * q


def test_hasse_interval_braces_the_supersingular_boundary():
    # x^3 + x + 1 at p = 3 hits the upper Weil bound over F_9 exactly:
    # q + 1 + 2 sqrt(q) = 9 + 1 + 6 = 16
    n2 = count_points(make_curve([1, 1, 0, 1]), 3, ext=2)
    assert n2 == 16 == 9 + 1 + math.isqrt(4 * 9)


@pytest.mark.parametrize("f_coeffs", [[1, 1, 0, 1], [1, -1, 0, 0, 0, 1]])
def test_counts_outside_the_weil_bound_fail_the_lpoly(monkeypatch, f_coeffs):
    # an F_p count with c1 = 4p fits no Weil-admissible L-polynomial in
    # either genus, so frobenius and both counts of count_points refuse it
    curve, p = make_curve(f_coeffs), 11
    monkeypatch.setattr(counting, "_count_ext1", lambda curve, p, chi, values: 5 * p + 1)
    with pytest.raises(LPolyValidationError):
        counting.frobenius(curve, p)
    for ext in (1, 2):
        with pytest.raises(LPolyValidationError):
            count_points(curve, p, ext)


def test_count_points_refuses_other_extensions_first(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("counted")

    monkeypatch.setattr(counting, "frobenius", must_not_run)
    for ext in (0, 3):
        with pytest.raises(ValueError, match="ext must be 1 or 2"):
            count_points(make_curve([1, 1, 0, 1]), 5, ext)


def test_even_degree_infinity_points():
    # leading coefficient 3 is a nonresidue mod 5, a residue mod 11
    curve = make_curve([1, 1, 0, 0, 0, 0, 3])
    affine5 = sum(1 for x in range(5) for y in range(5)
                  if (y * y - curve_poly(curve, x, 5)) % 5 == 0)
    assert count_points(curve, 5) == affine5
    affine11 = sum(1 for x in range(11) for y in range(11)
                   if (y * y - curve_poly(curve, x, 11)) % 11 == 0)
    assert count_points(curve, 11) == affine11 + 2


def curve_poly(curve, x, p):
    return sum(c * pow(x, i, p) for i, c in enumerate(curve.f_coeffs)) % p


def test_pretty_prints_ascending_convention():
    label = make_curve([1, 1, 0, 1]).pretty()
    assert label == "y^2 = x^3 + x + 1"
    assert make_curve([1, -1, 0, 0, 0, 1]).pretty() == "y^2 = x^5 - x + 1"
