import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobstat import counting, scan
from frobstat.arith import poly_derivative, poly_gcd, sieve_primes
from frobstat.counting import (
    EXT2_MAX_P,
    BadReductionError,
    count_points,
    good_primes,
    hasse_interval,
    make_curve,
    poly_discriminant,
)
from frobstat.lpoly import weil_ok
from frobstat.scan import record_for_prime
from frobstat.stats import ScanRecord

from oracles import roots_mod_p

# expected counts frozen from a standalone enumerator that walks every
# (x, y) pair of F_p x F_p (resp. F_{p^2} x F_{p^2}, built as F_p[t]/(t^2-d))
# and adds the points at infinity by testing the leading coefficient
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


def test_ext2_count_refuses_primes_past_the_int64_bound(monkeypatch):
    # the lazy reduction of the F_{p^2} count is exact in int64 only for
    # p < 10^6; past that count_points refuses before counting anything
    assert EXT2_MAX_P == 10**6
    curve = make_curve([1, -1, 0, 0, 0, 1])

    def must_not_run(curve, p, chi, values):
        raise AssertionError("the O(p^2) count ran")

    monkeypatch.setattr(counting, "_count_ext2", must_not_run)
    monkeypatch.setattr(scan, "_count_ext2", must_not_run)
    with pytest.raises(ValueError, match="p < 1000000") as info:
        count_points(curve, 1000003, ext=2)
    assert not isinstance(info.value, BadReductionError)
    # past the bound a quintic takes the Hasse-Witt path without counting
    rec = record_for_prime(curve, 1000003)
    assert weil_ok(rec.p, rec.c1, rec.c2)
    assert ScanRecord.from_json_dict(rec.to_json_dict()) == rec
    # a sextic with no root mod p still needs the count, and is refused
    # after the root test, before any O(p^2) work
    sextic = make_curve([2, 3, -1, 0, 1, 5, 1])
    assert roots_mod_p(sextic.f_coeffs, 1000117) == []
    with pytest.raises(ValueError, match="p < 1000000"):
        record_for_prime(sextic, 1000117)
    # the largest prime below the bound still reaches the count
    monkeypatch.setattr(counting, "_count_ext2", lambda curve, p, chi, values: p * p + 1)
    assert count_points(curve, 999983, ext=2) == 999983**2 + 1


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
            lo, hi = hasse_interval(p, ext, curve.genus)
            n = count_points(curve, p, ext=ext)
            assert lo <= n <= hi
            q = p**ext
            assert (n - q - 1) ** 2 <= 4 * curve.genus**2 * q


def test_hasse_interval_braces_the_supersingular_boundary():
    # x^3 + x + 1 at p = 3 hits the upper Weil bound over F_9 exactly
    lo, hi = hasse_interval(3, 2, 1)
    assert hi == 16
    assert count_points(make_curve([1, 1, 0, 1]), 3, ext=2) == 16
    lo1, hi1 = hasse_interval(7, 1, 1)
    w = math.isqrt(4 * 7)
    assert (lo1, hi1) == (8 - w, 8 + w)


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
