"""The genus-2 path through the Hasse-Witt matrix and the Jacobian order,
checked against the F_{p^2} count, which stays in the package as its
fallback and serves here as the oracle."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobstat import arith, counting, hasse_witt, scan
from frobstat.arith import character_table, is_prime, poly_mul, poly_root, sieve_primes
from frobstat.counting import BadReductionError, count_points, make_curve
from frobstat.hasse_witt import (
    cantor_add,
    cantor_mul,
    hasse_witt_lpoly,
    monic_quintic_model,
)
from frobstat.lpoly import lpoly_from_counts, normalize, weil_ok
from frobstat.scan import record_for_prime
from frobstat.stats import ScanRecord

PRIMES = [p for p in sieve_primes(2000) if p >= 7]


def counted_record(curve, p):
    """The record built from both point counts, as the scan did before
    the Hasse-Witt path."""
    n1, n2 = count_points(curve, p, 1), count_points(curve, p, 2)
    lp = lpoly_from_counts(2, p, n1, n2)
    nc = normalize(lp)
    return ScanRecord(p=p, n1=n1, c1=lp.c1, a1bar=nc.a1, n2=n2, c2=lp.c2, a2bar=nc.a2)


def jacobian_points(curve, p):
    f = [a % p for a in curve.f_coeffs]
    root = poly_root(f, p) if len(f) == 7 else None
    F = monic_quintic_model(f, p, root)
    return F, list(hasse_witt._jacobian_points(F, character_table(p), p))


def test_hasse_witt_matches_the_coefficients_of_the_power():
    # W_ij is the coefficient of x^(ip-j) in f^((p-1)/2); the recurrence
    # and the reversed polynomial must give the same trace and determinant
    # as the power expanded in full, also when f(0) = 0 mod p moves x
    for f_coeffs in ([1, -1, 0, 0, 0, 1], [2, 3, -1, 0, 1, 5, 1], [0, -2, -2, -2, -1, 1],
                     [13, 1, 0, 2, 0, 3], [2, 0, 2, -1, 1, 3]):
        for p in (7, 11, 13, 101, 211):
            f = [a % p for a in f_coeffs]
            power = [1]
            for _ in range((p - 1) // 2):
                power = poly_mul(power, f, p)
            w = [[power[i * p - j] if i * p - j < len(power) else 0 for j in (1, 2)]
                 for i in (1, 2)]
            expected = ((w[0][0] + w[1][1]) % p, (w[0][0] * w[1][1] - w[0][1] * w[1][0]) % p)
            assert hasse_witt.hasse_witt(f, p) == expected, (f_coeffs, p)


def test_monic_models_keep_the_point_count():
    # the model is isomorphic over F_p, so its count (one point at
    # infinity) equals the count of the curve as given
    for f_coeffs, p in [([2, 0, 2, -1, 1, 3], 11), ([2, 3, -1, 0, 1, 5, 1], 103),
                        ([1, 1, 0, 0, 0, 0, 3], 13), ([5, -1, 0, 0, 0, 7], 211)]:
        curve = make_curve(f_coeffs)
        f = [a % p for a in f_coeffs]
        root = poly_root(f, p) if len(f) == 7 else None
        F = monic_quintic_model(f, p, root)
        assert len(F) == 6 and F[-1] == 1
        assert count_points(make_curve(F), p) == count_points(curve, p)


@given(p=st.sampled_from([7, 11, 13, 101, 1009]), seed=st.integers(0, 2**40 - 1),
       picks=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                      min_size=4, max_size=24))
@settings(max_examples=150, deadline=None)
def test_cantor_add_agrees_with_the_general_steps(p, seed, picks):
    # sums and doubles of divisor classes built from rational points:
    # cantor_add takes the explicit formulas where it can, and must give
    # what Cantor's general composition and reduction give
    F = [(seed >> (8 * i)) % p for i in range(5)] + [1]
    divisors = list(hasse_witt._jacobian_points(F, character_table(p), p))
    assume(divisors)
    divisors.append(hasse_witt._NEUTRAL)
    for i, j in picks:
        d1, d2 = divisors[i % len(divisors)], divisors[j % len(divisors)]
        total = cantor_add(d1, d2, F, p)
        assert total == hasse_witt._cantor(d1, d2, F, p)
        divisors.append(total)


def test_explicit_formulas_cover_the_generic_sum_and_double():
    F, p = [3, 1, 0, 0, 0, 1], 1009
    points = list(hasse_witt._jacobian_points(F, character_table(p), p))
    d1 = cantor_add(points[0], points[1], F, p)
    d2 = cantor_add(points[2], points[3], F, p)
    for a, b in ((d1, d2), (d1, d1), (d2, d2)):
        fast = hasse_witt._add_weight_two(a, b, F, p)
        assert fast is not None and len(fast[0]) == 3
        assert fast == hasse_witt._cantor(a, b, F, p)


def test_jacobian_order_kills_every_point():
    curve = make_curve([1, -1, 0, 0, 0, 1])
    for p in (7, 11, 101, 211):
        lp = lpoly_from_counts(2, p, count_points(curve, p, 1), count_points(curve, p, 2))
        order = sum(lp.coefficients())  # P(1) = #J(F_p)
        F, points = jacobian_points(curve, p)
        for (u, v) in points:
            x0, y0 = -u[0] % p, (v or [0])[0]
            assert (y0 * y0 - sum(c * pow(x0, i, p) for i, c in enumerate(F))) % p == 0
        for point in points:
            assert cantor_mul(order, point, F, p) == ([1], [])
            assert cantor_mul(order + 1, point, F, p) == point


@st.composite
def curve_at_prime(draw):
    """A quintic (non-monic and f(0) = 0 mod p included) or a sextic with a
    root mod p, and a good prime 7 <= p < 2000."""
    p = draw(st.sampled_from(PRIMES))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=6, max_size=6))
    if draw(st.booleans()):  # sextic (x - r) q(x) + p e(x): r is a root mod p
        r = draw(st.integers(-5, 5))
        e = draw(st.lists(st.integers(-2, 2), min_size=7, max_size=7))
        f = [a + p * b for a, b in zip(poly_mul([-r % p, 1], [a % p for a in coeffs], p)
                                       + [0] * 7, e)]
    else:
        f = coeffs
        if draw(st.booleans()):
            f = [p * draw(st.integers(-1, 1))] + f[1:]
    assume(f[-1] % p)
    try:
        curve = make_curve(f)
        count_points(curve, p)
    except (ValueError, BadReductionError):
        assume(False)
    return curve, p


def test_hasse_witt_path_matches_the_count(monkeypatch):
    chose = []
    survivors = hasse_witt._jacobian_survivors

    def spy(F, c1, candidates, chi, p):
        chose.append(len(candidates))
        return survivors(F, c1, candidates, chi, p)

    monkeypatch.setattr(hasse_witt, "_jacobian_survivors", spy)
    monkeypatch.setattr(scan, "HASSE_WITT_MIN_P", 7)

    @given(case=curve_at_prime())
    @settings(max_examples=40, deadline=None)
    def check(case):
        curve, p = case
        assert len(curve.f_coeffs) == 6 or poly_root([a % p for a in curve.f_coeffs], p) is not None
        assert record_for_prime(curve, p) == counted_record(curve, p)

    check()
    # most draws leave several c2 for the Jacobian to choose from
    assert sum(n > 1 for n in chose) >= 10


def test_two_torsion_first_point_leaves_survivors_apart():
    # f(0) = 0 mod 11 makes (x, 0) a 2-torsion point, and it is the first
    # one tried: it keeps the candidates whose P(1) is even, -12 and 10 of
    # -12, -1, 10, 21, so the next point has to walk through -1 as well
    curve, p = make_curve([0, -2, -2, -2, -1, 1]), 11
    F, points = jacobian_points(curve, p)
    assert points[0] == ([0, 1], [])
    expected = counted_record(curve, p)
    c1 = expected.c1
    candidates = [c2 for c2 in range(expected.c2 % p - 3 * p, 7 * p, p) if weil_ok(p, c1, c2)]
    assert candidates == [-12, -1, 10, 21]
    orders = [p * p + 1 + (p + 1) * c1 + c2 for c2 in candidates]
    assert [n % 2 for n in orders] == [0, 1, 0, 1]
    lp = hasse_witt_lpoly(curve.f_coeffs, p, c1, character_table(p))
    assert (lp.c1, lp.c2) == (expected.c1, expected.c2)


def test_unresolved_candidates_fall_back_to_the_count(monkeypatch):
    # with no Jacobian points the candidates stay undecided, so the record
    # comes from the F_{p^2} count and does not change
    curve, p = make_curve([1, -1, 0, 0, 0, 1]), 1021
    expected = counted_record(curve, p)
    counted = []
    ext2 = counting._count_ext2

    def spy(curve, p, chi):
        counted.append(p)
        return ext2(curve, p, chi)

    monkeypatch.setattr(hasse_witt, "_jacobian_points", lambda F, chi, p: iter(()))
    monkeypatch.setattr(scan, "_count_ext2", spy)
    assert hasse_witt_lpoly(curve.f_coeffs, p, expected.c1, character_table(p)) is None
    assert record_for_prime(curve, p) == expected
    assert counted == [p]


def test_rootless_sextic_goes_straight_to_the_count(monkeypatch):
    curve = make_curve([2, 3, -1, 0, 1, 5, 1])
    p = next(p for p in counting.good_primes(curve, 2000)
             if p >= scan.HASSE_WITT_MIN_P
             and poly_root([a % p for a in curve.f_coeffs], p) is None)
    expected = counted_record(curve, p)

    def must_not_run(f, p):
        raise AssertionError("the Hasse-Witt matrix was built")

    monkeypatch.setattr(hasse_witt, "hasse_witt", must_not_run)
    assert record_for_prime(curve, p) == expected


@pytest.mark.parametrize("f_coeffs,primes", [
    ([1, 1, 0, 1], [3, 101, 1009]),  # genus 1
    ([1, -1, 0, 0, 0, 1], [7, 1021]),  # below and above the crossover
    ([2, 3, -1, 0, 1, 5, 1], [211, 223, 1019]),  # sextic with and without a root
])
def test_one_character_table_per_prime(monkeypatch, f_coeffs, primes):
    # one reduction check and one table per prime, so trial division runs
    # twice: in the check and in the table's own prime test
    built, checked, trial = [], [], []

    def counted_table(p):
        built.append(p)
        return character_table(p)

    def counted_check(curve, p):
        checked.append(p)
        return check(curve, p)

    def counted_is_prime(n):
        trial.append(n)
        return is_prime(n)

    check = counting._check_reduction
    monkeypatch.setattr(scan, "character_table", counted_table)
    monkeypatch.setattr(counting, "character_table", counted_table)
    monkeypatch.setattr(scan, "_check_reduction", counted_check)
    monkeypatch.setattr(counting, "_check_reduction", counted_check)
    monkeypatch.setattr(arith, "is_prime", counted_is_prime)
    monkeypatch.setattr(counting, "is_prime", counted_is_prime)
    curve = make_curve(f_coeffs)
    for p in primes:
        record_for_prime(curve, p)
    assert built == primes
    assert checked == primes
    assert trial == [p for p in primes for _ in range(2)]
