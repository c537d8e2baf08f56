"""The genus-2 path through the Jacobian order, by baby-step giant-step
(BSGS) first and by the Hasse-Witt matrix and the walk where BSGS leaves c2
open, checked against the numpy F_{p^2} count of the tests' oracles.  The
tests that aim at W and the walk make BSGS abstain."""

import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobstat import arith, counting, hasse_witt
from frobstat.arith import character_table, is_prime, poly_mul, sieve_primes
from frobstat.counting import BadReductionError, _values_mod_p, count_points, make_curve
from frobstat.hasse_witt import (
    cantor_add,
    cantor_mul,
    hasse_witt_lpoly,
    monic_model,
)
from frobstat.lpoly import LPolyValidationError, lpoly_from_counts, normalize, weil_ok
from frobstat.scan import record_for_prime
from frobstat.stats import ScanRecord

from oracles import count_ext2, legendre, poly_derivative, poly_gcd, roots_mod_p

PRIMES = sieve_primes(2000)[1:]


def sweep_curves():
    """The fixed curves of scripts/record_sweep.py."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "record_sweep.py"
    spec = importlib.util.spec_from_file_location("record_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FIXED


def counted_record(curve, p):
    """The record built from both point counts, as the scan did before
    the Hasse-Witt path: n1 from the character sum alone, since
    count_points reads frobenius, and n2 from the oracle."""
    n1 = counting._count_ext1(curve, p, character_table(p), values(curve, p))
    n2 = count_ext2(curve, p)
    lp = lpoly_from_counts(2, p, n1, n2)
    nc = normalize(lp)
    return ScanRecord(p=p, n1=n1, c1=lp.c1, a1bar=nc.a1, n2=n2, c2=lp.c2, a2bar=nc.a2)


def values(curve, p):
    return _values_mod_p([a % p for a in curve.f_coeffs], p)


def model(curve, p):
    return monic_model([a % p for a in curve.f_coeffs], p, character_table(p), values(curve, p))


def jacobian_points(curve, p):
    """(F, s, points) of the monic model."""
    F, s = model(curve, p)
    return F, s, list(hasse_witt._jacobian_points(F, character_table(p), p))


def must_not_count(f, p, chi):
    raise AssertionError("the F_{p^2} count ran")


def without_bsgs(monkeypatch):
    """Make BSGS abstain, as where no base point exists, so that W and
    the walk decide every prime."""
    monkeypatch.setattr(hasse_witt, "_base_point", lambda F, chi, p: None)


def spy_w(monkeypatch):
    """The primes at which W is built, appended as it is."""
    built = []
    matrix = hasse_witt.hasse_witt

    def spy(f, p):
        built.append(p)
        return matrix(f, p)

    monkeypatch.setattr(hasse_witt, "hasse_witt", spy)
    return built


def squarefree(F, p):
    return poly_gcd(F, poly_derivative(F, p), p) == [1]


def negate(d, F, p):
    """-d: (u, -v, n) on a quintic; on a real model the hyperelliptic
    involution swaps inf+ and inf-, so n becomes 2 - deg u - n."""
    u, v, n = d
    return u, [-c % p for c in v], 3 - len(u) - n if len(F) == 7 else n


def test_hasse_witt_matches_the_coefficients_of_the_power():
    # W_ij is the coefficient of x^(ip-j) in f^((p-1)/2); the recurrence
    # and the reversed polynomial must give the same trace and determinant
    # as the power expanded in full, also when f(0) = 0 mod p
    for f_coeffs in ([1, -1, 0, 0, 0, 1], [2, 3, -1, 0, 1, 5, 1], [0, -2, -2, -2, -1, 1],
                     [13, 1, 0, 2, 0, 3], [2, 0, 2, -1, 1, 3]):
        for p in (3, 5, 7, 11, 13, 101, 211):
            if p not in counting.good_primes(make_curve(f_coeffs), p):
                continue
            f = [a % p for a in f_coeffs]
            power = [1]
            for _ in range((p - 1) // 2):
                power = poly_mul(power, f, p)
            w = [[power[i * p - j] if i * p - j < len(power) else 0 for j in (1, 2)]
                 for i in (1, 2)]
            expected = ((w[0][0] + w[1][1]) % p, (w[0][0] * w[1][1] - w[0][1] * w[1][0]) % p)
            assert hasse_witt.hasse_witt(f, p) == expected, (f_coeffs, p)


def test_monic_models_keep_the_point_count():
    # F = g / lc(g) is y^2 = g(x) over F_p when s = 1, so its count (one
    # point at infinity on a quintic, two on a real model) is n1, and its
    # quadratic twist when s = -1, whose count is 2p + 2 - n1
    for f_coeffs, p, degree, s in [
        ([2, 0, 2, -1, 1, 3], 11, 5, 1), ([2, 3, -1, 0, 1, 5, 1], 103, 5, 1),
        ([1, 1, 0, 0, 0, 0, 3], 13, 5, -1), ([5, -1, 0, 0, 0, 7], 211, 5, -1),
        ([2, 3, -1, 0, 1, 5, 1], 211, 6, 1),  # no root mod p, leading coefficient 1
        ([3, -1, -1, 3, -1, -2, 2], 103, 6, 1),  # no root, 2 a square mod 103
        ([3, -1, -1, 3, -1, -2, 2], 109, 6, -1),  # no root, 2 not a square mod 109
    ]:
        curve = make_curve(f_coeffs)
        assert (len(f_coeffs) == 6 or bool(roots_mod_p(f_coeffs, p))) == (degree == 5)
        F, sign = model(curve, p)
        assert len(F) == degree + 1 and F[-1] == 1 and sign == s
        n1 = count_points(curve, p)
        assert count_points(make_curve(F), p) == (n1 if s == 1 else 2 * p + 2 - n1)


def test_pointless_sextic_has_the_twist_as_model_and_needs_none(monkeypatch):
    # 3x^6 + 3x^5 + x^3 + 3x^2 + 3 takes no square value mod 7 and its
    # leading coefficient is not a square, so its model is the quadratic
    # twist, with 2p + 2 = 16 points; c1 = -p - 1 leaves a single c2
    # within the Weil bound, so the record needs neither the model nor
    # the count
    f_coeffs, p = [3, 0, 3, 1, 0, 3, 3], 7
    curve = make_curve(f_coeffs)
    assert count_points(curve, p) == 0
    F, s = model(curve, p)
    assert s == -1 and count_points(make_curve(F), p) == 16
    expected = counted_record(curve, p)
    monkeypatch.setattr(hasse_witt, "_count_ext2", must_not_count)
    assert record_for_prime(curve, p) == expected


@pytest.mark.parametrize("f_coeffs", [
    [1, 0, 0, 0, 0, 0, 1],  # x^6 + 1
    [0, -1, 0, 0, 0, 1],  # x^5 - x
    [0, 1, 0, 0, 0, 1],  # x^5 + x
    [1, 0, 0, 0, 0, 1],  # x^5 + 1
    [0, -1, 0, 0, 0, 0, 1],  # x^6 - x
    [1, 0, 0, 1, 0, 0, 1],  # x^6 + x^3 + 1
    [1, 0, -5, 0, -5, 0, 1],  # x^6 - 5x^4 - 5x^2 + 1
    [1, 0, 0, 0, 0, 0, 2],  # 2x^6 + 1
    [0, 2, 0, 0, 0, 3],  # 3x^5 + 2x
])
def test_split_and_twisted_models_match_the_count(f_coeffs):
    # split Jacobians, whose small group exponents leave several c2 to
    # the walk, and leading coefficients that are not squares mod p, whose
    # model is the twist: at every good prime below 300 the record equals
    # the one built from the oracle's count over F_{p^2}
    curve = make_curve(f_coeffs)
    for p in counting.good_primes(curve, 300):
        assert record_for_prime(curve, p) == counted_record(curve, p), p


@given(p=st.sampled_from([7, 11, 13, 101, 1009]), degree=st.sampled_from([5, 6]),
       seed=st.integers(0, 2**48 - 1),
       picks=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                      min_size=4, max_size=24))
@settings(max_examples=200, deadline=None)
def test_cantor_add_agrees_with_the_general_steps(p, degree, seed, picks):
    # sums and doubles of divisor classes built from rational points, on a
    # quintic and on a real model: cantor_add takes the explicit formulas
    # where it can, and must give what the general composition and
    # reduction give
    F = [(seed >> (8 * i)) % p for i in range(degree)] + [1]
    assume(squarefree(F, p))
    divisors = list(hasse_witt._jacobian_points(F, character_table(p), p))
    assume(divisors)
    general = hasse_witt._real_add if degree == 6 else hasse_witt._cantor
    divisors.append(hasse_witt._NEUTRAL)
    for i, j in picks:
        d1, d2 = divisors[i % len(divisors)], divisors[j % len(divisors)]
        total = cantor_add(d1, d2, F, p)
        assert total == general(d1, d2, F, p)
        divisors.append(total)
    # one form (u, v, n) on both models, with n fixed by u on a quintic;
    # P + (-P) and 0 * P are the neutral class
    for d in divisors:
        assert isinstance(d, tuple) and len(d) == 3
        assert degree == 6 or d[2] == int(d[0] == [1])
        assert cantor_add(d, negate(d, F, p), F, p) == hasse_witt._NEUTRAL
        assert cantor_mul(0, d, F, p) == hasse_witt._NEUTRAL


def test_explicit_formulas_cover_the_generic_sum_and_double():
    # on a quintic and on a real model, where the sum keeps n = 0
    p = 1009
    for F, general in (([3, 1, 0, 0, 0, 1], hasse_witt._cantor),
                       ([3, 1, 0, 0, 0, 2, 1], hasse_witt._real_add)):
        points = list(hasse_witt._jacobian_points(F, character_table(p), p))
        d1 = cantor_add(points[0], points[1], F, p)
        d2 = cantor_add(points[2], points[3], F, p)
        for a, b in ((d1, d2), (d1, d1), (d2, d2)):
            fast = hasse_witt._add_weight_two(a, b, F, p)
            assert fast is not None and len(fast[0]) == 3 and fast[2] == 0
            assert fast == general(a, b, F, p)


@pytest.mark.parametrize("f_coeffs", [[2, 3, -1, 0, 1, 5, 1], [3, -1, -1, 3, -1, -2, 2]])
def test_real_model_sum_is_a_group_law_killed_by_the_order(f_coeffs):
    # on the real model of a sextic with no root mod p (leading coefficient
    # a square or not, so the curve or its twist): sums of random classes
    # are balanced and reduced, commute and associate, and the model's
    # #J(F_p) = p^2 + 1 + s (p + 1) c1 + c2 kills every class
    curve = make_curve(f_coeffs)
    primes = [p for p in counting.good_primes(curve, 1100)
              if p >= 17 and not roots_mod_p(f_coeffs, p)]
    signs = set()
    for p in primes[:4] + primes[-2:]:
        lp = lpoly_from_counts(2, p, count_points(curve, p, 1), count_ext2(curve, p))
        F, s, points = jacobian_points(curve, p)
        order = p * p + 1 + s * (p + 1) * lp.c1 + lp.c2
        signs.add(s)
        assert len(F) == 7 and points
        rng = random.Random(p)
        pool = points + [hasse_witt._NEUTRAL, ([1], [], 0), ([1], [], 2)]
        for _ in range(12):
            pool.append(cantor_mul(rng.randrange(1, p * p), rng.choice(points), F, p))
        for _ in range(30):
            a, b, c = (rng.choice(pool) for _ in range(3))
            total = cantor_add(a, b, F, p)
            u, v, n = total
            assert u[-1] == 1 and len(v) < len(u) and 0 <= n <= 3 - len(u)
            assert not arith.poly_divmod(arith.poly_sub(F, arith.poly_mul(v, v, p), p), u, p)[1]
            assert total == cantor_add(b, a, F, p)
            assert cantor_add(total, c, F, p) == cantor_add(a, cantor_add(b, c, F, p), F, p)
            pool.append(total)
        for d in pool:
            assert cantor_mul(order, d, F, p) == hasse_witt._NEUTRAL
        assert cantor_mul(order + 1, points[0], F, p) == points[0]
    assert signs == ({1} if f_coeffs[-1] == 1 else {1, -1})


def test_jacobian_order_kills_every_point():
    curve = make_curve([1, -1, 0, 0, 0, 1])
    for p in (7, 11, 101, 211):
        lp = lpoly_from_counts(2, p, count_points(curve, p, 1), count_ext2(curve, p))
        order = sum(lp.coefficients())  # P(1) = #J(F_p)
        F, _, points = jacobian_points(curve, p)
        for (u, v, n) in points:
            x0, y0 = -u[0] % p, (v or [0])[0]
            assert (y0 * y0 - sum(c * pow(x0, i, p) for i, c in enumerate(F))) % p == 0
            assert n == 0
        for point in points:
            assert cantor_mul(order, point, F, p) == hasse_witt._NEUTRAL
            assert cantor_mul(order + 1, point, F, p) == point


@st.composite
def curve_at_prime(draw):
    """A quintic (non-monic and f(0) = 0 mod p included) or a sextic with a
    root mod p, and a good prime 3 <= p < 2000."""
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


def check_the_path_against_the_count(monkeypatch, bsgs):
    """Draws of curve_at_prime, with BSGS first or abstaining."""
    chose = []
    survivors = hasse_witt._jacobian_survivors

    def spy(F, base, candidates, chi, p):
        chose.append(len(candidates))
        return survivors(F, base, candidates, chi, p)

    monkeypatch.setattr(hasse_witt, "_jacobian_survivors", spy)
    built = spy_w(monkeypatch)
    if not bsgs:
        without_bsgs(monkeypatch)
    with_w = []

    @given(case=curve_at_prime())
    @settings(max_examples=40, deadline=None)
    def check(case):
        curve, p = case
        assert len(curve.f_coeffs) == 6 or roots_mod_p(curve.f_coeffs, p)
        built.clear()
        assert record_for_prime(curve, p) == counted_record(curve, p)
        assert built == [p] or bsgs and not built
        with_w.append(bool(built))

    check()
    if bsgs:
        # BSGS settles most draws, and W is built only for the rest
        assert 2 * sum(with_w) < len(with_w)
    else:
        # most draws leave several c2 for the Jacobian to choose from
        assert sum(n > 1 for n in chose) >= 10


def test_hasse_witt_path_matches_the_count(monkeypatch):
    # BSGS abstains, so W and the walk decide every draw
    check_the_path_against_the_count(monkeypatch, bsgs=False)


def test_bsgs_path_matches_the_count(monkeypatch):
    # the same draws with BSGS first
    check_the_path_against_the_count(monkeypatch, bsgs=True)


def test_two_torsion_first_point_leaves_survivors_apart(monkeypatch):
    # f(0) = 0 mod 11 makes (x, 0) a 2-torsion point, and it is the first
    # one tried: it keeps the candidates whose P(1) is even, -12 and 10 of
    # -12, -1, 10, 21, so the next point has to walk through -1 as well;
    # BSGS abstains, as its order would leave W only 10
    without_bsgs(monkeypatch)
    curve, p = make_curve([0, -2, -2, -2, -1, 1]), 11
    F, _, points = jacobian_points(curve, p)
    assert points[0] == ([0, 1], [], 0)
    expected = counted_record(curve, p)
    c1 = expected.c1
    candidates = [c2 for c2 in range(expected.c2 % p - 3 * p, 7 * p, p) if weil_ok(p, c1, c2)]
    assert candidates == [-12, -1, 10, 21]
    orders = [p * p + 1 + (p + 1) * c1 + c2 for c2 in candidates]
    assert [n % 2 for n in orders] == [0, 1, 0, 1]
    lp = hasse_witt_lpoly(curve.f_coeffs, p, c1, character_table(p), values(curve, p))
    assert (lp.c1, lp.c2) == (expected.c1, expected.c2)


@pytest.mark.parametrize("f_coeffs,p,jacobian_decides", [
    ([0, -1, 0, 0, 0, 1], 3, False),  # x^5 - x vanishes on all of F_3
    ([0, -1, 0, 0, 0, 1], 5, False),  # and on all of F_5
    ([7, 1, 0, 2, 0, 3], 7, True),  # f(0) = 0 mod p, a quintic
    ([14, 1, 1, 0, 1, 0, 1], 7, True),  # and a sextic, whose first root is 0
    ([0, -2, -2, -2, -1, 1], 7, False),  # c2 left open above 5 as well
])
def test_small_primes_and_f_vanishing_at_zero_match_the_count(monkeypatch, f_coeffs, p,
                                                              jacobian_decides):
    # W comes from h^n for f = x h; where every point of F_p lies on
    # y = 0, the Jacobian points leave c2 open and the count decides
    curve = make_curve(f_coeffs)
    expected = counted_record(curve, p)
    assert hasse_witt.hasse_witt([a % p for a in f_coeffs], p) == (-expected.c1 % p,
                                                                  expected.c2 % p)
    counted = []
    ext2 = hasse_witt._count_ext2

    def spy(f, p, chi):
        counted.append(p)
        return ext2(f, p, chi)

    monkeypatch.setattr(hasse_witt, "_count_ext2", spy)
    lp = hasse_witt_lpoly(curve.f_coeffs, p, expected.c1, character_table(p), values(curve, p))
    assert (lp.c1, lp.c2) == (expected.c1, expected.c2)
    # the enumeration of F_{p^2} runs exactly where the Jacobian leaves c2 open
    assert counted == ([] if jacobian_decides else [p])
    assert record_for_prime(curve, p) == expected


@given(p=st.sampled_from([3, 5, 7, 13, 17, 41, 97, 257, 1009]),
       seed=st.integers(0, 2**40 - 1))
@settings(max_examples=100, deadline=None)
def test_jacobian_points_lie_on_the_curve(p, seed):
    # every x0 with F(x0) a square, in order, each with y0^2 = F(x0) from
    # the table of square roots, and v = [] exactly when y0 = 0
    F = [(seed >> (8 * i)) % p for i in range(5)] + [1]

    def at(x):
        return sum(c * pow(x, i, p) for i, c in enumerate(F)) % p

    points = list(hasse_witt._jacobian_points(F, character_table(p), p))
    xs = [x for x in range(p) if legendre(p, at(x)) >= 0]
    assert [-u[0] % p for u, _, _ in points] == xs
    for u, v, n in points:
        x0, y0 = -u[0] % p, (v or [0])[0]
        assert len(u) == 2 and u[1] == 1 and v != [0] and n == 0
        assert (y0 * y0 - at(x0)) % p == 0


def test_unresolved_candidates_fall_back_to_the_count(monkeypatch):
    # with no Jacobian points the candidates stay undecided, so the record
    # comes from the enumeration of F_{p^2} and does not change
    curve, p = make_curve([1, -1, 0, 0, 0, 1]), 1021
    expected = counted_record(curve, p)
    counted = []
    ext2 = hasse_witt._count_ext2

    def spy(f, p, chi):
        counted.append(p)
        return ext2(f, p, chi)

    monkeypatch.setattr(hasse_witt, "_jacobian_points", lambda F, chi, p: iter(()))
    monkeypatch.setattr(hasse_witt, "_count_ext2", spy)
    assert record_for_prime(curve, p) == expected
    assert counted == [p]


def check_the_first_rootless_primes(monkeypatch, bsgs):
    """The first prime p >= 17 where the sextic has no root mod p, with
    leading coefficient 1 and 2, not a square mod the second's p = 19:
    c2 is picked on the real model, and nothing is counted over F_{p^2}."""
    built = spy_w(monkeypatch)
    if not bsgs:
        without_bsgs(monkeypatch)
    monkeypatch.setattr(hasse_witt, "_count_ext2", must_not_count)
    for f_coeffs in ([2, 3, -1, 0, 1, 5, 1], [3, -1, -1, 3, -1, -2, 2]):
        curve = make_curve(f_coeffs)
        p = next(p for p in counting.good_primes(curve, 2000)
                 if p >= 17 and not roots_mod_p(curve.f_coeffs, p))
        expected = counted_record(curve, p)
        built.clear()
        assert record_for_prime(curve, p) == expected
        assert built == ([] if bsgs else [p])


def test_rootless_sextic_builds_w_and_skips_the_count(monkeypatch):
    # with BSGS abstaining, W is built and the walk picks c2
    check_the_first_rootless_primes(monkeypatch, bsgs=False)


def test_rootless_sextic_settled_by_bsgs_skips_w_and_the_count(monkeypatch):
    check_the_first_rootless_primes(monkeypatch, bsgs=True)


@st.composite
def rootless_sextic_at_prime(draw):
    """A sextic with no root mod p whose leading coefficient is a square
    mod p or not, as drawn, and a good prime 17 <= p < 2000.  The constant
    term is the first residue from a drawn offset on that is not -g(x) at
    any x, for g the rest of f."""
    p = draw(st.sampled_from([q for q in PRIMES if q >= 17]))
    character = draw(st.sampled_from([1, -1]))
    lead = draw(st.sampled_from([a for a in range(1, 60) if legendre(p, a) == character]))
    g = [0] + draw(st.lists(st.integers(-9, 9), min_size=5, max_size=5)) + [lead]
    taken = {-sum(c * pow(x, i, p) for i, c in enumerate(g)) % p for x in range(p)}
    offset = draw(st.integers(0, p - 1))
    f0 = next((c % p for c in range(offset, offset + p) if c % p not in taken), None)
    assume(f0 is not None)
    f = [f0] + g[1:]
    assert not roots_mod_p(f, p)
    try:
        curve = make_curve(f)
        count_points(curve, p)
    except (ValueError, BadReductionError):
        assume(False)
    return curve, p


def check_rootless_sextics_against_the_count(monkeypatch, bsgs):
    """Draws of rootless_sextic_at_prime, with BSGS first or abstaining."""
    chose = []
    survivors = hasse_witt._jacobian_survivors

    def spy(F, base, candidates, chi, p):
        assert len(F) == 7
        chose.append(len(candidates))
        return survivors(F, base, candidates, chi, p)

    monkeypatch.setattr(hasse_witt, "_jacobian_survivors", spy)
    monkeypatch.setattr(hasse_witt, "_count_ext2", must_not_count)
    built = spy_w(monkeypatch)
    if not bsgs:
        without_bsgs(monkeypatch)

    characters, with_w = set(), []

    @given(case=rootless_sextic_at_prime())
    @settings(max_examples=30, deadline=None)
    def check(case):
        curve, p = case
        characters.add(legendre(p, curve.leading))
        built.clear()
        assert record_for_prime(curve, p) == counted_record(curve, p)
        assert built == [p] or bsgs and not built
        with_w.append(bool(built))

    check()
    assert characters == {1, -1}
    if bsgs:
        # BSGS settles most draws on the real model, without W
        assert 2 * sum(with_w) < len(with_w)
    else:
        # most draws leave several c2 for the real model's Jacobian to choose
        assert sum(n > 1 for n in chose) >= 10


def test_rootless_sextics_match_the_count(monkeypatch):
    # BSGS abstains, so W and the walk on the real model decide every draw
    check_rootless_sextics_against_the_count(monkeypatch, bsgs=False)


def test_rootless_sextics_match_the_count_by_bsgs(monkeypatch):
    check_rootless_sextics_against_the_count(monkeypatch, bsgs=True)


@pytest.mark.parametrize("f_coeffs,primes", [
    ([1, 1, 0, 1], [3, 101, 1009]),  # genus 1
    ([1, -1, 0, 0, 0, 1], [3, 7, 1021]),  # quintic, decided by the Jacobian
    # sextic without a root mod 211 and 1031, with one mod 223 and 1019
    ([2, 3, -1, 0, 1, 5, 1], [211, 223, 1019, 1031]),
    ([0, -1, 0, 0, 0, 1], [3, 5]),  # candidates left open for the count
    # no root mod 103 and 1051, whose leading coefficient 2 is a square
    # mod 103 and not mod 1051, and a root mod 211
    ([3, -1, -1, 3, -1, -2, 2], [103, 211, 1051]),
])
def test_one_character_table_per_prime(monkeypatch, f_coeffs, primes):
    # one reduction check, one table and one pass over the values of f per
    # prime, also where the F_{p^2} count runs, and trial division once,
    # in the check; the count runs only where x^5 - x leaves c2 open
    built, checked, trial, evaluated, ext2 = [], [], [], [], []

    def counted_table(p):
        built.append(p)
        return character_table(p)

    def counted_check(curve, p):
        checked.append(p)
        return check(curve, p)

    def counted_is_prime(n):
        trial.append(n)
        return is_prime(n)

    def counted_values(coeffs, p):
        evaluated.append(p)
        return evaluate(coeffs, p)

    def counted_ext2(f, p, chi):
        ext2.append(p)
        return enumerate_ext2(f, p, chi)

    check, evaluate = counting._check_reduction, counting._values_mod_p
    enumerate_ext2 = hasse_witt._count_ext2
    monkeypatch.setattr(counting, "character_table", counted_table)
    monkeypatch.setattr(counting, "_check_reduction", counted_check)
    monkeypatch.setattr(arith, "is_prime", counted_is_prime)
    monkeypatch.setattr(counting, "is_prime", counted_is_prime)
    monkeypatch.setattr(counting, "_values_mod_p", counted_values)
    monkeypatch.setattr(hasse_witt, "_count_ext2", counted_ext2)
    curve = make_curve(f_coeffs)
    for p in primes:
        record_for_prime(curve, p)
    assert built == primes
    assert checked == primes
    assert evaluated == primes
    assert ext2 == (primes if f_coeffs == [0, -1, 0, 0, 0, 1] else [])
    assert trial == primes


def test_bsgs_c2_matches_the_hasse_witt_route(monkeypatch):
    # at every good prime below 400 of the record sweep's fixed curves
    # (split Jacobians and twisted models among them) and four generic
    # ones, the L-polynomial found with BSGS first equals the one W and
    # the walk find alone; BSGS settles most primes, and each later stage
    # (W with BSGS's order, then the walk) still decides some
    generic = [[2, 0, 2, -1, 1, 3], [13, 1, 0, 2, 0, 3], [3, -1, -1, 3, -1, -2, 2],
               [-6, 4, 9, 8, 1, 9, 4]]
    built, walked = spy_w(monkeypatch), []
    survivors = hasse_witt._jacobian_survivors

    def spy(F, base, candidates, chi, p):
        walked.append(p)
        return survivors(F, base, candidates, chi, p)

    monkeypatch.setattr(hasse_witt, "_jacobian_survivors", spy)
    routes = Counter()
    for f_coeffs in sweep_curves() + generic:
        curve = make_curve(f_coeffs)
        for p in counting.good_primes(curve, 400):
            chi, vals = character_table(p), values(curve, p)
            c1 = counting._count_ext1(curve, p, chi, vals) - p - 1
            built.clear(), walked.clear()
            found = hasse_witt_lpoly(curve.f_coeffs, p, c1, chi, vals)
            routes["walk" if walked else "w" if built else "bsgs"] += 1
            with monkeypatch.context() as patch:
                patch.setattr(hasse_witt, "_base_point", lambda F, chi, p: None)
                assert found == hasse_witt_lpoly(curve.f_coeffs, p, c1, chi, vals), (f_coeffs, p)
    assert routes["bsgs"] > routes["w"] + routes["walk"]
    assert routes["w"] >= 10 and routes["walk"] >= 10


def test_base_points_skip_the_weierstrass_points_of_x5_minus_x():
    # x^5 - x vanishes at x = 0, 1 and -1, the first points tried, whose
    # classes are 2-torsion; the base point is the sum of the first two
    # points with y != 0, of order above 2, or None at p = 3 and 5, where
    # every point has y = 0
    curve = make_curve([0, -1, 0, 0, 0, 1])
    for p in counting.good_primes(curve, 400):
        F, _, points = jacobian_points(curve, p)
        D = hasse_witt._base_point(F, character_table(p), p)
        moving = [point for point in points if point[1]]
        if p <= 5:
            assert D is None and not moving
            continue
        assert points[:2] == [([0, 1], [], 0), ([p - 1, 1], [], 0)]
        assert -moving[0][0][0] % p not in (0, 1, p - 1)
        assert D == cantor_add(moving[0], moving[1], F, p)
        assert cantor_add(D, D, F, p) != hasse_witt._NEUTRAL


def test_bsgs_without_a_hit_raises(monkeypatch):
    # c1 off by 5 moves the orders P(1) of the interval by 5 (p + 1), past
    # #J, so no c2 in it kills D, and BSGS raises before W is built
    curve, p = make_curve([1, -1, 0, 0, 0, 1]), 1021
    c1 = counted_record(curve, p).c1
    built = spy_w(monkeypatch)
    with pytest.raises(LPolyValidationError, match="fits the Jacobian"):
        hasse_witt_lpoly(curve.f_coeffs, p, c1 + 5, character_table(p), values(curve, p))
    assert built == []


@given(p=st.sampled_from([5, 7, 11, 13, 31]), degree=st.sampled_from([5, 6]),
       seed=st.integers(0, 2**48 - 1), pick=st.integers(0, 99), double=st.booleans(),
       start=st.integers(-50, 50), step=st.integers(1, 12), count=st.integers(0, 80))
@settings(max_examples=150, deadline=None)
def test_bsgs_keeps_exactly_the_c2_whose_order_kills_the_class(
        p, degree, seed, pick, double, start, step, count):
    # on progressions of every step and length, for weight-one classes
    # (2-torsion ones included, whose baby steps repeat at once) and sums
    # of two, the c2 BSGS keeps are those whose base + c2 kills D
    F = [(seed >> (8 * i)) % p for i in range(degree)] + [1]
    assume(squarefree(F, p))
    points = list(hasse_witt._jacobian_points(F, character_table(p), p))
    assume(len(points) >= 2)
    D = points[pick % len(points)]
    if double:
        D = cantor_add(D, points[(pick + 1) % len(points)], F, p)
    base = p * p + 50
    candidates = range(start, start + step * count, step)
    kept = hasse_witt._killers(F, D, base, candidates, p)
    assert list(kept) == [c2 for c2 in candidates
                          if cantor_mul(base + c2, D, F, p) == hasse_witt._NEUTRAL]
