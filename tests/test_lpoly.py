import math

import numpy as np
import pytest

from frobstat.arith import sieve_primes
from frobstat.lpoly import (
    LPoly,
    LPolyValidationError,
    lpoly_from_counts,
    normalize,
    predicted_count,
    weil_c2,
    weil_check,
    weil_ok,
)

from oracles import weil_ok_genus2

ODD_PRIMES_100 = sieve_primes(100)[1:]

# number of admissible (c1, c2) pairs per prime, frozen from a numeric
# classifier that checks every root of P(T) has absolute value p^(-1/2)
# (valid pairs deviate < 2e-7, invalid ones > 9e-3, so the call is clean)
VALID_PAIR_COUNTS = {
    3: 63, 5: 129, 7: 207, 11: 401, 13: 513, 17: 765, 19: 897, 23: 1193,
    29: 1683, 31: 1861, 37: 2425, 41: 2821, 43: 3031, 47: 3461, 53: 4139,
    59: 4861, 61: 5109, 67: 5877, 71: 6409, 73: 6683, 79: 7521, 83: 8099,
    89: 8987, 97: 10223,
}


def _pair_box(p):
    """Search box guaranteed to contain every admissible (c1, c2)."""
    cmax = math.isqrt(16 * p) + 2
    for c1 in range(-cmax, cmax + 1):
        lo = -2 * p - math.isqrt(4 * c1 * c1 * p) - 3
        hi = (c1 * c1 + 8 * p) // 4 + 3
        yield c1, lo, hi


def _valid_pairs(p):
    for c1, lo, hi in _pair_box(p):
        for c2 in range(lo, hi + 1):
            if weil_check(LPoly(genus=2, p=p, c1=c1, c2=c2)):
                yield c1, c2


@pytest.mark.parametrize("p", sorted(VALID_PAIR_COUNTS))
def test_admissible_pair_counts_match_numeric_classifier(p):
    assert sum(1 for _ in _valid_pairs(p)) == VALID_PAIR_COUNTS[p]
    assert sum(len(weil_c2(p, c1)) for c1, _, _ in _pair_box(p)) == VALID_PAIR_COUNTS[p]


def test_weil_c2_is_the_interval_of_four_exact_tests():
    # every integer p, not only primes: a scan file's p is not tested for
    # primality, and at a square p, 4 c1^2 p can be a square.  The oracle's
    # tests bound c2 above by (c1^2 + 8p) / 4 and below, so it accepts an
    # interval ending at or below that top: its two ends, or its refusal of
    # the top, settle every c2
    checked = 0
    for p in range(401):
        for c1 in range(-math.isqrt(16 * p) - 2, math.isqrt(16 * p) + 3):
            span = weil_c2(p, c1)
            top = (c1 * c1 + 8 * p) // 4
            if span:
                assert span[-1] == top
                ends = [span.start - 1, span.start, top, top + 1]
                expected = [False, True, True, False]
            else:
                ends, expected = [top], [False]
            assert [weil_ok_genus2(p, c1, c2) for c2 in ends] == expected, (p, c1)
            assert [weil_ok(p, c1, c2) for c2 in ends] == expected
            checked += 1
    assert checked == 44345
    # 4 c1^2 p = 36 is a square: c2 = 2 * 6 - 2 * 9 = -12 is the lower end
    assert weil_c2(9, 1).start == weil_c2(9, -1).start == -12


@pytest.mark.parametrize("p", [3, 7, 19, 53, 97])
def test_genus2_roundtrip_on_all_admissible_pairs(p):
    for c1, c2 in _valid_pairs(p):
        lp = LPoly(genus=2, p=p, c1=c1, c2=c2)
        n1 = predicted_count(lp, 1)
        n2 = predicted_count(lp, 2)
        back = lpoly_from_counts(2, p, n1, n2)
        assert (back.c1, back.c2) == (c1, c2)
        assert weil_check(back)


def test_genus2_roundtrip_remaining_primes_spot():
    rng = np.random.default_rng(11)
    for p in ODD_PRIMES_100:
        pairs = list(_valid_pairs(p))
        for i in rng.choice(len(pairs), size=40):
            c1, c2 = pairs[i]
            lp = LPoly(genus=2, p=p, c1=c1, c2=c2)
            back = lpoly_from_counts(2, p, predicted_count(lp, 1), predicted_count(lp, 2))
            assert (back.c1, back.c2) == (c1, c2)


def test_weil_check_agrees_with_numeric_roots_on_sample():
    rng = np.random.default_rng(23)
    checked = 0
    for p in [5, 13, 31, 61, 97]:
        boxes = list(_pair_box(p))
        for _ in range(300):
            c1, lo, hi = boxes[rng.integers(len(boxes))]
            c2 = int(rng.integers(lo, hi + 1))
            exact = weil_check(LPoly(genus=2, p=p, c1=c1, c2=c2))
            roots = np.roots([p * p, p * c1, c2, c1, 1])
            dev = float(np.abs(np.abs(roots) * math.sqrt(p) - 1).max())
            assert exact == (dev < 1e-4), (p, c1, c2, dev)
            checked += 1
    assert checked == 1500


@pytest.mark.parametrize("p", ODD_PRIMES_100)
def test_genus1_admissible_trace_window(p):
    w = math.isqrt(4 * p)
    valid = [c1 for c1 in range(-w - 3, w + 4)
             if weil_check(LPoly(genus=1, p=p, c1=c1))]
    assert valid == list(range(-w, w + 1))
    for c1 in valid:
        lp = lpoly_from_counts(1, p, p + 1 + c1)
        assert lp.c1 == c1
        assert predicted_count(lp, 1) == p + 1 + c1
    for c1 in (w + 1, -(w + 1)):
        with pytest.raises(LPolyValidationError):
            lpoly_from_counts(1, p, p + 1 + c1)


def test_boundary_exceedance_fails_by_one_unit():
    for p in [5, 17, 97]:
        per_c1 = {}
        for c1, c2 in _valid_pairs(p):
            lo, hi = per_c1.get(c1, (c2, c2))
            per_c1[c1] = (min(lo, c2), max(hi, c2))
        for c1, (lo, hi) in per_c1.items():
            assert not weil_check(LPoly(genus=2, p=p, c1=c1, c2=hi + 1))
            assert not weil_check(LPoly(genus=2, p=p, c1=c1, c2=lo - 1))
        cmax = max(per_c1)
        assert not any(
            weil_check(LPoly(genus=2, p=p, c1=cmax + 1, c2=c2))
            for c2 in range(-3 * p, 3 * p)
        )


def test_frozen_failure_example():
    # c1 = 5 at p = 5 would need |trace| > 2 sqrt(5)
    assert not weil_check(LPoly(genus=1, p=5, c1=5))
    with pytest.raises(LPolyValidationError):
        lpoly_from_counts(1, 5, 11)


def test_parity_mismatch_rejected():
    # p = 3, n1 = 4 gives s1 = 0; n2 = 9 gives odd s1^2 - s2
    with pytest.raises(LPolyValidationError) as info:
        lpoly_from_counts(2, 3, 4, 9)
    assert "odd" in str(info.value)


def test_missing_second_count_rejected():
    with pytest.raises(LPolyValidationError):
        lpoly_from_counts(2, 5, 6)


def test_coefficients_and_trace():
    lp1 = LPoly(genus=1, p=5, c1=3)
    assert lp1.coefficients() == [1, 3, 5]
    # the Frobenius trace a_p = -c1 gives #C(F_p) = p + 1 - a_p
    assert predicted_count(lp1, 1) == 5 + 1 - (-3)
    lp2 = LPoly(genus=2, p=13, c1=1, c2=9)
    assert lp2.coefficients() == [1, 1, 9, 13, 169]
    assert predicted_count(lp2, 1) == 13 + 1 - (-1)


def test_normalize_values():
    nc = normalize(LPoly(genus=1, p=5, c1=3))
    assert nc.a1 == pytest.approx(3 / math.sqrt(5))
    assert nc.a2 is None
    nc2 = normalize(LPoly(genus=2, p=13, c1=1, c2=9))
    assert nc2.a1 == pytest.approx(1 / math.sqrt(13))
    assert nc2.a2 == pytest.approx(9 / 13)


# (n3, n4) frozen from full enumeration over F_{p^3} and F_{p^4} built as
# F_p[t]/(m) for scanned irreducible m; validates the Newton identity chain
EXT_COUNTS = {
    ((1, 1, 0, 1), 3): (4, 16, 28, 64),
    ((1, 1, 0, 1), 5): (9, 27, 108, 675),
    ((1, 0, 0, 1), 5): (6, 36, 126, 576),
    ((1, -1, 0, 0, 0, 1), 3): (7, 15, 19, 83),
    ((1, -1, 0, 0, 0, 1), 5): (11, 31, 101, 651),
    ((1, 1, 0, 0, 0, 0, 3), 5): (6, 26, 126, 726),
}


@pytest.mark.parametrize("key", sorted(EXT_COUNTS))
def test_predicted_counts_match_brute_force_extensions(key):
    (f, p) = key
    n1, n2, n3, n4 = EXT_COUNTS[key]
    genus = 1 if len(f) <= 5 else 2
    lp = lpoly_from_counts(genus, p, n1, n2 if genus == 2 else None)
    got = [predicted_count(lp, n) for n in (1, 2, 3, 4)]
    assert got == [n1, n2, n3, n4]


def test_predicted_count_rejects_out_of_range():
    lp = LPoly(genus=1, p=5, c1=1)
    for n in (0, 5):
        with pytest.raises(ValueError):
            predicted_count(lp, n)


def test_genus1_ext2_count_consistency():
    # the p = 3 supersingular case: c1 = 0 forces n2 at the Weil boundary
    lp = lpoly_from_counts(1, 3, 4)
    assert lp.c1 == 0
    assert predicted_count(lp, 2) == 16
