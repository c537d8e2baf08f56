import tracemalloc
from fractions import Fraction

import pytest

from frobstat.arith import sieve_primes
from frobstat.birch import (
    ap_distribution,
    birch_formula,
    catalan_trend,
    ramanujan_tau,
    tau_of_prime,
)
from frobstat.haar import closed_form_moment

from oracles import ap_distribution_per_a, singular_count


def _slow_distribution(p):
    """Direct double loop over all Weierstrass pairs; counts per trace.

    Independent of ap_distribution: evaluates each curve's point count by
    summing Legendre symbols computed through Euler's criterion.
    """
    def chi(v):
        v %= p
        if v == 0:
            return 0
        return 1 if pow(v, (p - 1) // 2, p) == 1 else -1

    counts = {}
    for a_coef in range(p):
        for b_coef in range(p):
            if (4 * a_coef**3 + 27 * b_coef**2) % p == 0:
                continue
            a = -sum(chi(x**3 + a_coef * x + b_coef) for x in range(p))
            counts[a] = counts.get(a, 0) + 1
    return counts


@pytest.mark.parametrize("p", [5, 7, 11])
def test_distribution_matches_direct_double_loop(p):
    dist = ap_distribution(p)
    assert dist.counts == _slow_distribution(p)
    assert dist.total == p * p - p


@pytest.mark.parametrize("p", [p for p in sieve_primes(200) if p >= 5] + [307])
def test_orbit_tally_matches_per_a_brute_force(p):
    dist = ap_distribution(p)
    oracle = ap_distribution_per_a(p)
    assert dist.counts == oracle.counts
    assert dist.total == oracle.total
    assert list(dist.counts) == sorted(dist.counts)


def test_tally_memory_stays_linear():
    # one p x p int64 temporary alone would be 8 MB at this p; the brute
    # force is out of reach here (about 15 s), so the moment tests below
    # carry p = 1009's exact identities
    p = 1009
    tracemalloc.start()
    try:
        dist = ap_distribution(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert dist.total == p * p - p


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_singular_locus_has_exactly_p_points(p):
    assert singular_count(p) == p


@pytest.mark.parametrize("p", [5, 7, 11, 13, 1009])
def test_even_moment_formulas_reconcile_exactly(p):
    dist = ap_distribution(p)
    for d in (2, 4, 6, 8):
        assert dist.moment(d) == birch_formula(p, d)
    assert dist.moment(10) == birch_formula(p, 10, tau_p=tau_of_prime(p))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 1009])
def test_odd_moments_vanish_and_twists_pair_up(p):
    dist = ap_distribution(p)
    for d in (1, 3, 5, 7, 9):
        assert dist.moment(d) == 0
    # quadratic twisting negates the trace, so the tally is symmetric
    for a, c in dist.counts.items():
        assert dist.counts.get(-a, 0) == c


def test_moment_zero_is_one():
    dist = ap_distribution(5)
    assert dist.moment(0) == 1


def test_distribution_frozen_small_case():
    # p = 5: 20 nonsingular pairs, traces bounded by 4
    dist = ap_distribution(5)
    assert dist.counts == {-4: 1, -3: 2, -2: 3, -1: 2, 0: 4, 1: 2, 2: 3,
                           3: 2, 4: 1}
    assert dist.moment(2) == Fraction(24, 5)
    assert dist.moment(4) == Fraction(234, 5)
    assert dist.moment(10) == Fraction(584874, 5)


def test_rejects_bad_primes():
    for p in (2, 3, 4, 9):
        with pytest.raises(ValueError):
            ap_distribution(p)


def test_formula_rejects_odd_or_uncovered_degrees():
    with pytest.raises(ValueError):
        birch_formula(7, 3)
    with pytest.raises(ValueError):
        birch_formula(7, 12)
    with pytest.raises(ValueError):
        birch_formula(7, 10)  # missing tau


TAU_FIRST_13 = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643,
                -115920, 534612, -370944, -577738]


def test_tau_series_frozen_values():
    assert ramanujan_tau(13) == TAU_FIRST_13
    assert tau_of_prime(11) == 534612
    assert tau_of_prime(13) == -577738
    with pytest.raises(ValueError):
        ramanujan_tau(0)


def test_tau_multiplicativity_spot():
    # tau is multiplicative on coprime arguments: tau(6) = tau(2) tau(3)
    t = ramanujan_tau(15)
    assert t[5] == t[1] * t[2]
    assert t[9] == t[1] * t[4]
    assert t[14] == t[2] * t[4]
    # Hecke recursion at p^2: tau(p^2) = tau(p)^2 - p^11
    assert t[3] == t[1] ** 2 - 2**11
    assert t[8] == t[2] ** 2 - 3**11


def test_normalized_moments_approach_catalan_numbers():
    trend = catalan_trend(range(1, 6), [13, 97])
    rows = trend[2]
    catalan2 = closed_form_moment("catalan", 2)  # 2
    assert abs(rows[97] - catalan2) < Fraction(5, 97)
    assert abs(rows[97] - catalan2) < abs(rows[13] - catalan2)
    for d in (1, 3, 4):
        val = trend[d][97]
        assert abs(val - closed_form_moment("catalan", d)) < Fraction(5, 97)
    # d = 5 converges only like 1/sqrt(p): the tau term contributes
    # tau(97)/97^6, and |tau(p)| can be as large as 2 p^{11/2}
    val = trend[5][97]
    assert abs(val - closed_form_moment("catalan", 5)) < Fraction(1, 4)
