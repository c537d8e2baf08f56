import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobstat.arith import (
    PolyModP,
    character_table,
    is_prime,
    poly_derivative,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_powmod,
    poly_rem,
    poly_sub,
    poly_trim,
    sieve_primes,
)

from oracles import chi2_direct, fp2_mul, legendre, poly_add, smallest_nonresidue

SMALL_PRIMES = [3, 5, 7, 11, 13]


def test_sieve_matches_trial_division():
    assert sieve_primes(100) == [n for n in range(2, 101) if is_prime(n)]
    assert sieve_primes(2) == [2]
    assert sieve_primes(1) == []


def test_sieve_inclusive_endpoint():
    assert sieve_primes(13)[-1] == 13
    assert len(sieve_primes(100)) == 25
    assert len(sieve_primes(8192)) == 1028


def test_character_table_basic_values():
    chi = character_table(7)
    # squares mod 7 are 1, 2, 4
    assert chi.dtype == np.int64
    assert chi.tolist() == [0, 1, 1, -1, 1, -1, -1]


def test_character_table_rejects_bad_modulus():
    for n in (2, 9, 15, 1):
        with pytest.raises(ValueError):
            character_table(n)


def test_character_table_matches_euler_criterion():
    for p in sieve_primes(1000)[1:] + [10007, 65537]:
        chi = character_table(p)
        assert chi.tolist() == [legendre(p, a) for a in range(p)], p


@pytest.mark.parametrize("p", sieve_primes(100)[1:])
def test_character_is_multiplicative(p):
    chi = character_table(p)
    a = np.arange(p)
    assert (chi[np.outer(a, a) % p] == np.outer(chi, chi)).all()
    assert chi.sum() == 0
    assert chi[0] == 0


@pytest.mark.parametrize("p", sieve_primes(100)[1:])
def test_nonresidue_is_smallest(p):
    chi = character_table(p)
    d = smallest_nonresidue(p)
    assert chi[d] == -1
    assert all(chi[a] == 1 for a in range(1, d))


def _norm(p, d, x):
    # the norm of a + b*t down to F_p, as the F_{p^2} count evaluates it
    a, b = x
    return (a * a - d * b * b) % p


@pytest.mark.parametrize("p", sieve_primes(50)[1:])
def test_fp2_character_matches_direct_power(p):
    # chi(Norm(x)) must agree with x^((p^2-1)/2) computed in the field,
    # for every element of F_{p^2} = F_p[t]/(t^2 - d)
    chi = character_table(p)
    d = smallest_nonresidue(p)
    for a in range(p):
        for b in range(p):
            assert chi[_norm(p, d, (a, b))] == chi2_direct(p, d, (a, b))


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_fp2_norm_is_multiplicative(p):
    d = smallest_nonresidue(p)
    elems = [(a, b) for a in range(p) for b in range(p)]
    for x in elems[:40]:
        for y in elems[:40]:
            assert _norm(p, d, fp2_mul(p, d, x, y)) == _norm(p, d, x) * _norm(p, d, y) % p
    # norm restricted to the base field is squaring
    for a in range(p):
        assert _norm(p, d, (a, 0)) == a * a % p


def test_fp2_modulus_is_a_nonresidue():
    # t^2 - d has no root in F_p, so F_p[t]/(t^2 - d) is a field
    for p in SMALL_PRIMES:
        d = smallest_nonresidue(p)
        assert all(a * a % p != d for a in range(p))


def _poly(p, coeffs):
    return PolyModP.make(p, coeffs)


def test_powmod_frozen_example():
    # x^5 mod (x^3 - 2) over F_5: x^5 = x^2 * x^3 = 2x^2
    f = _poly(5, [-2, 0, 0, 1])
    x = _poly(5, [0, 1])
    assert poly_powmod(x, 5, f).coeffs == (0, 0, 2)


def test_gcd_frozen_example():
    # gcd(x^2 - 1, x - 1) = x - 1 over F_7
    a = _poly(7, [-1, 0, 1])
    b = _poly(7, [-1, 1])
    g = poly_gcd(a, b)
    assert g.coeffs == (6, 1)


coeff_lists = st.lists(st.integers(-20, 20), min_size=0, max_size=6)


@given(p=st.sampled_from(SMALL_PRIMES), a=coeff_lists, b=coeff_lists, c=coeff_lists)
@settings(max_examples=150, deadline=None)
def test_poly_ring_axioms(p, a, b, c):
    A, B, C = _poly(p, a), _poly(p, b), _poly(p, c)
    assert poly_add(A, B) == poly_add(B, A)
    assert poly_mul(A, B) == poly_mul(B, A)
    assert poly_mul(A, poly_add(B, C)) == poly_add(poly_mul(A, B), poly_mul(A, C))
    assert poly_sub(poly_add(A, B), B) == A


@given(p=st.sampled_from(SMALL_PRIMES), a=coeff_lists, f=coeff_lists)
@settings(max_examples=150, deadline=None)
def test_divmod_reconstructs(p, a, f):
    A, F = _poly(p, a), _poly(p, f)
    if F.is_zero():
        return
    q, r = poly_divmod(A, F)
    assert poly_add(poly_mul(q, F), r) == A
    assert r.is_zero() or r.degree < F.degree
    assert poly_rem(A, F) == r


@given(p=st.sampled_from(SMALL_PRIMES), a=coeff_lists, b=coeff_lists)
@settings(max_examples=150, deadline=None)
def test_gcd_divides_both_and_is_monic(p, a, b):
    A, B = _poly(p, a), _poly(p, b)
    g = poly_gcd(A, B)
    if g.is_zero():
        assert A.is_zero() and B.is_zero()
        return
    assert g.coeffs[-1] == 1
    assert poly_rem(A, g).is_zero()
    assert poly_rem(B, g).is_zero()


@given(p=st.sampled_from(SMALL_PRIMES), base=coeff_lists, f=coeff_lists,
       e=st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_powmod_matches_repeated_multiplication(p, base, f, e):
    B, F = _poly(p, base), _poly(p, f)
    if F.degree < 1:
        return
    acc = _poly(p, [1])
    for _ in range(e):
        acc = poly_rem(poly_mul(acc, B), F)
    assert poly_powmod(B, e, F) == acc


@given(p=st.sampled_from(SMALL_PRIMES), a=coeff_lists, b=coeff_lists)
@settings(max_examples=150, deadline=None)
def test_derivative_product_rule(p, a, b):
    A, B = _poly(p, a), _poly(p, b)
    lhs = poly_derivative(poly_mul(A, B))
    rhs = poly_add(poly_mul(poly_derivative(A), B), poly_mul(A, poly_derivative(B)))
    assert lhs == rhs


def test_poly_trim_strips_leading_zeros():
    assert poly_trim([1, 2, 0, 0]) == [1, 2]
    assert poly_trim([0, 0]) == []
    assert poly_trim([]) == []
