import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobstat import arith
from frobstat.arith import (
    character_table,
    is_prime,
    poly_derivative,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_powmod,
    poly_sub,
    poly_trim,
    poly_xgcd,
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
    return poly_trim([c % p for c in coeffs])


def test_powmod_frozen_example():
    # x^5 mod (x^3 - 2) over F_5: x^5 = x^2 * x^3 = 2x^2
    f = _poly(5, [-2, 0, 0, 1])
    x = _poly(5, [0, 1])
    assert poly_powmod(x, 5, f, 5) == [0, 0, 2]


def test_gcd_frozen_example():
    # gcd(x^2 - 1, x - 1) = x - 1 over F_7
    a = _poly(7, [-1, 0, 1])
    b = _poly(7, [-1, 1])
    g = poly_gcd(a, b, 7)
    assert g == [6, 1]


coeff_lists = st.lists(st.integers(-20, 20), min_size=0, max_size=6)


@given(p=st.sampled_from(SMALL_PRIMES), a=coeff_lists, b=coeff_lists, c=coeff_lists)
@settings(max_examples=150, deadline=None)
def test_poly_ring_axioms(p, a, b, c):
    A, B, C = _poly(p, a), _poly(p, b), _poly(p, c)
    # the package's addition agrees with the oracle's
    assert arith.poly_add(A, B, p) == poly_add(A, B, p)
    assert poly_add(A, B, p) == poly_add(B, A, p)
    assert poly_mul(A, B, p) == poly_mul(B, A, p)
    assert poly_mul(A, poly_add(B, C, p), p) == poly_add(
        poly_mul(A, B, p), poly_mul(A, C, p), p
    )
    assert poly_sub(poly_add(A, B, p), B, p) == A


@given(p=st.sampled_from(SMALL_PRIMES), a=coeff_lists, f=coeff_lists)
@settings(max_examples=150, deadline=None)
def test_divmod_reconstructs(p, a, f):
    A, F = _poly(p, a), _poly(p, f)
    if not F:
        return
    q, r = poly_divmod(A, F, p)
    assert poly_add(poly_mul(q, F, p), r, p) == A
    assert not r or len(r) < len(F)
    # A - r is a multiple of F, with the same quotient
    assert poly_divmod(poly_sub(A, r, p), F, p) == (q, [])


@given(p=st.sampled_from(SMALL_PRIMES), a=coeff_lists, b=coeff_lists)
@settings(max_examples=150, deadline=None)
def test_gcd_divides_both_and_is_monic(p, a, b):
    A, B = _poly(p, a), _poly(p, b)
    g = poly_gcd(A, B, p)
    if not g:
        assert not A and not B
        return
    assert g[-1] == 1
    assert not poly_divmod(A, g, p)[1]
    assert not poly_divmod(B, g, p)[1]


@given(p=st.sampled_from(SMALL_PRIMES), base=coeff_lists, f=coeff_lists,
       e=st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_powmod_matches_repeated_multiplication(p, base, f, e):
    B, F = _poly(p, base), _poly(p, f)
    if len(F) < 2:
        return
    acc = _poly(p, [1])
    for _ in range(e):
        acc = poly_divmod(poly_mul(acc, B, p), F, p)[1]
    assert poly_powmod(B, e, F, p) == acc


@given(p=st.sampled_from(SMALL_PRIMES), a=coeff_lists, b=coeff_lists)
@settings(max_examples=150, deadline=None)
def test_derivative_product_rule(p, a, b):
    A, B = _poly(p, a), _poly(p, b)
    lhs = poly_derivative(poly_mul(A, B, p), p)
    rhs = poly_add(
        poly_mul(poly_derivative(A, p), B, p), poly_mul(A, poly_derivative(B, p), p), p
    )
    assert lhs == rhs


@given(p=st.sampled_from(SMALL_PRIMES + [10007]), a=coeff_lists, b=coeff_lists)
@settings(max_examples=150, deadline=None)
def test_xgcd_is_the_gcd_with_bezout_cofactors(p, a, b):
    A, B = _poly(p, a), _poly(p, b)
    g, s, t = poly_xgcd(A, B, p)
    assert g == poly_gcd(A, B, p)
    assert poly_add(poly_mul(s, A, p), poly_mul(t, B, p), p) == g


def _is_layer_list(a, p):
    return type(a) is list and all(0 <= c < p for c in a) and (not a or a[-1] != 0)


@given(p=st.sampled_from(SMALL_PRIMES + [10007]),
       a=st.lists(st.integers(-(10**6), 10**6), max_size=7),
       b=st.lists(st.integers(-(10**6), 10**6), max_size=7),
       e=st.integers(0, 30))
@settings(max_examples=200, deadline=None)
def test_layer_functions_return_trimmed_residue_lists(p, a, b, e):
    # the list form carries no type: every function must hand back residues
    # in [0, p) with no trailing zeros, and leave its arguments alone
    A, B = _poly(p, a), _poly(p, b)
    a_copy, b_copy = list(A), list(B)
    outs = [arith.poly_add(A, B, p), poly_sub(A, B, p), poly_mul(A, B, p),
            poly_gcd(A, B, p), *poly_xgcd(A, B, p), poly_derivative(A, p)]
    if B:
        outs.extend(poly_divmod(A, B, p))
        outs.append(poly_powmod(A, e, B, p))
    for out in outs:
        assert _is_layer_list(out, p), out
    assert (A, B) == (a_copy, b_copy)


def test_poly_trim_strips_leading_zeros():
    assert poly_trim([1, 2, 0, 0]) == [1, 2]
    assert poly_trim([0, 0]) == []
    assert poly_trim([]) == []
