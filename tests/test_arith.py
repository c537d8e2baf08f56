import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobstat import arith
from frobstat.arith import (
    character_table,
    is_prime,
    poly_divmod,
    poly_mul,
    poly_sub,
    poly_trim,
    poly_xgcd,
    prime_blocks,
    reduce_mod,
    sieve_primes,
)

from oracles import (
    chi2_direct,
    fp2_mul,
    legendre,
    poly_add,
    poly_derivative,
    poly_gcd,
    poly_powmod,
    smallest_nonresidue,
)

SMALL_PRIMES = [3, 5, 7, 11, 13]


def test_sieve_matches_trial_division():
    assert sieve_primes(100) == [n for n in range(2, 101) if is_prime(n)]
    assert sieve_primes(2) == [2]
    assert sieve_primes(1) == []


def test_sieve_inclusive_endpoint():
    assert sieve_primes(13)[-1] == 13
    assert len(sieve_primes(100)) == 25
    assert len(sieve_primes(8192)) == 1028


def _plain_sieve(n):
    mark = [True] * (n + 1)
    for q in range(2, n + 1):
        for m in range(q * q, n + 1, q):
            mark[m] = False
    return [q for q in range(2, n + 1) if mark[q]]


@pytest.mark.parametrize("window", [16, 1000, 2**15])
def test_sieve_windows_match_a_plain_sieve(monkeypatch, window):
    # small windows put many window edges, and primes on them, below n
    monkeypatch.setattr(arith, "_WINDOW", window)
    for n in (0, 1, 2, 3, 4, 15, 16, 17, 120, 121, 1000, 1009, 70000):
        assert sieve_primes(n) == _plain_sieve(n), (window, n)


@pytest.mark.parametrize("size", [1, 7, 2048, 10**6])
def test_prime_blocks_hand_out_every_prime_once(size):
    for n in (1, 2, 100, 2**15 + 3, 10**5):
        blocks = list(prime_blocks(n, size))
        assert [q for b in blocks for q in b] == sieve_primes(n)
        assert all(len(b) == size for b in blocks[:-1])
        assert all(0 < len(b) <= size for b in blocks)


@pytest.mark.parametrize("size", [7, 511, 512, 4000])
def test_reduce_mod_matches_remainder_in_place(size):
    # both sides of the 512-element switch between a % p and a - (a // p) * p
    p = 3037000493
    edges = [0, 1, p - 1, p, p + 1, (p - 1) ** 2 + p - 1, 2**63 - 1]
    a = np.resize(np.array(edges, dtype=np.int64), size)
    a[len(edges):] = np.random.default_rng(size).integers(0, 2**63 - 1, size - len(edges))
    want = a % p
    assert reduce_mod(a, p) is a
    assert (a == want).all()


def test_character_table_basic_values():
    chi = character_table(7)
    # squares mod 7 are 1, 2, 4
    assert chi.dtype == np.int64
    assert chi.tolist() == [0, 1, 1, -1, 1, -1, -1]


def test_character_table_rejects_bad_modulus():
    # primality is tested by the callers: count_points(curve, 9) and
    # ap_distribution(9) refuse composites before any table is built
    for n in (2, 1):
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
