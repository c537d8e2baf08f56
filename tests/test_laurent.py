import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobstat.laurent import LaurentPoly

from oracles import eval_angles


def _poly(nvars, entries):
    acc = LaurentPoly.zero(nvars)
    for exps, num, den in entries:
        acc = acc + LaurentPoly.monomial(exps, Fraction(num, den))
    return acc


entry1 = st.tuples(
    st.tuples(st.integers(-4, 4)),
    st.integers(-9, 9),
    st.integers(1, 5),
)
entry2 = st.tuples(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-9, 9),
    st.integers(1, 5),
)
poly1 = st.lists(entry1, max_size=5).map(lambda e: _poly(1, e))
poly2 = st.lists(entry2, max_size=5).map(lambda e: _poly(2, e))


@given(a=poly1, b=poly1, c=poly1)
@settings(max_examples=120, deadline=None)
def test_ring_axioms_one_variable(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero(1) == a
    assert a * LaurentPoly.constant(1, Fraction(1)) == a


@given(a=poly2, b=poly2, c=poly2)
@settings(max_examples=80, deadline=None)
def test_ring_axioms_two_variables(a, b, c):
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly.zero(2)


@given(a=poly1, k=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_power_matches_repeated_multiplication(a, k):
    expected = LaurentPoly.constant(1, Fraction(1))
    for _ in range(k):
        expected = expected * a
    assert a**k == expected


@given(a=poly1, b=poly1)
@settings(max_examples=80, deadline=None)
def test_constant_term_is_linear(a, b):
    assert (a + b).constant_term() == a.constant_term() + b.constant_term()


def test_constant_term_extracts_exponent_zero():
    z = LaurentPoly.monomial((1,), Fraction(1))
    zi = LaurentPoly.monomial((-1,), Fraction(1))
    p = (z + zi) ** 4
    # (z + 1/z)^4 has central binomial coefficient 6 in the middle
    assert p.constant_term() == 6
    assert ((z + zi) ** 5).constant_term() == 0


def test_mixed_arity_rejected():
    a = LaurentPoly.monomial((1,), Fraction(1))
    b = LaurentPoly.monomial((1, 0), Fraction(1))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def _trapezoid_ct(poly, m=128):
    """Average of the evaluated polynomial over the torus; exact for trig
    polynomials of bandwidth below m."""
    if poly.nvars == 1:
        th = np.linspace(0.0, 2 * math.pi, m, endpoint=False)
        vals = eval_angles(poly, th)
        return float(np.mean(vals))
    th = np.linspace(0.0, 2 * math.pi, m, endpoint=False)
    t1, t2 = np.meshgrid(th, th, indexing="ij")
    return float(np.mean(eval_angles(poly, t1, t2)))


@given(a=poly1)
@settings(max_examples=50, deadline=None)
def test_constant_term_is_torus_average_one_var(a):
    assert _trapezoid_ct(a) == pytest.approx(float(a.constant_term()), abs=1e-9)


@given(a=poly2)
@settings(max_examples=25, deadline=None)
def test_constant_term_is_torus_average_two_vars(a):
    assert _trapezoid_ct(a, m=32) == pytest.approx(float(a.constant_term()), abs=1e-9)


def _symmetrize(a):
    """a(z) + a(1/z): inversion-symmetric, hence real-valued on the torus."""
    flipped = LaurentPoly.zero(a.nvars)
    for exps, c in a.terms.items():
        flipped = flipped + LaurentPoly.monomial(tuple(-e for e in exps), c)
    return a + flipped


@given(a=poly1, b=poly1)
@settings(max_examples=40, deadline=None)
def test_symmetric_products_evaluate_multiplicatively(a, b):
    sa, sb = _symmetrize(a), _symmetrize(b)
    th = np.linspace(0.3, 5.9, 7)
    va = eval_angles(sa, th)
    vb = eval_angles(sb, th)
    vab = eval_angles(sa * sb, th)
    assert np.allclose(vab, va * vb, atol=1e-9)


def test_eval_angles_cosine_convention():
    z = LaurentPoly.monomial((1,), Fraction(1))
    th = np.array([0.0, math.pi / 3, math.pi])
    assert np.allclose(eval_angles(z, th), np.cos(th))
    two_cos = z + LaurentPoly.monomial((-1,), Fraction(1))
    assert np.allclose(eval_angles(two_cos, th), 2 * np.cos(th))


def test_terms_mapping_is_fraction_valued():
    p = _poly(1, [((2,), 1, 2), ((-1,), 3, 1), ((0,), 1, 1)])
    ts = p.terms
    assert ts == {(2,): Fraction(1, 2), (-1,): Fraction(3), (0,): Fraction(1)}
    assert all(isinstance(c, Fraction) for c in ts.values())
    assert p.constant_term() == 1
    # zero coefficients are dropped on construction
    q = p + LaurentPoly.monomial((2,), Fraction(-1, 2))
    assert (2,) not in q.terms


def test_zero_detection():
    assert len(LaurentPoly.zero(2)) == 0
    z = LaurentPoly.monomial((1,), Fraction(1))
    assert len(z) == 1
    assert len(z - z) == 0
