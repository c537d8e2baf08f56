import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobstat.haar import (
    STGroupEntry,
    _entry_moment,
    catalog,
    exact_moment,
    get_entry,
    sample_classes,
    st_axiom_check,
)
from frobstat.laurent import LaurentPoly

from oracles import closed_form_moment, eval_angles, trace_stats

GENUS1 = ["U(1)", "SU(2)", "N(U(1))"]
GENUS2 = ["U(1)_2", "SU(2)_2", "U(1)xU(1)", "U(1)xSU(2)", "SU(2)xSU(2)", "USp(4)"]


def test_closed_form_reference_sequences():
    assert [closed_form_moment("catalan", d) for d in range(7)] == \
        [1, 1, 2, 5, 14, 42, 132]
    assert [closed_form_moment("central_binomial", d) for d in range(5)] == \
        [1, 2, 6, 20, 70]
    assert [closed_form_moment("half_central_binomial", d) for d in range(5)] == \
        [1, 1, 3, 10, 35]
    with pytest.raises(ValueError):
        closed_form_moment("nope", 2)


def test_genus1_even_moments_match_closed_forms():
    for d in range(1, 7):
        assert exact_moment("SU(2)", 2 * d) == closed_form_moment("catalan", d)
    for d in range(1, 7):
        assert exact_moment("U(1)", 2 * d) == closed_form_moment("central_binomial", d)
        assert exact_moment("N(U(1))", 2 * d) == \
            closed_form_moment("half_central_binomial", d)
    # odd moments all vanish
    for gid in GENUS1:
        for d in (1, 3, 5, 7):
            assert exact_moment(gid, d) == 0


def test_normalizer_mass_and_component_average():
    assert get_entry("N(U(1))").point_mass("a1", 0) == Fraction(1, 2)
    assert get_entry("SU(2)").point_mass("a1", 0) == 0
    assert get_entry("U(1)").point_mass("a1", 0) == 0
    # averaging over the two components halves the torus moments
    for d in (2, 4, 6, 8):
        assert exact_moment("N(U(1))", d) == exact_moment("U(1)", d) / 2
    assert exact_moment("N(U(1))", 0) == 1


# -- independent exact reductions for the genus-2 groups -------------------
# with x = 2 cos(theta1) and y = 2 cos(theta2):
#   a1 = x + y, a2 = 2 + x y     (split patterns)
#   a1 = 2 x,   a2 = 2 + x^2     (doubled patterns)
# so every moment reduces to 1-d Haar moments of U(1) or SU(2); USp(4)
# follows by Weyl's formula, E_USp(4)[f] = E_SU(2)xSU(2)[f (x - y)^2 / 2]

def _u1_m(k):
    return Fraction(math.comb(k, k // 2)) if k % 2 == 0 else Fraction(0)


def _su2_m(k):
    return closed_form_moment("catalan", k // 2) if k % 2 == 0 else Fraction(0)


def _product_moment(mx, my, j, k, sx=0, sy=0):
    """E[x^sx y^sy a1^j a2^k] for independent x ~ mx and y ~ my."""
    total = Fraction(0)
    for i in range(j + 1):
        for l in range(k + 1):
            total += (math.comb(j, i) * math.comb(k, l) * 2 ** (k - l)
                      * mx(i + l + sx) * my(j - i + l + sy))
    return total


def _usp4_moment(j, k):
    # (x - y)^2 = x^2 - 2 x y + y^2
    terms = ((1, 2, 0), (-2, 1, 1), (1, 0, 2))
    return sum(c * _product_moment(_su2_m, _su2_m, j, k, sx, sy)
               for c, sx, sy in terms) / 2


def _doubled_moment(m, j, k):
    total = Fraction(0)
    for l in range(k + 1):
        total += math.comb(k, l) * 2 ** (k - l) * m(j + 2 * l)
    return 2**j * total


REDUCTIONS = {
    "U(1)xU(1)": lambda j, k: _product_moment(_u1_m, _u1_m, j, k),
    "U(1)xSU(2)": lambda j, k: _product_moment(_u1_m, _su2_m, j, k),
    "SU(2)xSU(2)": lambda j, k: _product_moment(_su2_m, _su2_m, j, k),
    "U(1)_2": lambda j, k: _doubled_moment(_u1_m, j, k),
    "SU(2)_2": lambda j, k: _doubled_moment(_su2_m, j, k),
    "USp(4)": _usp4_moment,
}


@pytest.mark.parametrize("gid", sorted(REDUCTIONS))
def test_genus2_moments_match_one_dimensional_reduction(gid):
    reduce = REDUCTIONS[gid]
    for d1 in range(13):
        for d2 in range((12 - d1) // 2 + 1):
            assert exact_moment(gid, d1, d2) == reduce(d1, d2), (gid, d1, d2)


# every value below was reproduced within one standard error by a Monte
# Carlo over quaternionic 2x2 Gram-Schmidt matrices (2 * 10^6 samples)
USP4_MOMENTS = {
    (0, 1): 1, (0, 2): 2, (0, 3): 4, (0, 4): 10,
    (2, 0): 1, (2, 1): 2, (2, 2): 5, (2, 3): 14,
    (4, 0): 3, (4, 1): 8, (4, 2): 24,
    (6, 0): 14, (6, 1): 44,
    (8, 0): 84,
}


def test_usp4_moment_table_frozen():
    for (d1, d2), val in USP4_MOMENTS.items():
        assert exact_moment("USp(4)", d1, d2) == val
    for d1 in (1, 3, 5, 7):
        for d2 in range((8 - d1) // 2 + 1):
            assert exact_moment("USp(4)", d1, d2) == 0


def _qmul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _qconj(x):
    return (x[0], -x[1], -x[2], -x[3])


def _quaternion_usp4_traces(n, rng):
    """(a1, a2) samples from Haar USp(4) = U(2, H) built by Gram-Schmidt on
    quaternion Ginibre matrices; no code shared with the sampler under test."""
    def gauss():
        return tuple(rng.standard_normal(n) for _ in range(4))

    def scale(x, s):
        return tuple(u * s for u in x)

    def add(x, y):
        return tuple(u + v for u, v in zip(x, y))

    def sub(x, y):
        return tuple(u - v for u, v in zip(x, y))

    def norm2(x):
        return sum(u * u for u in x)

    g11, g21, g12, g22 = gauss(), gauss(), gauss(), gauss()
    inv1 = 1.0 / np.sqrt(norm2(g11) + norm2(g21))
    v11, v21 = scale(g11, inv1), scale(g21, inv1)
    ip = add(_qmul(_qconj(v11), g12), _qmul(_qconj(v21), g22))
    w12, w22 = sub(g12, _qmul(v11, ip)), sub(g22, _qmul(v21, ip))
    inv2 = 1.0 / np.sqrt(norm2(w12) + norm2(w22))
    v12, v22 = scale(w12, inv2), scale(w22, inv2)
    sq11 = add(_qmul(v11, v11), _qmul(v12, v21))
    sq22 = add(_qmul(v21, v12), _qmul(v22, v22))
    a1 = 2.0 * (v11[0] + v22[0])
    tr_sq = 2.0 * (sq11[0] + sq22[0])
    return a1, (a1 * a1 - tr_sq) / 2.0


def test_usp4_engine_against_quaternion_monte_carlo():
    rng = np.random.default_rng(915)
    a1, a2 = _quaternion_usp4_traces(400_000, rng)
    for d1 in range(9):
        for d2 in range((8 - d1) // 2 + 1):
            if (d1, d2) == (0, 0):
                continue
            vals = a1**d1 * a2**d2
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            exact = float(exact_moment("USp(4)", d1, d2))
            assert abs(vals.mean() - exact) <= 5 * se + 1e-12, (d1, d2)


def test_usp4_fourth_moment_is_strictly_minimal():
    values = {gid: exact_moment(gid, 4, 0) for gid in GENUS2}
    assert values["USp(4)"] == 3
    assert values == {
        "USp(4)": 3, "SU(2)xSU(2)": 10, "U(1)xSU(2)": 20,
        "SU(2)_2": 32, "U(1)xU(1)": 36, "U(1)_2": 96,
    }
    for gid, v in values.items():
        if gid != "USp(4)":
            assert v > 3


def test_second_coefficient_means():
    expected = {
        "USp(4)": 1, "SU(2)xSU(2)": 2, "U(1)xSU(2)": 2,
        "U(1)xU(1)": 2, "SU(2)_2": 3, "U(1)_2": 4,
    }
    for gid, v in expected.items():
        assert exact_moment(gid, 0, 1) == v


def test_catalog_structure():
    entries = catalog()
    assert [e.id for e in entries if e.genus == 1] == GENUS1
    assert sorted(e.id for e in entries if e.genus == 2) == sorted(GENUS2)
    for e in entries:
        assert e.weyl_density.constant_term() == 1
        assert len(e.eigenvalue_pattern) == 2 * e.genus
        # patterns closed under inversion
        neg = sorted(tuple(-x for x in m) for m in e.eigenvalue_pattern)
        assert neg == sorted(e.eigenvalue_pattern)
    with pytest.raises(KeyError):
        get_entry("SO(5)")


def test_end_algebra_strings():
    expected = {
        "USp(4)": "R", "SU(2)xSU(2)": "RxR", "U(1)xSU(2)": "RxC",
        "U(1)xU(1)": "CxC", "SU(2)_2": "M2(R)", "U(1)_2": "M2(C)",
    }
    for gid, alg in expected.items():
        assert get_entry(gid).end_algebra == alg


def test_component_tables_total_52_with_34_over_q():
    rows = [r for e in catalog() if e.genus == 2 for r in e.component_rows]
    assert len(rows) == 52
    assert sum(1 for r in rows if r.q_realizable) == 34
    per_part = {e.id: len(e.component_rows) for e in catalog() if e.genus == 2}
    assert per_part == {
        "U(1)_2": 32, "SU(2)_2": 10, "U(1)xU(1)": 5,
        "U(1)xSU(2)": 2, "SU(2)xSU(2)": 2, "USp(4)": 1,
    }
    assert get_entry("USp(4)").component_rows[0].name == "USp(4)"
    assert get_entry("USp(4)").n_components == 1
    # the maximal component group has order 48, realized inside U(1)_2
    labels = {r.label for r in get_entry("U(1)_2").component_rows}
    assert "J(O)" in {r.name for r in get_entry("U(1)_2").component_rows}
    assert labels  # nonempty aggregation sanity
    assert len(get_entry("U(1)_2").component_rows) == 32


def test_weyl_density_derived_from_laws():
    # each law's density in angle form: U(1) is 1, SU(2) is 2 sin^2 t and
    # USp(4) is 8 sin^2 t1 sin^2 t2 (cos t1 - cos t2)^2, the shapes the
    # samplers draw from
    t1, t2 = np.random.default_rng(0).uniform(0, math.pi, (2, 50))
    one = np.ones_like(t1)
    su2_1, su2_2 = 2 * np.sin(t1) ** 2, 2 * np.sin(t2) ** 2
    expected = {
        "U(1)": one, "SU(2)": su2_1, "N(U(1))": one,
        "U(1)_2": one, "SU(2)_2": su2_1, "U(1)xU(1)": one,
        "U(1)xSU(2)": su2_2, "SU(2)xSU(2)": su2_1 * su2_2,
        "USp(4)": 8 * (np.sin(t1) * np.sin(t2) * (np.cos(t1) - np.cos(t2))) ** 2,
    }
    for e in catalog():
        angles = (t1, t2)[: e.torus_rank]
        np.testing.assert_allclose(
            eval_angles(e.weyl_density, *angles), expected[e.id], atol=1e-12,
            err_msg=e.id)
    split = ((1, 0), (-1, 0), (0, 1), (0, -1))
    with pytest.raises(ValueError):
        STGroupEntry("bad", 2, split, ("su2",))
    with pytest.raises(ValueError):
        STGroupEntry("bad", 2, split, ("u1", "u1"), coset_a1=(0,))


def test_axioms_pass_for_all_catalog_entries():
    for e in catalog():
        report = st_axiom_check(e)
        assert report.ok, (e.id, report.failures)
        assert report.group_id == e.id
        assert any("ST2" in note for note in report.unverified)


def _synthetic(pattern, density, genus=1):
    return STGroupEntry(
        id="synthetic",
        genus=genus,
        eigenvalue_pattern=pattern,
        laws=("u1",),
        weyl_density=density,
    )


def test_axioms_flag_unclosed_pattern():
    entry = _synthetic(((1,), (2,)), LaurentPoly.constant(1, 1))
    report = st_axiom_check(entry)
    assert not report.ok
    assert any("inversion" in f for f in report.failures)


def test_axioms_flag_wrong_normalization():
    entry = _synthetic(_pair(), LaurentPoly.constant(1, 2))
    report = st_axiom_check(entry)
    assert any("constant term" in f for f in report.failures)


def test_axioms_flag_missing_weight_cocharacter():
    # doubled exponents: no substitution z -> w^m yields weights (+1, -1)
    entry = _synthetic(((2,), (-2,)), LaurentPoly.constant(1, 1))
    report = st_axiom_check(entry)
    assert any(f.startswith("ST2") for f in report.failures)


def test_axioms_flag_nonintegral_moments():
    dens = (LaurentPoly.constant(1, 1)
            + LaurentPoly.monomial((1,), Fraction(1, 3))
            + LaurentPoly.monomial((-1,), Fraction(1, 3)))
    entry = _synthetic(_pair(), dens)
    report = st_axiom_check(entry, max_weight=4)
    assert any(f.startswith("ST3") for f in report.failures)


def _pair():
    return ((1,), (-1,))


@st.composite
def _synthetic_orders(draw):
    """A synthetic entry with a random 1- or 2-variable pattern, a random
    rational density and (genus 1) random coset classes, plus (d1, d2)."""
    rank, genus = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    exps = st.tuples(*[st.integers(-2, 2)] * rank)
    pattern = tuple(draw(st.lists(exps, min_size=2 * genus, max_size=2 * genus)))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    density = LaurentPoly(rank, draw(st.dictionaries(
        st.tuples(*[st.integers(-4, 4)] * rank), coeffs, max_size=6)))
    coset_a1 = tuple(draw(st.lists(st.integers(-2, 2), max_size=3))) if genus == 1 else ()
    entry = STGroupEntry("synthetic", genus, pattern, ("u1",) * rank,
                         coset_a1=coset_a1, weyl_density=density)
    d1 = draw(st.integers(0, 4))
    d2 = draw(st.integers(0, 2)) if genus == 2 else 0
    return entry, d1, d2


@given(case=_synthetic_orders())
@settings(max_examples=150, deadline=None)
def test_entry_moment_pairs_density_with_integrand(case):
    entry, d1, d2 = case
    rank, pattern = entry.torus_rank, entry.eigenvalue_pattern
    e1, e2 = LaurentPoly.zero(rank), LaurentPoly.zero(rank)
    for m in pattern:
        e1 = e1 + LaurentPoly.monomial(m)
    for m, n in combinations(pattern, 2):
        e2 = e2 + LaurentPoly.monomial(tuple(a + b for a, b in zip(m, n)))
    integrand = e1**d1 * e2**d2
    assert all(type(c) is int for c in integrand.terms.values())
    torus = (integrand * entry.weyl_density).constant_term()
    cosets = sum(Fraction(a) ** d1 for a in entry.coset_a1)
    moment = _entry_moment(entry, d1, d2)
    assert type(moment) is Fraction
    assert moment == Fraction(torus + cosets) / entry.n_components


# -- samplers ---------------------------------------------------------------

def test_samplers_are_deterministic_given_seed():
    for gid in GENUS1 + GENUS2:
        a = sample_classes(gid, 500, seed=42)
        b = sample_classes(gid, 500, seed=42)
        assert np.array_equal(a, b)
        c = sample_classes(gid, 500, seed=43)
        assert not np.array_equal(a, c)


def test_sample_shapes_and_ranges():
    for gid in GENUS1:
        s = sample_classes(gid, 1000, seed=1)
        assert s.shape == (1000, 1)
    for gid in GENUS2:
        s = sample_classes(gid, 1000, seed=1)
        assert s.shape == (1000, 2)
        assert np.all((s >= 0) & (s <= math.pi))
    single = sample_classes("SU(2)", 1, seed=9)[0]
    assert single.shape == (1,)


def test_trace_stats_formulas():
    angles = np.array([[0.0, math.pi]])
    a1, a2 = trace_stats(2, angles)
    # eigenvalues 1, 1, -1, -1: a1 = 0, a2 = e2 = -2... plus the pairs
    assert a1[0] == pytest.approx(0.0)
    assert a2[0] == pytest.approx(2 + 4 * math.cos(0.0) * math.cos(math.pi))
    g1 = trace_stats(1, np.array([[math.pi / 3]]))
    assert g1[0][0] == pytest.approx(2 * math.cos(math.pi / 3))


def test_normalizer_sampler_reflects_half_the_time():
    # reflection classes sit at eigenangle pi/2, so a1 = 2 cos(pi/2) is zero
    # only up to float rounding; exact zero masses belong to the integer
    # record pipeline, not the sampler
    s = sample_classes("N(U(1))", 200_000, seed=5)
    a1 = trace_stats(1, s)[0]
    frac_zero = float(np.mean(np.abs(a1) < 1e-12))
    assert abs(frac_zero - 0.5) < 0.01


def test_doubled_rank_one_groups_sample_equal_angles():
    for gid in ("U(1)_2", "SU(2)_2"):
        s = sample_classes(gid, 100, seed=3)
        assert np.array_equal(s[:, 0], s[:, 1])


def test_sampler_rejects_unknown_group():
    with pytest.raises(KeyError):
        sample_classes("Sp(6)", 10, seed=0)
