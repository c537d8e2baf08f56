import json
import math
from fractions import Fraction

import pytest

from frobstat.haar import catalog, exact_moment, get_entry
from frobstat.stats import (
    TRACKED_MASSES,
    TRACKED_ORDERS,
    DensityStat,
    MomentStat,
    MomentTable,
    ScanRecord,
    classify,
    empirical_density,
    empirical_moments,
    histogram,
    moment_orders,
    records_density_map,
    z_scores,
)


def _rec1(p, c1):
    return ScanRecord(p=p, n1=p + 1 + c1, c1=c1, a1bar=c1 / math.sqrt(p))


def _rec2(p, c1, c2):
    # n2 consistent with (c1, c2) via s2 = c1^2 - 2 c2
    n1 = p + 1 + c1
    n2 = p * p + 1 - (c1 * c1 - 2 * c2)
    return ScanRecord(p=p, n1=n1, c1=c1, a1bar=c1 / math.sqrt(p),
                      n2=n2, c2=c2, a2bar=c2 / p)


def test_single_record_moments_exact():
    table = empirical_moments([_rec1(5, 3)], dmax=4)
    assert table.genus == 1
    assert table.entries[(2, 0)].value == pytest.approx(9 / 5, rel=1e-12)
    assert table.entries[(4, 0)].value == pytest.approx(81 / 25, rel=1e-12)
    assert table.entries[(1, 0)].n == 1
    assert table.entries[(1, 0)].stderr == 0.0


def test_two_record_stderr_hand_computed():
    # values v and -v: mean 0, sample sd |v| sqrt(2), stderr |v|
    table = empirical_moments([_rec1(5, 3), _rec1(5, -3)], dmax=2)
    v = 3 / math.sqrt(5)
    m = table.entries[(1, 0)]
    assert m.value == pytest.approx(0.0, abs=1e-15)
    assert m.stderr == pytest.approx(v, rel=1e-12)


def test_genus2_mixed_moment():
    table = empirical_moments([_rec2(5, 3, 10)], dmax=4)
    assert table.genus == 2
    assert table.entries[(0, 1)].value == pytest.approx(2.0)
    assert table.entries[(0, 2)].value == pytest.approx(4.0)
    assert table.entries[(1, 1)].value == pytest.approx(6 / math.sqrt(5), rel=1e-12)


def test_moment_orders_weight_rule():
    g1 = moment_orders(1, 8)
    assert g1 == [(d, 0) for d in range(1, 9)]
    g2 = moment_orders(2, 8)
    assert (0, 4) in g2 and (8, 0) in g2 and (2, 3) in g2
    assert all(d1 + 2 * d2 <= 8 for d1, d2 in g2)
    assert (0, 0) not in g2
    assert len(g2) == len(set(g2))


def test_empty_and_mixed_genus_rejected():
    with pytest.raises(ValueError):
        empirical_moments([])
    with pytest.raises(ValueError):
        empirical_moments([_rec1(5, 1), _rec2(7, 1, 2)])


def test_density_counts_exact_integers():
    recs = [_rec1(5, 0), _rec1(7, 3), _rec1(11, 0), _rec1(13, -4)]
    d = empirical_density(recs, "a1", 0)
    assert (d.hits, d.n) == (2, 4)
    assert d.frequency == Fraction(1, 2)
    # nonzero rational values are unreachable for a1
    assert empirical_density(recs, "a1", Fraction(1, 2)).hits == 0


def test_density_a2_matches_rational_test():
    recs = [_rec2(5, 0, 10), _rec2(7, 1, 14), _rec2(11, 0, 3)]
    d = empirical_density(recs, "a2", 2)
    assert d.hits == 2  # c2 = 2p at p = 5 and p = 7
    assert empirical_density(recs, "a2", Fraction(3, 11)).hits == 1
    with pytest.raises(ValueError):
        empirical_density([_rec1(5, 0)], "a2", 0)
    with pytest.raises(ValueError):
        empirical_density(recs, "curvature", 0)


def test_histogram_counts_and_clamping():
    h = histogram([0.1, 0.9, 1.5, 2.5, -3.0], bins=2, lo=0.0, hi=2.0)
    assert [r.count for r in h.rows] == [3, 2]
    assert h.clamped == 2  # -3.0 and 2.5 fall outside
    assert h.n == 5
    widths = [r.right - r.left for r in h.rows]
    assert all(w == pytest.approx(1.0) for w in widths)
    assert sum(r.count for r in h.rows) == h.n
    assert sum(r.density * (r.right - r.left) for r in h.rows) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        histogram([1.0], bins=0, lo=0, hi=1)
    with pytest.raises(ValueError):
        histogram([1.0], bins=4, lo=1, hi=1)
    # infinite or NaN edges, or a width past the float range either way,
    # would print nan and inf edges or densities
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (-1e308, 1e308),
                   (0.0, 1e-310)):
        with pytest.raises(ValueError):
            histogram([1.0], bins=4, lo=lo, hi=hi)


def _theoretical_table(gid, genus):
    table = MomentTable(genus=genus)
    for order in TRACKED_ORDERS[genus]:
        table.entries[order] = MomentStat(
            value=float(exact_moment(gid, order[0], order[1])), stderr=1e-6, n=10**6
        )
    return table


def _theoretical_densities(gid, genus, n=10**6):
    out = {}
    for stat, v in TRACKED_MASSES[genus]:
        mass = get_entry(gid).point_mass(stat, v)
        hits = int(mass * n)
        out[(stat, v)] = DensityStat(statistic=stat, value=v, hits=hits, n=n)
    return out


@pytest.mark.parametrize("gid,genus", [(e.id, e.genus) for e in catalog()])
def test_classifier_recovers_each_group_from_its_own_moments(gid, genus):
    table = _theoretical_table(gid, genus)
    densities = _theoretical_densities(gid, genus)
    ranked = classify(table, densities)
    assert ranked[0][0] == gid
    assert ranked[0][1] == pytest.approx(0.0, abs=1e-9)
    # scores ascend and cover exactly the same-genus catalog
    scores = [s for _, s in ranked]
    assert scores == sorted(scores)
    assert {g for g, _ in ranked} == {e.id for e in catalog() if e.genus == genus}


def test_classifier_deterministic_tie_break():
    table = MomentTable(genus=1)
    # no tracked orders populated: all scores identical, order is by id
    ranked = classify(table, {})
    assert [g for g, _ in ranked] == sorted(g for g, _ in ranked)


def _noisy_records(genus):
    # a spread of consistent records, so every term has a nonzero stderr
    if genus == 1:
        return [_rec1(p, c1) for p, c1 in [(5, 0), (7, -2), (11, 3), (13, 0), (17, 5)]]
    return [_rec2(p, c1, c2) for p, c1, c2 in
            [(5, 0, 10), (7, 1, -3), (11, -2, 0), (13, 0, 13), (17, 4, 9)]]


@pytest.mark.parametrize("genus", [1, 2])
def test_classify_score_is_the_sum_of_squared_z_scores(genus):
    recs = _noisy_records(genus)
    table = empirical_moments(recs)
    densities = records_density_map(recs)
    terms = z_scores(table, densities)
    scores = dict(classify(table, densities))
    assert list(terms) == [e.id for e in catalog() if e.genus == genus]
    for gid, group_terms in terms.items():
        assert [t for t, _ in group_terms] == (
            [f"M[{d1},{d2}]" for d1, d2 in TRACKED_ORDERS[genus]]
            + [f"mass {stat}={v}" for stat, v in sorted(TRACKED_MASSES[genus])]
        )
        score = 0.0
        for _, z in group_terms:
            score += z * z
        assert score == scores[gid]
        m2 = table.entries[(2, 0)]
        assert dict(group_terms)["M[2,0]"] == (
            (m2.value - float(exact_moment(gid, 2, 0))) / max(m2.stderr, 1e-3)
        )


def test_records_density_map_covers_tracked_values():
    recs = [_rec2(5, 0, 10), _rec2(7, 1, 14)]
    dmap = records_density_map(recs)
    assert set(dmap) == set(TRACKED_MASSES[2])
    assert dmap[("a2", Fraction(2))].hits == 2


def test_json_roundtrip_and_key_order():
    r2 = _rec2(13, 1, 9)
    d = r2.to_json_dict()
    assert list(d) == ["p", "n1", "n2", "c1", "c2", "a1bar", "a2bar"]
    assert ScanRecord.from_json_dict(json.loads(json.dumps(d))) == r2
    r1 = _rec1(7, -2)
    d1 = r1.to_json_dict()
    assert list(d1) == ["p", "n1", "c1", "a1bar"]
    assert ScanRecord.from_json_dict(d1) == r1
    assert r1.genus == 1 and r2.genus == 2
