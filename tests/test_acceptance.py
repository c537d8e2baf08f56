"""End-to-end acceptance checks.

One test per shipped guarantee, each printing a single summary line
(visible under pytest -s; assertions carry the actual tolerances).
The expensive scans come from the session fixtures in conftest.py.
"""

import io
import math
import os
import time
from fractions import Fraction
from math import isqrt

import numpy as np

from frobstat.arith import character_table, sieve_primes
from frobstat.birch import ap_distribution, birch_formula, tau_of_prime
from frobstat.chebotarev import chebotarev_scan, parse_cycles
from frobstat.counting import make_curve
from frobstat.haar import (
    catalog,
    exact_moment,
    get_entry,
    sample_classes,
    st_axiom_check,
)
from frobstat.lpoly import LPoly, lpoly_from_counts, predicted_count, weil_check
from frobstat.scan import scan_curve, write_records
from frobstat.stats import (
    classify,
    empirical_density,
    empirical_moments,
    moment_orders,
    records_density_map,
)

from oracles import chi2_direct, closed_form_moment, smallest_nonresidue, trace_stats

GENUS2_GROUPS = ("USp(4)", "SU(2)xSU(2)", "U(1)xSU(2)", "U(1)xU(1)",
                 "SU(2)_2", "U(1)_2")


def test_criterion_01_exact_closed_forms():
    t0 = time.perf_counter()
    su2 = [exact_moment("SU(2)", 2 * d) for d in range(1, 7)]
    assert su2 == [1, 2, 5, 14, 42, 132]
    u1 = [exact_moment("U(1)", 2 * d) for d in range(1, 5)]
    assert u1 == [2, 6, 20, 70]
    nu1 = [exact_moment("N(U(1))", 2 * d) for d in range(1, 5)]
    assert nu1 == [1, 3, 10, 35]
    for d in range(1, 7):
        assert closed_form_moment("catalan", d) == exact_moment("SU(2)", 2 * d)
    assert get_entry("N(U(1))").point_mass("a1", 0) == Fraction(1, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 01: PASS (SU(2)={[int(x) for x in su2]}, "
          f"U(1)={[int(x) for x in u1]}, N(U(1))={[int(x) for x in nu1]}, "
          f"mass 1/2 at 0, {elapsed:.3f}s)")


def test_criterion_02_usp4_fourth_moment_minimal():
    values = {gid: exact_moment(gid, 4, 0) for gid in GENUS2_GROUPS}
    assert values["USp(4)"] == 3
    for gid in GENUS2_GROUPS:
        if gid != "USp(4)":
            assert values[gid] > 3
    assert all(get_entry(g).n_components == 1 for g in GENUS2_GROUPS)
    print("criterion 02: PASS (M4 values "
          f"{ {g: int(v) for g, v in sorted(values.items())} })")


def test_criterion_03_sampler_matches_exact_engine():
    t0 = time.perf_counter()
    n = 10 ** 6
    orders = moment_orders(2, 8)
    worst = 0.0
    for i, gid in enumerate(GENUS2_GROUPS):
        angles = sample_classes(gid, n, seed=1000 + i)
        a1, a2 = trace_stats(2, angles)
        for d1, d2 in orders:
            vals = a1 ** d1 if d1 else np.ones_like(a1)
            if d2:
                vals = vals * a2 ** d2
            mean = float(vals.mean())
            stderr = float(vals.std(ddof=1)) / math.sqrt(n)
            exact = float(exact_moment(gid, d1, d2))
            z = abs(mean - exact) / max(stderr, 1e-12)
            worst = max(worst, z)
            assert abs(mean - exact) <= 4.0 * stderr, (gid, d1, d2, mean, exact)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 03: PASS (6 groups x {len(orders)} orders, "
          f"worst |z|={worst:.2f}, {elapsed:.1f}s)")


def test_criterion_04_genus1_generic_curve(su2_scan):
    curve, records, elapsed = su2_scan
    assert elapsed < 30.0
    table = empirical_moments(records, dmax=4)
    m2 = table.entries[(2, 0)].value
    m4 = table.entries[(4, 0)].value
    assert 0.9 <= m2 <= 1.1
    assert 1.7 <= m4 <= 2.3
    mass0 = empirical_density(records, "a1", Fraction(0)).frequency
    assert mass0 < Fraction(5, 100)
    ranked = classify(empirical_moments(records), records_density_map(records))
    assert ranked[0][0] == "SU(2)"
    print(f"criterion 04: PASS (M2={m2:.3f}, M4={m4:.3f}, "
          f"mass0={float(mass0):.4f}, top={ranked[0][0]}, {elapsed:.1f}s)")


def test_criterion_05_genus1_cm_curve(cm_scan):
    curve, records, elapsed = cm_scan
    mass0 = empirical_density(records, "a1", Fraction(0)).frequency
    assert Fraction(45, 100) <= mass0 <= Fraction(55, 100)
    table = empirical_moments(records, dmax=4)
    m2 = table.entries[(2, 0)].value
    m4 = table.entries[(4, 0)].value
    assert 0.9 <= m2 <= 1.1
    assert 2.6 <= m4 <= 3.4
    ranked = classify(empirical_moments(records), records_density_map(records))
    assert ranked[0][0] == "N(U(1))"
    print(f"criterion 05: PASS (mass0={float(mass0):.4f}, M2={m2:.3f}, "
          f"M4={m4:.3f}, top={ranked[0][0]}, {elapsed:.1f}s)")


def test_criterion_06_genus2_full_symplectic(genus2_scan):
    curve, records, elapsed = genus2_scan
    assert elapsed < 600.0
    table = empirical_moments(records, dmax=8)
    m4a1 = table.entries[(4, 0)].value
    m1a2 = table.entries[(0, 1)].value
    assert 2.5 <= m4a1 <= 3.6
    assert 0.8 <= m1a2 <= 1.2
    for r in records:
        assert weil_check(LPoly(2, r.p, r.c1, r.c2))
    ranked = classify(table, records_density_map(records))
    assert ranked[0][0] == "USp(4)"

    # thread scaling, measured on a smaller bound so the check stays cheap
    t0 = time.perf_counter()
    one = scan_curve(curve, 1024, threads=1)
    t1 = time.perf_counter()
    two = scan_curve(curve, 1024, threads=2)
    t2 = time.perf_counter()
    assert one == two
    ratio = (t1 - t0) / max(t2 - t1, 1e-9)
    cores = os.cpu_count() or 1
    if cores >= 2:
        assert ratio > 1.25
    else:
        # single-core host: only require that threading is not pathological
        assert ratio > 0.4
    print(f"criterion 06: PASS (M4(a1)={m4a1:.3f}, M1(a2)={m1a2:.3f}, "
          f"top={ranked[0][0]}, n={len(records)}, scan={elapsed:.1f}s, "
          f"2-thread speedup x{ratio:.2f} on {cores} core(s))")


def test_criterion_07_fixed_prime_moments():
    t0 = time.perf_counter()
    for p in (5, 7, 11, 13):
        dist = ap_distribution(p)
        for d in (2, 4, 6, 8):
            assert dist.moment(d) == birch_formula(p, d)
        assert dist.moment(10) == birch_formula(p, 10, tau_of_prime(p))
        for d in (1, 3, 5, 7, 9):
            assert dist.moment(d) == 0
        for a in dist.counts:
            assert dist.counts[a] == dist.counts[-a]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 07: PASS (p in 5,7,11,13: d<=8 exact, d=10 via tau, "
          f"odd=0, twist-symmetric, {elapsed:.2f}s)")


def test_criterion_08_cubic_factorization_densities():
    t0 = time.perf_counter()
    gens = [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]
    stats = chebotarev_scan([-2, 0, 0, 1], gens, 100_000)
    targets = {(1, 1, 1): Fraction(1, 6), (1, 2): Fraction(1, 2),
               (3,): Fraction(1, 3)}
    errs = {}
    for part, target in targets.items():
        err = abs(float(stats.frequency(part)) - float(target))
        errs[part] = err
        assert err < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 08: PASS (n={stats.primes_used}, max err "
          f"{max(errs.values()):.5f}, {elapsed:.1f}s)")


def test_criterion_09_component_group_catalog():
    rows = []
    parts = []
    for entry in catalog():
        if entry.genus != 2:
            continue
        parts.append(entry.id)
        rows.extend(entry.component_rows)
    assert len(rows) == 52
    assert sum(1 for r in rows if r.q_realizable) == 34
    assert sorted(parts) == sorted(GENUS2_GROUPS)
    algebras = {gid: get_entry(gid).end_algebra for gid in GENUS2_GROUPS}
    assert algebras == {
        "USp(4)": "R",
        "SU(2)xSU(2)": "RxR",
        "U(1)xSU(2)": "RxC",
        "U(1)xU(1)": "CxC",
        "SU(2)_2": "M2(R)",
        "U(1)_2": "M2(C)",
    }
    print(f"criterion 09: PASS (52 component rows, 34 Q-realizable, "
          f"6 connected parts with matching endomorphism algebras)")


def _valid_genus2_pairs(p):
    pairs = []
    m = isqrt(16 * p) + 2
    for c1 in range(-m, m + 1):
        lo = -2 * p - isqrt(4 * c1 * c1 * p) - 3
        hi = (c1 * c1 + 8 * p) // 4 + 3
        for c2 in range(lo, hi + 1):
            if weil_check(LPoly(2, p, c1, c2)):
                pairs.append((c1, c2))
    return pairs


def test_criterion_10_property_suites():
    t0 = time.perf_counter()

    # L-polynomial <-> point-count roundtrip, exhaustive for p <= 100
    n_pairs = 0
    for p in sieve_primes(100):
        if p == 2:
            continue
        w = isqrt(4 * p)
        for c1 in range(-w, w + 1):
            lp = LPoly(1, p, c1)
            back = lpoly_from_counts(1, p, predicted_count(lp, 1))
            assert back.c1 == c1
            n_pairs += 1
        for c1, c2 in _valid_genus2_pairs(p):
            lp = LPoly(2, p, c1, c2)
            back = lpoly_from_counts(
                2, p, predicted_count(lp, 1), predicted_count(lp, 2)
            )
            assert (back.c1, back.c2) == (c1, c2)
            n_pairs += 1

    # group axioms, including moment integrality up to weight 12
    for entry in catalog():
        report = st_axiom_check(entry, max_weight=12)
        assert report.ok, (entry.id, report.failures)

    # quadratic character of F_{p^2} agrees with the norm composition
    for p in sieve_primes(50):
        if p == 2:
            continue
        chi = character_table(p)
        d = smallest_nonresidue(p)
        for a in range(p):
            for b in range(p):
                if a or b:
                    assert chi[(a * a - d * b * b) % p] == chi2_direct(p, d, (a, b))

    # identical scan bytes regardless of thread count
    curve = make_curve([1, 1, 0, 1])
    outs = []
    for threads in (1, 2, 3):
        buf = io.StringIO()
        write_records(scan_curve(curve, 600, threads=threads), buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1] == outs[2]

    elapsed = time.perf_counter() - t0
    print(f"criterion 10: PASS (roundtrip on {n_pairs} L-polynomials, "
          f"axioms to weight 12, chi composition p<=50, "
          f"thread-stable bytes, {elapsed:.1f}s)")
