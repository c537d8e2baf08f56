"""Tests of the benchmark itself: the checker counts bad outputs as failures,
the naive oracles agree with known counts, and metric names are valid.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import frobstat.cli  # noqa: E402  (loads every module the tracer targets)
import frobstat.counting  # noqa: E402
from perfbench import checks, inputs, layers  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _records(f, n):
    curve = frobstat.counting.make_curve(f)
    out = []
    for p in frobstat.counting.good_primes(curve, n):
        n1 = frobstat.counting.count_points(curve, p, 1)
        c1 = n1 - p - 1
        out.append({"p": p, "n1": n1, "c1": c1, "a1bar": c1 / math.sqrt(p)})
    return out


def test_clean_records_pass():
    chk = checks.Checker()
    checks.check_scan(chk, frobstat, (1, 1, 0, 1), 200, _records((1, 1, 0, 1), 200), "x^3+x+1")
    assert chk.attempted > 0 and chk.failed == 0, chk.failures


def test_corrupted_record_and_wrong_digest_are_failures():
    recs = _records((1, 1, 0, 1), 200)
    bad = dict(recs[10], c1=recs[10]["c1"] + 2)
    bad["a1bar"] = bad["c1"] / math.sqrt(bad["p"])
    recs[10] = bad
    chk = checks.Checker()
    checks.check_scan(chk, frobstat, (1, 1, 0, 1), 200, recs, "x^3+x+1")
    assert chk.failed >= 1
    before = chk.failed
    chk.digest("a.jsonl", b"some bytes", checks.sha256(b"other bytes"))
    assert chk.failed == before + 1
    chk.digest("a.jsonl", b"some bytes", checks.sha256(b"some bytes"))
    assert chk.failed == before + 1


@pytest.mark.parametrize("f", [(1, 1, 0, 1), (1, -1, 0, 0, 0, 1), (2, 3, -1, 0, 1, 5, 1)])
def test_naive_counts_match_frobstat(f):
    curve = frobstat.counting.make_curve(f)
    for p in frobstat.counting.good_primes(curve, 30):
        n1, n2 = checks.naive_counts(f, p)
        assert n1 == frobstat.counting.count_points(curve, p, 1)
        assert n2 == frobstat.counting.count_points(curve, p, 2)


def test_quadrature_matches_known_moments():
    assert checks.haar_moment("SU(2)", 4, 0) == pytest.approx(2)
    assert checks.haar_moment("USp(4)", 4, 0) == pytest.approx(3)
    assert checks.haar_moment("USp(4)", 0, 1) == pytest.approx(1)
    assert checks.haar_moment("N(U(1))", 2, 0) == pytest.approx(1)


def test_metric_names_are_valid_and_declared_once():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))


def test_layer_metrics_cover_the_declared_per_layer_list():
    tracer = Tracer()
    produced = set(layers.pass_metrics(tracer, 0, 1.0, 1))
    produced |= {"scan.pool_startup_s", "scan.speedup_2t_n1024",
                 "scan.jsonl_bytes", "trace.overhead_s"}
    assert produced == {m["name"] for m in BENCHMARK["per_layer"]}


def test_inputs_are_seeded_and_valid():
    for seed in range(6):
        assert inputs.genus1_curves(seed) == inputs.genus1_curves(seed)
        generic, cm = inputs.genus1_curves(seed)
        a, b = generic.f[1], generic.f[0]
        assert inputs.j_invariant(a, b) not in inputs.CM_J_INVARIANTS
        for curve in (generic, cm) + inputs.genus2_curves(seed):
            assert inputs.is_squarefree(curve.f)
            frobstat.counting.make_curve(curve.f)
        assert not inputs.has_rational_root(inputs.genus2_curves(seed)[1].f)


def test_tracer_self_time_and_restore():
    import frobstat.arith as arith

    original = arith.character_table
    curve = frobstat.counting.make_curve((1, 1, 0, 1))
    tracer = Tracer()
    tracer.install(layers.targets(frobstat))
    try:
        assert arith.character_table is not original
        tracer.recording = True
        frobstat.counting.count_points(curve, 101, 1)
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert arith.character_table is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "counting.count_ext1" and "arith.character_table" in names
    own = tracer.self_times()
    assert 0 <= own[0] <= tracer.spans[0][2] - tracer.spans[0][1]
