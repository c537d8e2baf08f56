import csv
import io
import json
import math
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobstat import cli, scan
from frobstat.counting import WeilBoundError, count_points, good_primes, make_curve
from frobstat.arith import sieve_primes
from frobstat.lpoly import LPoly, lpoly_from_counts, weil_check
from frobstat.scan import (
    ScanConfig,
    read_records,
    record_for_prime,
    run_scan,
    scan_curve,
    write_records,
)
from frobstat.stats import ScanRecord, empirical_moments

E1 = [1, 1, 0, 1]


def _dump(records):
    buf = io.StringIO()
    write_records(records, buf)
    return buf.getvalue()


def test_record_for_prime_matches_counting():
    curve = make_curve([1, -1, 0, 0, 0, 1])
    p = 29
    rec = record_for_prime(curve, p)
    n1 = count_points(curve, p, 1)
    n2 = count_points(curve, p, 2)
    lp = lpoly_from_counts(2, p, n1, n2)
    assert (rec.p, rec.n1, rec.n2) == (p, n1, n2)
    assert (rec.c1, rec.c2) == (lp.c1, lp.c2)
    assert rec.a1bar == lp.c1 / math.sqrt(p)
    assert rec.a2bar == lp.c2 / p


def test_scan_ascending_and_complete():
    curve = make_curve(E1)
    records = scan_curve(curve, 600)
    assert [r.p for r in records] == good_primes(curve, 600)
    assert all(r.genus == 1 for r in records)


def test_scan_bytes_identical_across_threads():
    curve = make_curve(E1)
    base = _dump(scan_curve(curve, 600, threads=1))
    for threads in (2, 3):
        assert _dump(scan_curve(curve, 600, threads=threads)) == base


class _InProcessHelper:
    """Stands in for multiprocessing.Process: counts the helpers started and
    runs each in this process as it starts, so the first one claims every
    prime and the others find none left.  Each sends its records before
    anyone reads them, so the scans here stay well inside a pipe's buffer."""

    started = 0

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        type(self).started += 1
        self.target(*self.args)

    def terminate(self):
        pass

    def join(self):
        pass


@pytest.fixture
def in_process_helpers(monkeypatch):
    monkeypatch.setattr(scan, "Process", _InProcessHelper)
    monkeypatch.setattr(_InProcessHelper, "started", 0)
    claimed = []
    record = scan.record_for_prime

    def recording(curve, p):
        claimed.append(p)
        return record(curve, p)

    monkeypatch.setattr(scan, "record_for_prime", recording)
    return _InProcessHelper, claimed


def test_scan_pool_capped_at_cpu_count(in_process_helpers):
    helpers, _ = in_process_helpers
    curve = make_curve(E1)
    threaded = _dump(scan_curve(curve, 600, threads=10**6))
    cpus = os.cpu_count() or 1
    assert helpers.started or cpus == 1
    assert helpers.started <= cpus
    assert threaded == _dump(scan_curve(curve, 600))


def test_helper_leaves_the_cpu_mask_as_it_found_it():
    # the helper moves onto its own CPU once, then must allow every CPU
    # again, so that the kernel may move it later; it claims every prime
    # left and sends their records back
    curve = make_curve(E1)
    primes = good_primes(curve, 300)[::-1]
    claimed = multiprocessing.Value("i", 2)
    recv, send = multiprocessing.Pipe(duplex=False)
    before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    scan._helper(send, 1, curve, primes, claimed)
    if before is not None:
        assert os.sched_getaffinity(0) == before
    got = recv.recv()
    assert [i for i, _ in got] == list(range(2, len(primes)))
    assert [r for _, r in got] == [record_for_prime(curve, p) for p in primes[2:]]


def test_helper_errors_reach_the_caller(monkeypatch):
    # a helper sends the error that stopped it instead of records, and
    # scan_curve raises it in this process
    def fail(curve, p):
        raise ValueError(f"no record at p={p}")

    monkeypatch.setattr(scan, "record_for_prime", fail)
    curve = make_curve(E1)
    recv, send = multiprocessing.Pipe(duplex=False)
    scan._helper(send, 0, curve, [7, 5], multiprocessing.Value("i", 0))
    got = recv.recv()
    assert isinstance(got, ValueError) and str(got) == "no record at p=7"
    if multiprocessing.get_start_method() == "fork":
        # forked helpers see the patch too
        with pytest.raises(ValueError, match="no record at p="):
            scan_curve(curve, 600, threads=2)


def test_scan_pool_hands_out_largest_primes_first(in_process_helpers, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    helpers, claimed = in_process_helpers
    curve = make_curve(E1)
    threaded = _dump(scan_curve(curve, 600, threads=3))
    assert helpers.started == 3
    primes = good_primes(curve, 600)
    assert len(claimed) > 3
    assert claimed == primes[::-1]
    assert threaded == _dump(scan_curve(curve, 600))


def test_jsonl_roundtrip_and_key_order():
    curve = make_curve(E1)
    records = scan_curve(curve, 200)
    text = _dump(records)
    assert read_records(io.StringIO(text)) == records
    first = text.splitlines()[0]
    assert list(json.loads(first).keys()) == ["p", "n1", "c1", "a1bar"]
    g2 = _dump([record_for_prime(make_curve([1, -1, 0, 0, 0, 1]), 11)])
    assert list(json.loads(g2).keys()) == [
        "p", "n1", "n2", "c1", "c2", "a1bar", "a2bar",
    ]


def test_run_scan_writes_file(tmp_path):
    out = tmp_path / "e1.jsonl"
    cfg = ScanConfig(f_coeffs=tuple(E1), n=300, out=str(out))
    curve, records = run_scan(cfg)
    assert curve.genus == 1
    assert out.read_text() == _dump(records)


# -- CLI --------------------------------------------------------------------

def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_cli_scan_to_stdout(capsys):
    assert cli.main(["scan", "--f", "1,1,0,1", "--N", "100"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    curve = make_curve(E1)
    assert len(lines) == len(good_primes(curve, 100))
    row = json.loads(lines[0])
    assert row["p"] == 3 and row["n1"] == 4


def test_cli_pipeline_matches_library(tmp_path):
    scan_out = tmp_path / "scan.jsonl"
    mom_out = tmp_path / "moments.csv"
    cls_out = tmp_path / "classify.csv"
    assert cli.main(
        ["scan", "--f", "1,1,0,1", "--N", "800", "--out", str(scan_out)]
    ) == 0
    assert cli.main(
        ["moments", "--in", str(scan_out), "--out", str(mom_out)]
    ) == 0
    assert cli.main(
        ["classify", "--in", str(scan_out), "--out", str(cls_out)]
    ) == 0

    with open(scan_out) as fh:
        records = read_records(fh)
    table = empirical_moments(records, dmax=8)

    rows = _read_csv(mom_out)
    assert rows[0] == ["d1", "d2", "value", "stderr", "n"]
    seen = {}
    for d1, d2, value, stderr, n in rows[1:]:
        seen[(int(d1), int(d2))] = (value, stderr, int(n))
    assert set(seen) == set(table.entries)
    for key, stat in table.entries.items():
        value, stderr, n = seen[key]
        assert value == f"{stat.value:.12g}"
        assert stderr == f"{stat.stderr:.12g}"
        assert n == stat.n

    rows = _read_csv(cls_out)
    assert rows[0] == ["rank", "group_id", "score"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    scores = [float(r[2]) for r in rows[1:]]
    assert scores == sorted(scores)
    assert {r[1] for r in rows[1:]} == {"U(1)", "SU(2)", "N(U(1))"}


def test_cli_density_and_hist(tmp_path):
    scan_out = tmp_path / "cm.jsonl"
    assert cli.main(
        ["scan", "--f", "1,0,0,1", "--N", "500", "--out", str(scan_out)]
    ) == 0
    den_out = tmp_path / "density.csv"
    assert cli.main(
        ["density", "--in", str(scan_out), "--stat", "a1",
         "--value", "0", "--out", str(den_out)]
    ) == 0
    rows = _read_csv(den_out)
    assert rows[0] == ["statistic", "value", "hits", "n", "frequency"]
    stat, value, hits, n, freq = rows[1]
    assert stat == "a1" and value == "0"
    # supersingular frequency near 1/2 for the CM curve
    assert 0.3 < int(hits) / int(n) < 0.7
    assert freq == f"{int(hits)}/{int(n)}" or int(freq.split('/')[0]) * int(n) == int(hits) * int(freq.split('/')[1])

    hist_out = tmp_path / "hist.csv"
    assert cli.main(
        ["hist", "--in", str(scan_out), "--bins", "8", "--out", str(hist_out)]
    ) == 0
    rows = _read_csv(hist_out)
    assert rows[0] == ["left", "right", "count", "density"]
    assert len(rows) == 9
    with open(scan_out) as fh:
        n_rec = len(read_records(fh))
    assert sum(int(r[2]) for r in rows[1:]) == n_rec


def test_cli_catalog(tmp_path):
    meta_out = tmp_path / "meta.csv"
    assert cli.main(["catalog", "--metadata", "--out", str(meta_out)]) == 0
    rows = _read_csv(meta_out)
    assert rows[0] == [
        "connected_part", "end_tensor_r", "component_group", "name", "q_realizable",
    ]
    assert len(rows) - 1 == 52
    assert sum(int(r[4]) for r in rows[1:]) == 34

    cat_out = tmp_path / "catalog.csv"
    assert cli.main(["catalog", "--out", str(cat_out)]) == 0
    rows = _read_csv(cat_out)
    assert rows[0] == ["group_id", "d1", "d2", "value"]
    lut = {(r[0], r[1], r[2]): r[3] for r in rows[1:]}
    assert lut[("SU(2)", "2", "0")] == "1"
    assert lut[("SU(2)", "4", "0")] == "2"
    assert lut[("USp(4)", "4", "0")] == "3"
    assert lut[("N(U(1))", "mass_a1", "0")] == "1/2"


def test_cli_birch(tmp_path):
    out = tmp_path / "birch.csv"
    assert cli.main(["birch", "--p", "5,7", "--dmax", "10", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["p", "d", "bruteforce", "formula", "match"]
    assert len(rows) - 1 == 2 * 5
    assert all(r[4] == "1" for r in rows[1:])
    lut = {(r[0], r[1]): r[2] for r in rows[1:]}
    assert lut[("5", "2")] == "24/5"


def test_cli_chebotarev(tmp_path):
    out = tmp_path / "cheb.csv"
    assert cli.main(
        ["chebotarev", "--poly=-2,0,0,1",
         "--group", "(1 2);(1 2 3)", "--N", "2000", "--out", str(out)]
    ) == 0
    rows = _read_csv(out)
    assert rows[0] == ["partition", "predicted", "observed", "frequency", "abs_error"]
    preds = {r[0]: r[1] for r in rows[1:]}
    assert preds == {"1+1+1": "1/6", "1+2": "1/2", "3": "1/3"}
    assert all(float(r[4]) < 0.1 for r in rows[1:])


def test_cli_exit_codes(tmp_path, capsys):
    # singular curve: discriminant zero
    assert cli.main(["scan", "--f", "0,0,0,1", "--N", "50"]) == 2
    # malformed coefficient list
    assert cli.main(["scan", "--f", "1,x,3", "--N", "50"]) == 2
    # missing input file
    assert cli.main(["moments", "--in", str(tmp_path / "missing.jsonl")]) == 3
    # empty input file is a configuration error, not an I/O error
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert cli.main(["moments", "--in", str(empty)]) == 2
    # options a subcommand does not use are rejected
    assert cli.main(["moments", "--in", str(tmp_path / "missing.jsonl"), "--seed", "1"]) == 2
    # a rational with a zero denominator, and an infinite histogram range
    g1 = tmp_path / "g1.jsonl"
    g1.write_text(json.dumps({"p": 3, "n1": 4, "c1": 0, "a1bar": 0.0}) + "\n")
    assert cli.main(["density", "--in", str(g1), "--value", "1/0"]) == 2
    assert cli.main(["hist", "--in", str(g1), "--lo", "0", "--hi", "inf"]) == 2
    assert "nan" not in capsys.readouterr().out


GOOD_G2 = {"p": 5, "n1": 6, "n2": 26, "c1": 0, "c2": 0, "a1bar": 0.0, "a2bar": 0.0}
# c2 = 2 at p = 5, so the writer's a2bar is 2 / 5 = 0.4
G2_C2 = {**GOOD_G2, "n2": 30, "c2": 2, "a2bar": 0.4}


def test_valid_neighbours_of_corrupt_lines_read():
    # each corrupt case differs from one of these in the field it names
    lines = [GOOD_G2, G2_C2, {"p": 3, "n1": 4, "c1": 0, "a1bar": 0.0}]
    for d in lines:
        assert read_records(io.StringIO(json.dumps(d))) == [ScanRecord(**d)]


@pytest.mark.parametrize("line", [
    "[1, 2]",
    "7",
    "null",
    json.dumps({k: v for k, v in GOOD_G2.items() if k != "a2bar"}),
    json.dumps({k: v for k, v in GOOD_G2.items() if k != "n2"}),
    json.dumps({"p": 5, "n1": 6, "c1": "0", "a1bar": 0.0}),
    json.dumps({"p": 5.0, "n1": 6, "c1": 0, "a1bar": 0.0}),
    json.dumps({"p": 5, "n1": 6, "c1": 0, "a1bar": None}),
    json.dumps({**GOOD_G2, "c2": True}),
    json.dumps({"p": 5, "n1": 6, "c1": 0, "a1bar": float("nan")}),
    json.dumps({**GOOD_G2, "a2bar": float("inf")}),
    pytest.param('{"p": 5, "n1": 6, "c1": 0, "a1bar": 1' + "0" * 400 + "}",
                 id="a1bar-int-beyond-float-range"),
    pytest.param(json.dumps({"p": 5, "n1": 7, "c1": 0, "a1bar": 0.0}), id="n1-off-by-one"),
    pytest.param(json.dumps({**GOOD_G2, "n2": 28}), id="n2-off-by-two"),
    pytest.param(json.dumps(GOOD_G2) + "\n" + json.dumps(GOOD_G2), id="repeated-prime"),
    pytest.param(json.dumps({"p": 5, "n1": 6, "c1": 0, "a1bar": 7.5}), id="a1bar-not-c1-over-sqrt-p"),
    pytest.param(json.dumps({"p": 0, "n1": 1, "c1": 0, "a1bar": 0.0}), id="p-zero"),
    pytest.param(json.dumps({"p": 2, "n1": 3, "c1": 0, "a1bar": 0.0}), id="p-two"),
    pytest.param(json.dumps({**G2_C2, "a2bar": math.nextafter(0.4, 1.0)}), id="a2bar-one-ulp-off"),
    pytest.param(json.dumps({"p": 5, "n1": 6 + 10**400, "c1": 10**400, "a1bar": 0.0}),
                 id="c1-beyond-float-range"),
    pytest.param('{"p":5,"n1":16,"c1":10,"a1bar":4.47213595499958}', id="g1-c1-past-weil"),
    pytest.param(json.dumps({**GOOD_G2, "n2": 48, "c2": 11, "a2bar": 2.2}), id="g2-c2-past-weil"),
    pytest.param(json.dumps({"p": 3, "n1": 4, "c1": 0, "a1bar": 0.0}) + "\n" + json.dumps(GOOD_G2),
                 id="genus-1-then-genus-2"),
])
def test_cli_corrupt_scan_lines_exit_2(tmp_path, capsys, line):
    scan = tmp_path / "corrupt.jsonl"
    scan.write_text(line + "\n")
    for command in ("moments", "classify", "hist", "density"):
        assert cli.main([command, "--in", str(scan)]) == 2
        assert "error:" in capsys.readouterr().err


def _record_line(p, c1, c2=None):
    # the line a scan writes for these coefficients, Weil-admissible or not
    g2 = c2 is not None
    rec = ScanRecord(p=p, n1=p + 1 + c1, c1=c1, a1bar=c1 / math.sqrt(p),
                     n2=p * p + 1 - c1 * c1 + 2 * c2 if g2 else None,
                     c2=c2, a2bar=c2 / p if g2 else None)
    return json.dumps(rec.to_json_dict())


def _reads(line):
    try:
        read_records(io.StringIO(line))
    except ValueError:
        return False
    return True


PRIMES = sieve_primes(10**5)[1:]


@given(p=st.sampled_from(PRIMES), sign=st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_genus1_weil_boundary_on_read(p, sign):
    edge = math.isqrt(4 * p)  # floor(2 sqrt(p))
    assert _reads(_record_line(p, sign * edge))
    assert not _reads(_record_line(p, sign * (edge + 1)))


@given(p=st.sampled_from(PRIMES[:400]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_genus2_weil_boundary_on_read(p, data):
    # c2 within a few units of one of the curves bounding the admissible
    # region: c2 = c1^2/4 + 2p (disc = 0) and c2 = 2|c1|sqrt(p) - 2p (h(+-2) = 0)
    c1 = data.draw(st.integers(-math.isqrt(16 * p) - 2, math.isqrt(16 * p) + 2))
    edge = data.draw(st.sampled_from([c1 * c1 // 4 + 2 * p, math.isqrt(4 * c1 * c1 * p) - 2 * p]))
    c2 = edge + data.draw(st.integers(-2, 2))
    assert _reads(_record_line(p, c1, c2)) == weil_check(LPoly(2, p, c1, c2))


def test_cli_internal_failure_exit(monkeypatch, capsys):
    def boom(args):
        raise WeilBoundError("synthetic trace bound violation")

    monkeypatch.setattr(cli, "_cmd_scan", boom)
    assert cli.main(["scan", "--f", "1,1,0,1", "--N", "10"]) == 4
    assert "internal validation failure" in capsys.readouterr().err


def test_csv_uses_plain_newlines(tmp_path):
    out = tmp_path / "m.csv"
    scan_out = tmp_path / "s.jsonl"
    assert cli.main(
        ["scan", "--f", "1,1,0,1", "--N", "100", "--out", str(scan_out)]
    ) == 0
    assert cli.main(["moments", "--in", str(scan_out), "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
