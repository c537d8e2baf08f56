"""Scan pipeline: count a curve at every good prime up to a bound and emit
one JSONL record per prime, ascending.

Output is byte-identical for identical configs regardless of thread count:
helper processes only parallelize the per-prime work.  A prime's cost grows
with p, so they claim the largest primes first, one at a time, from one
shared counter; the last primes, claimed while the others are still busy,
are the cheapest.  The records are put back in claim order and reversed
before anything is written.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from multiprocessing import Pipe, Process, Value
from typing import IO, Iterable, Optional

from .arith import character_table
from .counting import (
    HyperellipticCurve,
    _assert_weil,
    _check_ext2_bound,
    _check_reduction,
    _count_ext1,
    _count_ext2,
    _values_mod_p,
    good_primes,
    make_curve,
)
from .hasse_witt import hasse_witt_lpoly
from .lpoly import lpoly_from_counts, normalize, predicted_count
from .stats import ScanRecord


@dataclass(frozen=True)
class ScanConfig:
    f_coeffs: tuple[int, ...]
    n: int
    threads: int = 1
    out: Optional[str] = None


def record_for_prime(curve: HyperellipticCurve, p: int) -> ScanRecord:
    """The record of one good prime.  It checks the prime, builds the
    character table and evaluates f mod p at every x in F_p once, for the
    F_p count and for the genus-2 path: the Hasse-Witt matrix and the
    Jacobian order, and the F_{p^2} count for a sextic with no root mod p
    and where the Jacobian points leave c2 undecided.  Raises as
    count_points does, the p >= EXT2_MAX_P refusal only where the F_{p^2}
    count would run."""
    _check_reduction(curve, p)
    chi = character_table(p)
    values = _values_mod_p([a % p for a in curve.f_coeffs], p)
    n1 = _count_ext1(curve, p, chi, values)
    _assert_weil(n1, p, 1, curve.genus)
    if curve.genus == 1:
        lp, n2 = lpoly_from_counts(1, p, n1), None
    else:
        lp = hasse_witt_lpoly(curve.f_coeffs, p, n1 - p - 1, chi, values)
        if lp is None:
            _check_ext2_bound(p)
            n2 = _count_ext2(curve, p, chi, values)
            _assert_weil(n2, p, 2, curve.genus)
            lp = lpoly_from_counts(2, p, n1, n2)
        else:
            n2 = predicted_count(lp, 2)
    nc = normalize(lp)
    return ScanRecord(p=p, n1=n1, c1=lp.c1, a1bar=nc.a1, n2=n2, c2=lp.c2, a2bar=nc.a2)


def _claim(curve: HyperellipticCurve, primes: list[int], claimed) -> list:
    """(index, record) of each prime this process claims from the shared
    counter, one at a time, until every prime is claimed."""
    done = []
    while True:
        with claimed.get_lock():
            i = claimed.value
            claimed.value += 1
        if i >= len(primes):
            return done
        done.append((i, record_for_prime(curve, primes[i])))


def _helper(conn, index, curve, primes, claimed) -> None:
    """Helper process number index: move once onto a CPU of its own, then
    allow every CPU again (the kernel can keep forked children on their
    parent's CPU for longer than a short scan lasts), claim primes, and
    send back their records or the exception that stopped it."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    try:
        conn.send(_claim(curve, primes, claimed))
    except BaseException as exc:
        conn.send(exc)


def scan_curve(
    curve: HyperellipticCurve, n: int, threads: int = 1
) -> list[ScanRecord]:
    """Records for every good prime <= n, ascending.  threads is the number
    of helper processes, capped at the CPU count, because they all start
    at once; this process only waits for their records."""
    primes = good_primes(curve, n)
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1 or len(primes) < 4:
        return [record_for_prime(curve, p) for p in primes]
    descending = primes[::-1]
    claimed = Value("i", 0)
    helpers, done = [], []
    try:
        for index in range(workers):
            recv, send = Pipe(duplex=False)
            proc = Process(target=_helper, args=(send, index, curve, descending, claimed))
            proc.start()
            send.close()
            helpers.append((proc, recv))
        for proc, recv in helpers:
            got = recv.recv()
            if isinstance(got, BaseException):
                raise got
            done.extend(got)
    finally:
        # a helper that has sent its records is exiting anyway
        for proc, _ in helpers:
            proc.terminate()
            proc.join()
    done.sort(key=lambda item: item[0])
    return [rec for _, rec in done][::-1]


def write_records(records: Iterable[ScanRecord], stream: IO[str]) -> None:
    for rec in records:
        stream.write(json.dumps(rec.to_json_dict(), separators=(",", ":")))
        stream.write("\n")


def read_records(stream: IO[str]) -> list[ScanRecord]:
    """Records of a JSONL scan, in file order; ValueError on a bad line, a
    prime that appears twice, or genus-1 and genus-2 records in one file."""
    records, seen = [], set()
    for line in stream:
        line = line.strip()
        if line:
            rec = ScanRecord.from_json_dict(json.loads(line))
            if rec.p in seen:
                raise ValueError(f"prime {rec.p} appears twice in the scan")
            seen.add(rec.p)
            records.append(rec)
    if len({rec.genus for rec in records}) > 1:
        raise ValueError("scan mixes genus-1 and genus-2 records")
    return records


def run_scan(config: ScanConfig):
    """Execute a scan; write JSONL to config.out when set.

    Returns (curve, records).
    """
    curve = make_curve(config.f_coeffs)
    records = scan_curve(curve, config.n, config.threads)
    if config.out is not None:
        with open(config.out, "w") as fh:
            write_records(records, fh)
    return curve, records
