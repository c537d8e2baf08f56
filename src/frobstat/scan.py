"""Scan pipeline: count a curve at every good prime up to a bound and emit
one JSONL record per prime, ascending.

Output is byte-identical for identical configs regardless of thread count:
the processes of a scan, this one and threads - 1 helpers, only parallelize
the per-prime work.  A prime's cost grows with p, so they claim the largest
primes first, one at a time, from one shared counter; the last primes,
claimed while the others are still busy, are the cheapest.  The records are
sorted by p before anything is written.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from multiprocessing import Pipe, Process, Value
from typing import IO, Iterable, Optional

from .counting import HyperellipticCurve, frobenius, good_primes, make_curve
from .lpoly import normalize, predicted_count
from .stats import ScanRecord


@dataclass(frozen=True)
class ScanConfig:
    f_coeffs: tuple[int, ...]
    n: int
    threads: int = 1
    out: Optional[str] = None

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")


def record_for_prime(curve: HyperellipticCurve, p: int) -> ScanRecord:
    """The record of one good prime, from counting.frobenius: the F_p
    count and the L-polynomial, and in genus 2 the F_{p^2} count that the
    L-polynomial predicts.  Raises as frobenius does."""
    n1, lp = frobenius(curve, p)
    n2 = None if curve.genus == 1 else predicted_count(lp, 2)
    nc = normalize(lp)
    return ScanRecord(p=p, n1=n1, c1=lp.c1, a1bar=nc.a1, n2=n2, c2=lp.c2, a2bar=nc.a2)


def _claim(curve: HyperellipticCurve, primes: list[int], claimed) -> list[ScanRecord]:
    """Records of the primes this process claims from the shared counter,
    one at a time, until every prime is claimed."""
    done = []
    while True:
        with claimed.get_lock():
            i = claimed.value
            claimed.value += 1
        if i >= len(primes):
            return done
        done.append(record_for_prime(curve, primes[i]))


def _helper(conn, curve, primes, claimed) -> None:
    """Claim primes and send back their records or the exception that
    stopped this helper."""
    try:
        conn.send(_claim(curve, primes, claimed))
    except BaseException as exc:
        conn.send(exc)


def scan_curve(curve: HyperellipticCurve, n: int, threads: int = 1) -> list[ScanRecord]:
    """Records for every good prime <= n, ascending.  threads processes,
    capped at the CPU count, claim primes: this one and threads - 1 helpers
    started before it begins.  ValueError for n^2 >= 2^63 (n > 3037000499),
    before any prime is sieved: the int64 tables of frobenius would refuse
    the largest primes anyway."""
    if n * n >= 2**63:
        raise ValueError(f"N={n} has N^2 >= 2^63: the int64 tables need p^2 < 2^63")
    descending = good_primes(curve, n)[::-1]
    claimed = Value("i", 0)
    helpers = []
    try:
        for _ in range(min(threads, os.cpu_count() or 1) - 1):
            recv, send = Pipe(duplex=False)
            proc = Process(target=_helper, args=(send, curve, descending, claimed))
            proc.start()
            send.close()
            helpers.append((proc, recv))
        done = _claim(curve, descending, claimed)
        for _, recv in helpers:
            got = recv.recv()
            if isinstance(got, BaseException):
                raise got
            done.extend(got)
    finally:
        # a helper that has sent its records is exiting anyway
        for proc, _ in helpers:
            proc.terminate()
            proc.join()
    return sorted(done, key=lambda rec: rec.p)


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
    """Execute a scan and return (curve, records); write JSONL to
    config.out when set."""
    curve = make_curve(config.f_coeffs)
    records = scan_curve(curve, config.n, config.threads)
    if config.out is not None:
        with open(config.out, "w") as fh:
            write_records(records, fh)
    return curve, records
