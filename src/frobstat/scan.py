"""Scan pipeline: count a curve at every good prime up to a bound and emit
one JSONL record per prime, ascending.

Output is byte-identical for identical configs regardless of thread count:
workers only parallelize the per-prime counting.  Since a prime's cost
grows like p^2, the pool is handed batches of the largest primes first,
and the batches come back in hand-out order, so the merged list is simply
reversed before anything is written.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import IO, Iterable, Optional

from .counting import HyperellipticCurve, count_points, good_primes, make_curve
from .lpoly import lpoly_from_counts, normalize
from .stats import ScanRecord


@dataclass(frozen=True)
class ScanConfig:
    f_coeffs: tuple[int, ...]
    n: int
    threads: int = 1
    out: Optional[str] = None


def record_for_prime(curve: HyperellipticCurve, p: int) -> ScanRecord:
    n1 = count_points(curve, p, 1)
    n2 = count_points(curve, p, 2) if curve.genus == 2 else None
    lp = lpoly_from_counts(curve.genus, p, n1, n2)
    nc = normalize(lp)
    return ScanRecord(p=p, n1=n1, c1=lp.c1, a1bar=nc.a1, n2=n2, c2=lp.c2, a2bar=nc.a2)


def _records(curve: HyperellipticCurve, primes: list[int]) -> list[ScanRecord]:
    """Records for primes in the given order: the serial scan, and one
    batch of the pool's."""
    return [record_for_prime(curve, p) for p in primes]


def scan_curve(
    curve: HyperellipticCurve, n: int, threads: int = 1
) -> list[ScanRecord]:
    """Records for every good prime <= n, ascending.  threads is capped at
    the CPU count, because the pool forks all its workers at once."""
    primes = good_primes(curve, n)
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1 or len(primes) < 4:
        return _records(curve, primes)
    size = max(1, len(primes) // (8 * workers))
    descending = primes[::-1]
    batches = [descending[i : i + size] for i in range(0, len(primes), size)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        done = pool.map(_records, [curve] * len(batches), batches)
        return [rec for batch in done for rec in batch][::-1]


def write_records(records: Iterable[ScanRecord], stream: IO[str]) -> None:
    for rec in records:
        stream.write(json.dumps(rec.to_json_dict(), separators=(",", ":")))
        stream.write("\n")


def read_records(stream: IO[str]) -> list[ScanRecord]:
    """Records of a JSONL scan, in file order; ValueError on a bad line or a
    prime that appears twice."""
    records, seen = [], set()
    for line in stream:
        line = line.strip()
        if line:
            rec = ScanRecord.from_json_dict(json.loads(line))
            if rec.p in seen:
                raise ValueError(f"prime {rec.p} appears twice in the scan")
            seen.add(rec.p)
            records.append(rec)
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
