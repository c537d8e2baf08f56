"""Empirical Frobenius statistics from scan records, and classification.

A ScanRecord holds the per-prime integers (counts and L-coefficients) plus
the normalized real coefficients.  Point-mass detection works on the exact
integers: a1bar = 0 iff c1 = 0, and a2bar = v iff c2 = v*p, so no floating
comparison is ever involved in a density.

Moments are a fold over records sorted by prime, so any ordering of the
same records gives byte-identical tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .haar import catalog, exact_moment, moment_orders
from .lpoly import weil_ok


@dataclass(frozen=True)
class ScanRecord:
    p: int
    n1: int
    c1: int
    a1bar: float
    n2: Optional[int] = None
    c2: Optional[int] = None
    a2bar: Optional[float] = None

    @property
    def genus(self) -> int:
        return 1 if self.c2 is None else 2

    def to_json_dict(self) -> dict:
        d = {"p": self.p, "n1": self.n1}
        if self.genus == 2:
            d["n2"] = self.n2
        d["c1"] = self.c1
        if self.genus == 2:
            d["c2"] = self.c2
        d["a1bar"] = self.a1bar
        if self.genus == 2:
            d["a2bar"] = self.a2bar
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScanRecord":
        """Build a record from one parsed JSONL line; ValueError when the
        line is not an object, a field has the wrong type, the genus-2
        fields n2, c2, a2bar are not all present or all absent, p < 3, a
        real is not exactly the writer's c1/sqrt(p) or c2/p (JSON floats
        round-trip), a count disagrees: n1 = p+1+c1, n2 = p^2+1-c1^2+2*c2,
        or (c1, c2) fails the exact Weil bound.  p is not tested for
        primality."""
        try:
            p, n1, c1, a1bar = d["p"], d["n1"], d["c1"], d["a1bar"]
            n2, c2, a2bar = d.get("n2"), d.get("c2"), d.get("a2bar")
        except (TypeError, KeyError):
            raise ValueError(f"not a scan record: {d!r}") from None
        genus1 = n2 is None and c2 is None and a2bar is None
        if (
            type(p) is not int or type(n1) is not int or type(c1) is not int
            or type(a1bar) not in (int, float)
            or not genus1 and (
                type(n2) is not int or type(c2) is not int
                or type(a2bar) not in (int, float)
            )
        ):
            raise ValueError(f"scan record field missing or mistyped: {d!r}")
        try:  # an int too large for a float overflows here
            exact = p >= 3 and a1bar == c1 / math.sqrt(p) and (
                genus1 or a2bar == c2 / p
            )
        except OverflowError:
            exact = False
        if not exact:
            raise ValueError(f"scan record has p < 3 or reals not c1/sqrt(p), c2/p: {d!r}")
        if n1 != p + 1 + c1 or not genus1 and n2 != p * p + 1 - c1 * c1 + 2 * c2:
            raise ValueError(f"scan record counts disagree with c1, c2: {d!r}")
        if not weil_ok(p, c1, c2):
            raise ValueError(f"scan record fails the Weil bound: {d!r}")
        return cls(p=p, n1=n1, c1=c1, a1bar=a1bar, n2=n2, c2=c2, a2bar=a2bar)


@dataclass
class MomentStat:
    value: float
    stderr: float
    n: int


@dataclass
class MomentTable:
    genus: int
    entries: dict[tuple[int, int], MomentStat] = field(default_factory=dict)


def empirical_moments(records: Sequence[ScanRecord], dmax: int = 8) -> MomentTable:
    """Averages of a1bar^d1 * a2bar^d2 over the records, with standard
    errors, for every order of weight d1 + 2*d2 <= dmax.

    Records are folded in ascending-p order.
    """
    recs = sorted(records, key=lambda r: r.p)
    if not recs:
        raise ValueError("no records")
    genus = recs[0].genus
    if any(r.genus != genus for r in recs):
        raise ValueError("mixed-genus records")
    orders = moment_orders(genus, dmax)
    sums = {o: 0.0 for o in orders}
    sqsums = {o: 0.0 for o in orders}
    n = len(recs)
    for r in recs:
        for d1, d2 in orders:
            term = r.a1bar**d1 if d1 else 1.0
            if d2:
                term *= r.a2bar**d2
            sums[(d1, d2)] += term
            sqsums[(d1, d2)] += term * term

    table = MomentTable(genus=genus)
    for o in orders:
        mean = sums[o] / n
        if n > 1:
            var = max(sqsums[o] / n - mean * mean, 0.0) * n / (n - 1)
            se = math.sqrt(var / n)
        else:
            se = 0.0
        table.entries[o] = MomentStat(value=mean, stderr=se, n=n)
    return table


@dataclass(frozen=True)
class DensityStat:
    statistic: str
    value: Fraction
    hits: int
    n: int

    @property
    def frequency(self) -> Fraction:
        return Fraction(self.hits, self.n)


def empirical_density(
    records: Sequence[ScanRecord], statistic: str, value
) -> DensityStat:
    """Exact share of records with the normalized statistic equal to value.

    a1bar = v can only happen at rational v = 0 (c1 = 0); a2bar = v means
    c2 = v * p, tested in exact rational arithmetic.
    """
    v = Fraction(value)
    recs = list(records)
    if not recs:
        raise ValueError("no records")
    if statistic == "a1":
        # c1 / sqrt(p) is irrational unless c1 = 0, so only v = 0 can hit
        hits = sum(1 for r in recs if r.c1 == 0) if v == 0 else 0
    elif statistic == "a2":
        if any(r.genus != 2 for r in recs):
            raise ValueError("a2 density needs genus-2 records")
        hits = sum(1 for r in recs if Fraction(r.c2) == v * r.p)
    else:
        raise ValueError("statistic must be 'a1' or 'a2'")
    return DensityStat(statistic=statistic, value=v, hits=hits, n=len(recs))


@dataclass(frozen=True)
class HistogramRow:
    left: float
    right: float
    count: int
    density: float


@dataclass(frozen=True)
class HistogramResult:
    rows: tuple[HistogramRow, ...]
    n: int
    clamped: int  # how many out-of-range values were pushed into end bins


def histogram(
    values: Iterable[float], bins: int, lo: float, hi: float
) -> HistogramResult:
    """Fixed-range histogram; out-of-range values are clamped into the end
    bins and counted in `clamped` so nothing is silently dropped.  Edges
    and densities must be finite floats; a density is at most 1 / width."""
    width = (hi - lo) / bins if bins >= 1 else 0.0
    if not (math.isfinite(lo) and 0.0 < width < math.inf and 1.0 / width < math.inf):
        raise ValueError("need bins >= 1 and finite lo < hi")
    counts = [0] * bins
    n = 0
    clamped = 0
    for v in values:
        n += 1
        idx = int((v - lo) / width)
        if v < lo or idx < 0:
            idx = 0
            clamped += 1
        elif v >= hi or idx >= bins:
            if v > hi:
                clamped += 1
            idx = bins - 1
        counts[idx] += 1
    rows = tuple(
        HistogramRow(
            left=lo + i * width,
            right=lo + (i + 1) * width,
            count=c,
            density=c / (n * width) if n else 0.0,
        )
        for i, c in enumerate(counts)
    )
    return HistogramResult(rows=rows, n=n, clamped=clamped)


# ---------------------------------------------------------------------------
# classification against the catalog

STDERR_FLOOR = 1e-3

# moment orders entering the score, by genus
TRACKED_ORDERS = {
    1: tuple((d, 0) for d in range(1, 7)),
    2: tuple((d, 0) for d in range(1, 7)) + ((0, 1), (0, 2), (0, 3), (2, 1)),
}

# point masses entering the score, by genus
TRACKED_MASSES = {
    1: (("a1", Fraction(0)),),
    2: (("a1", Fraction(0)),) + tuple(("a2", Fraction(v)) for v in (-2, -1, 0, 1, 2)),
}


def z_scores(
    table: MomentTable,
    densities: Optional[dict[tuple[str, Fraction], DensityStat]] = None,
) -> dict[str, list[tuple[str, float]]]:
    """Per-term standardized distances from each catalog group of the
    table's genus, in catalog order: group id -> [(term, z), ...].

    z = (emp - exact) / max(se, floor), first for the tracked moments in
    the table ("M[d1,d2]"), then for the point masses in sorted order
    ("mass a2=-2").
    """
    densities = densities or {}
    out = {}
    for entry in catalog():
        if entry.genus != table.genus:
            continue
        terms = []
        for order in TRACKED_ORDERS[table.genus]:
            stat = table.entries.get(order)
            if stat is None:
                continue
            theo = float(exact_moment(entry.id, order[0], order[1]))
            z = (stat.value - theo) / max(stat.stderr, STDERR_FLOOR)
            terms.append((f"M[{order[0]},{order[1]}]", z))
        for key, dstat in sorted(densities.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            stat_name, v = key
            theo = float(entry.point_mass(stat_name, v))
            freq = float(dstat.frequency)
            se = math.sqrt(max(freq * (1.0 - freq), 0.0) / dstat.n)
            z = (freq - theo) / max(se, STDERR_FLOOR)
            terms.append((f"mass {stat_name}={v}", z))
        out[entry.id] = terms
    return out


def classify(
    table: MomentTable,
    densities: Optional[dict[tuple[str, Fraction], DensityStat]] = None,
) -> list[tuple[str, float]]:
    """Rank the catalog groups of the table's genus by squared standardized
    distance.

    score(G) is the sum of the squares of z_scores' terms for G, added in
    their order.  Ascending score; ties broken lexicographically by group
    id, so the output is fully deterministic.
    """
    results = []
    for gid, terms in z_scores(table, densities).items():
        score = 0.0
        for _, z in terms:
            score += z * z
        results.append((gid, score))
    results.sort(key=lambda t: (t[1], t[0]))
    return results


def records_density_map(
    records: Sequence[ScanRecord],
) -> dict[tuple[str, Fraction], DensityStat]:
    """Empirical point-mass stats for the tracked (statistic, value) pairs."""
    genus = records[0].genus
    return {
        (stat, v): empirical_density(records, stat, v)
        for stat, v in TRACKED_MASSES[genus]
    }
