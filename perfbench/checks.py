"""Output checks that do not trust the code under test.

Each check adds one to `attempted` and, if it fails, one to `failed`; the
run reports both, so `failed / attempted` is the failed-operations ratio.
Oracles here are independent of frobstat where that is cheap: naive point
counts over F_p and F_{p^2}, Haar moments by exact root-of-unity quadrature,
closed-form cycle-type frequencies, and brute-force Birch moments.  The
record identities (`predicted_count`, `weil_check`, `good_primes`) use
frobstat's own functions.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction

import numpy as np

NAIVE_PRIME_LIMIT = 128


class Checker:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def digest(self, name: str, data: bytes, expected: str) -> None:
        """Compare the SHA-256 of `data` with a recorded digest."""
        self.check(sha256(data) == expected, f"digest of {name} changed")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_jsonl(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.decode().splitlines() if line.strip()]


def parse_csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


# ---------------------------------------------------------------------------
# naive point counts

def _nonresidue(p: int) -> int:
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


def naive_counts(f, p: int) -> tuple[int, int]:
    """(#C(F_p), #C(F_{p^2})) for the smooth model of y^2 = f(x), odd p of
    good reduction, by listing every x and every square."""
    deg = len(f) - 1
    coeffs = [a % p for a in f]

    sq1 = [0] * p
    for y in range(p):
        sq1[y * y % p] += 1
    n1 = 0
    for x in range(p):
        v = 0
        for a in reversed(coeffs):
            v = (v * x + a) % p
        n1 += sq1[v]
    n1 += 1 if deg % 2 else sq1[coeffs[-1]]

    # F_{p^2} = F_p[t]/(t^2 - n); a + b t is stored as a * p + b
    n = _nonresidue(p)
    sq2 = [0] * (p * p)
    for c in range(p):
        for d in range(p):
            sq2[(c * c + n * d * d) % p * p + 2 * c * d % p] += 1
    n2 = 0
    for a in range(p):
        for b in range(p):
            u, w = 0, 0
            for k in reversed(coeffs):
                u, w = (u * a + n * w * b + k) % p, (u * b + w * a) % p
            n2 += sq2[u * p + w]
    n2 += 1 if deg % 2 else sq2[coeffs[-1] * p]
    return n1, n2


# ---------------------------------------------------------------------------
# scan records

def check_scan(chk: Checker, fs, f, n: int, records: list[dict], label: str) -> None:
    """Identities on every record of one scan, plus naive counts at small p."""
    curve = fs.counting.make_curve(f)
    chk.check([r["p"] for r in records] == fs.counting.good_primes(curve, n),
              f"{label}: primes differ from good_primes")
    for r in records:
        p, c1 = r["p"], r["c1"]
        ok = r["n1"] == p + 1 + c1 and r["a1bar"] == c1 / math.sqrt(p)
        if curve.genus == 1:
            ok = ok and fs.lpoly.weil_check(fs.lpoly.LPoly(1, p, c1))
        else:
            lp = fs.lpoly.LPoly(2, p, c1, r["c2"])
            ok = (ok and r["n2"] == fs.lpoly.predicted_count(lp, 2)
                  and fs.lpoly.weil_check(lp) and r["a2bar"] == r["c2"] / p)
        chk.check(ok, f"{label}: record identities fail at p={p}")
        if p < NAIVE_PRIME_LIMIT:
            n1, n2 = naive_counts(f, p)
            got = (r["n1"], r.get("n2", n2))
            chk.check(got == (n1, n2), f"{label}: naive count {(n1, n2)} != {got} at p={p}")


def check_top_group(chk: Checker, classify_csv: bytes, expected: str | None,
                    label: str) -> None:
    if expected is None:
        return
    rows = parse_csv(classify_csv)
    top = rows[1][1] if len(rows) > 1 else None
    chk.check(top == expected, f"{label}: classifier top group {top}, expected {expected}")


# ---------------------------------------------------------------------------
# exact Haar moments, by quadrature on a grid of roots of unity

_GRID = 64  # exact for trigonometric polynomials of degree < 64


def _su2(t):
    return 1.0 - np.cos(2 * t)


def _haar_grid(group: str):
    """(a1, a2 or None, weight) over the grid for one catalog group."""
    t = 2 * np.pi * np.arange(_GRID) / _GRID
    one = np.ones_like(t)
    if group in ("U(1)", "SU(2)"):
        return 2 * np.cos(t), None, (one if group == "U(1)" else _su2(t))
    if group in ("U(1)_2", "SU(2)_2"):
        w = one if group == "U(1)_2" else _su2(t)
        return 4 * np.cos(t), 4 + 2 * np.cos(2 * t), w
    t1, t2 = np.meshgrid(t, t, indexing="ij")
    a1 = 2 * np.cos(t1) + 2 * np.cos(t2)
    a2 = 2 + 4 * np.cos(t1) * np.cos(t2)
    w = {
        "U(1)xU(1)": np.ones_like(t1),
        "U(1)xSU(2)": _su2(t2),
        "SU(2)xSU(2)": _su2(t1) * _su2(t2),
        "USp(4)": (2 - 2 * np.cos(2 * t1)) * (2 - 2 * np.cos(2 * t2))
        * (2 - 2 * np.cos(t1 + t2)) * (2 - 2 * np.cos(t1 - t2)) / 8,
    }[group]
    return a1, a2, w


def haar_moment(group: str, d1: int, d2: int) -> float:
    if group == "N(U(1))":
        return (haar_moment("U(1)", d1, 0) + (1.0 if d1 == 0 else 0.0)) / 2
    a1, a2, w = _haar_grid(group)
    integrand = a1**d1 * w
    if d2:
        integrand = integrand * a2**d2
    return float(integrand.mean())


def check_catalog_csv(chk: Checker, data: bytes) -> None:
    rows = parse_csv(data)[1:]
    moments = [r for r in rows if not r[1].startswith("mass_")]
    chk.check(len(moments) > 0, "catalog: no moment rows")
    for gid, d1, d2, value in moments:
        want = haar_moment(gid, int(d1), int(d2))
        got = float(Fraction(value))
        chk.check(abs(got - want) <= 1e-9 * max(1.0, abs(want)),
                  f"catalog: {gid} moment ({d1},{d2}) = {value}, quadrature {want}")
    masses = {(r[0], r[1], r[2]): r[3] for r in rows if r[1].startswith("mass_")}
    chk.check(masses == {("N(U(1))", "mass_a1", "0"): "1/2"},
              f"catalog: point masses {masses}")


def check_metadata_csv(chk: Checker, data: bytes) -> None:
    rows = parse_csv(data)[1:]
    realizable = sum(1 for r in rows if r[4] == "1")
    chk.check((len(rows), realizable) == (52, 34),
              f"metadata: {len(rows)} rows, {realizable} realizable; expected 52, 34")


def sample_moments(genus: int, angles: np.ndarray) -> dict[tuple[int, int], tuple[float, float]]:
    """Mean and standard error of a1^2, a1^4 (and a2) over a sample of
    eigenangles, keyed by the (d1, d2) of the matching exact moment."""
    if genus == 1:
        a1, a2 = 2 * np.cos(angles[:, 0]), None
    else:
        c1, c2 = np.cos(angles[:, 0]), np.cos(angles[:, 1])
        a1, a2 = 2 * (c1 + c2), 2 + 4 * c1 * c2

    def stat(x):
        return float(x.mean()), float(x.std()) / math.sqrt(len(x))

    out = {(2, 0): stat(a1**2), (4, 0): stat(a1**4)}
    if a2 is not None:
        out[(0, 1)] = stat(a2)
    return out


def check_sample(chk: Checker, group: str, moments, exact) -> None:
    """Sample moments (from `sample_moments`) within 6 standard errors."""
    for (d1, d2), (mean, se) in moments.items():
        want = float(exact(group, d1, d2))
        chk.check(abs(mean - want) <= 6 * se + 1e-12,
                  f"sampler {group}: moment ({d1},{d2}) {mean:.5f} vs {want}")


# ---------------------------------------------------------------------------
# Birch and Chebotarev

def naive_birch_moments(p: int, ds=(2, 4)) -> dict[int, Fraction]:
    chi = [0] + [1 if pow(a, (p - 1) // 2, p) == 1 else -1 for a in range(1, p)]
    tally: dict[int, int] = {}
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b * b) % p:
                t = -sum(chi[(x**3 + a * x + b) % p] for x in range(p))
                tally[t] = tally.get(t, 0) + 1
    total = sum(tally.values())
    return {d: Fraction(sum(t**d * c for t, c in tally.items()), total) for d in ds}


def check_birch_csv(chk: Checker, data: bytes, primes, naive_below: int = 20) -> None:
    rows = parse_csv(data)[1:]
    chk.check(sorted({int(r[0]) for r in rows}) == sorted(primes),
              "birch: primes in the report differ from the request")
    for p, d, brute, formula, match in rows:
        chk.check(match == "1" and brute == formula,
                  f"birch: p={p} d={d} brute force {brute} != formula {formula}")
    for p in primes:
        if p < naive_below:
            naive = naive_birch_moments(p)
            got = {int(r[1]): Fraction(r[2]) for r in rows if int(r[0]) == p}
            chk.check(all(got.get(d) == v for d, v in naive.items()),
                      f"birch: p={p} moments differ from the naive count")


# cycle-type frequencies of S3 and S4 (partition -> share)
CYCLE_TYPES = {
    3: {"1+1+1": Fraction(1, 6), "1+2": Fraction(1, 2), "3": Fraction(1, 3)},
    4: {"1+1+1+1": Fraction(1, 24), "1+1+2": Fraction(1, 4), "2+2": Fraction(1, 8),
        "1+3": Fraction(1, 3), "4": Fraction(1, 4)},
}


def check_chebotarev_csv(chk: Checker, data: bytes, degree: int, label: str) -> int:
    """Predicted column equals the S_n cycle types; observed shares lie
    within 6 standard errors of them.  Returns the number of primes used."""
    rows = parse_csv(data)[1:]
    predicted = {r[0]: Fraction(r[1]) for r in rows}
    chk.check(predicted == CYCLE_TYPES[degree], f"{label}: predicted {predicted}")
    used = sum(int(r[2]) for r in rows)
    for part, pred, obs, _, _ in rows:
        share = int(obs) / used if used else 0.0
        q = float(Fraction(pred))
        se = math.sqrt(q * (1 - q) / used) if used else 1.0
        chk.check(abs(share - q) <= 6 * se, f"{label}: shape {part} share {share:.4f} vs {q:.4f}")
    return used


def check_shapes_small(chk: Checker, fs, coeffs, limit: int, label: str) -> None:
    """Number of linear factors equals the naive root count, for p < limit."""
    for p in fs.arith.sieve_primes(limit):
        if coeffs[-1] % p == 0:
            continue
        try:
            shape = fs.chebotarev.factorization_shape(coeffs, p)
        except fs.chebotarev.SkippedPrimeError:
            continue
        roots = sum(1 for x in range(p)
                    if sum(a * pow(x, i, p) for i, a in enumerate(coeffs)) % p == 0)
        chk.check(shape.count(1) == roots and sum(shape) == len(coeffs) - 1,
                  f"{label}: shape {shape} at p={p} with {roots} roots")
