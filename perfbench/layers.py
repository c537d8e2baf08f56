"""Which frobstat functions are traced, and the per-layer metrics the spans give.

The layers are the package's modules.  Every traced function is public; a
private step is reached through the public call that wraps it (the F_p and
F_{p^2} counts are `count_points` with ext 1 and ext 2).
"""

from __future__ import annotations

import math
import statistics

from .tracer import Target, Tracer


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def targets(fs) -> list[Target]:
    """Trace targets for the loaded frobstat package `fs`."""
    return [
        Target(fs.arith, "character_table", "arith.character_table"),
        Target(fs.arith, "sieve_primes", "arith.sieve_primes"),
        Target(fs.counting, "make_curve", "counting.make_curve"),
        Target(fs.counting, "good_primes", "counting.good_primes"),
        Target(
            fs.counting, "count_points",
            lambda a, k: f"counting.count_ext{_arg(a, k, 2, 'ext', 1)}",
            note=lambda a, k, r: _arg(a, k, 1, "p"),
        ),
        Target(fs.lpoly, "lpoly_from_counts", "lpoly.lpoly_from_counts"),
        Target(fs.lpoly, "weil_check", "lpoly.weil_check"),
        Target(fs.scan, "run_scan", "scan.run_scan"),
        Target(
            fs.scan, "scan_curve", "scan.scan_curve",
            note=lambda a, k, r: _arg(a, k, 2, "threads", 1),
            quiet_inner=lambda a, k: _arg(a, k, 2, "threads", 1) > 1,
        ),
        Target(fs.scan, "record_for_prime", "scan.record_for_prime",
               note=lambda a, k, r: _arg(a, k, 1, "p")),
        Target(fs.scan, "write_records", "scan.write_records",
               note=lambda a, k, r: len(_arg(a, k, 0, "records"))),
        Target(fs.scan, "read_records", "scan.read_records",
               note=lambda a, k, r: len(r)),
        Target(fs.stats, "empirical_moments", "stats.empirical_moments"),
        Target(fs.stats, "records_density_map", "stats.records_density_map"),
        Target(fs.stats, "empirical_density", "stats.empirical_density"),
        Target(fs.stats, "histogram", "stats.histogram"),
        Target(fs.stats, "classify", "stats.classify"),
        Target(fs.haar, "catalog", "haar.catalog"),
        Target(fs.haar, "exact_moment", "haar.exact_moment"),
        Target(fs.haar, "st_axiom_check", "haar.st_axiom_check"),
        Target(fs.haar, "sample_classes", "haar.sample_classes"),
        Target(fs.laurent.LaurentPoly, "__mul__", "laurent.mul",
               note=lambda a, k, r: len(r)),
        Target(fs.birch, "ap_distribution", "birch.ap_distribution",
               note=lambda a, k, r: r.total),
        Target(fs.birch, "tau_of_prime", "birch.tau_of_prime"),
        Target(fs.chebotarev, "chebotarev_scan", "chebotarev.chebotarev_scan",
               note=lambda a, k, r: (r.primes_used, r.primes_skipped)),
        Target(fs.chebotarev, "factorization_shape", "chebotarev.factorization_shape"),
        Target(fs.cli, "main", "cli.main"),
    ]


def cost_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(p), fitted on the
    upper half of the prime range where per-call overhead no longer hides
    the asymptotic cost.  0.0 when there is nothing to fit."""
    if not points:
        return 0.0
    top = max(p for p, _ in points)
    xs, ys = [], []
    for p, dt in points:
        if 2 * p >= top and dt > 0:
            xs.append(math.log(p))
            ys.append(math.log(dt))
    if len(xs) < 3:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def pass_metrics(tracer: Tracer, first: int, wall: float, threads: int) -> dict:
    """Per-layer figures from the spans recorded since index `first`, for one
    traced pass of `wall` seconds.  Figures for layers the pass did not
    exercise come out as 0."""
    spans = tracer.spans[first:]
    own = tracer.self_times()[first:]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    top = 0.0
    for (name, start, end, parent, _), s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        if parent is None:
            top += end - start

    def by_name(name):
        return [sp for sp in spans if sp[0] == name]

    ext1 = [(sp[4], sp[2] - sp[1]) for sp in by_name("counting.count_ext1")]
    ext2 = [(sp[4], sp[2] - sp[1]) for sp in by_name("counting.count_ext2")]
    ext2_max = 0.0
    if ext2:
        pmax = max(p for p, _ in ext2)
        ext2_max = statistics.median(dt for p, dt in ext2 if p == pmax)
    scans = by_name("scan.scan_curve")
    scan_s = sum(sp[2] - sp[1] for sp in scans if sp[4] == threads)
    record_work = total.get("scan.record_for_prime", 0.0)
    shapes = [sp[4] for sp in by_name("chebotarev.chebotarev_scan")]
    return {
        "arith.character_table_s": total.get("arith.character_table", 0.0),
        "arith.character_table_calls": calls.get("arith.character_table", 0),
        "arith.sieve_primes_s": total.get("arith.sieve_primes", 0.0),
        "counting.count_ext1_s": total.get("counting.count_ext1", 0.0),
        "counting.count_ext1_calls": calls.get("counting.count_ext1", 0),
        "counting.count_ext2_s": total.get("counting.count_ext2", 0.0),
        "counting.count_ext2_calls": calls.get("counting.count_ext2", 0),
        "counting.ext2_max_prime_s": ext2_max,
        "counting.ext1_cost_exponent": cost_exponent(ext1),
        "counting.ext2_cost_exponent": cost_exponent(ext2),
        "counting.make_curve_s": total.get("counting.make_curve", 0.0),
        "counting.good_primes_s": total.get("counting.good_primes", 0.0),
        "lpoly.lpoly_from_counts_s": total.get("lpoly.lpoly_from_counts", 0.0),
        "lpoly.weil_check_calls": calls.get("lpoly.weil_check", 0),
        "scan.scan_curve_s": scan_s,
        "scan.record_work_s": record_work,
        "scan.pool_efficiency": record_work / (threads * scan_s) if scan_s else 0.0,
        "scan.write_records_s": total.get("scan.write_records", 0.0),
        "scan.read_records_s": total.get("scan.read_records", 0.0),
        "scan.records": sum(sp[4] for sp in by_name("scan.write_records")),
        "stats.empirical_moments_s": total.get("stats.empirical_moments", 0.0),
        "stats.records_density_map_s": total.get("stats.records_density_map", 0.0),
        "stats.histogram_s": total.get("stats.histogram", 0.0),
        "stats.classify_s": total.get("stats.classify", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "haar.catalog_build_s": total.get("haar.catalog", 0.0),
        "haar.exact_moment_s": total.get("haar.exact_moment", 0.0),
        "haar.exact_moment_calls": calls.get("haar.exact_moment", 0),
        "haar.st_axiom_check_s": total.get("haar.st_axiom_check", 0.0),
        "haar.sample_classes_s": total.get("haar.sample_classes", 0.0),
        "laurent.mul_calls": calls.get("laurent.mul", 0),
        "laurent.mul_s": total.get("laurent.mul", 0.0),
        "laurent.max_terms": max((sp[4] for sp in by_name("laurent.mul")), default=0),
        "birch.ap_distribution_s": total.get("birch.ap_distribution", 0.0),
        "birch.pairs": sum(sp[4] for sp in by_name("birch.ap_distribution")),
        "chebotarev.factorization_shape_s": total.get("chebotarev.factorization_shape", 0.0),
        "chebotarev.primes_used": sum(u for u, _ in shapes),
        "chebotarev.primes_skipped": sum(s for _, s in shapes),
        # time inside a layer below the CLI: top-level spans less the CLI's own time
        "trace.coverage": (top - self_s.get("cli.main", 0.0)) / wall if wall > 0 else 0.0,
    }
