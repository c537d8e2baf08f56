"""Command-line front end.

Subcommands: scan, moments, density, hist, classify, catalog, birch,
chebotarev.  All reports are CSV (stdout, or --out FILE); reals carry 12
significant digits, exact rationals print as num/den.  Exit codes: 0 ok,
2 bad configuration or arguments, 3 I/O failure, 4 internal validation
failure (e.g. a Weil-bound violation, which would indicate a bug).

Polynomial coefficients on the command line are ascending: "--f 1,1,0,1"
means 1 + x + x^3, i.e. the curve y^2 = x^3 + x + 1.
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction

from .birch import ap_distribution, birch_formula, tau_of_prime
from .chebotarev import chebotarev_scan, parse_cycles
from .counting import WeilBoundError
from .haar import catalog, exact_moment, moment_orders
from .lpoly import LPolyValidationError
from .scan import ScanConfig, read_records, run_scan, write_records
from .stats import (
    classify,
    empirical_density,
    empirical_moments,
    histogram,
    records_density_map,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _real(x: float) -> str:
    return f"{x:.12g}"


def _rat(x: Fraction) -> str:
    return str(Fraction(x))


def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(" ", "").split(",") if t != "")
    except ValueError as e:
        raise ValueError(f"bad coefficient list {text!r}: {e}") from None


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"bad rational {text!r}: zero denominator") from None


def _open_out(args):
    if args.out:
        return open(args.out, "w", newline="")
    return None


def _emit(args, header, rows):
    fh = _open_out(args)
    target = fh if fh is not None else sys.stdout
    try:
        w = csv.writer(target, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    finally:
        if fh is not None:
            fh.close()


def _load_records(args):
    with open(args.infile) as fh:
        records = read_records(fh)
    if not records:
        raise ValueError(f"no records in {args.infile}")
    return records


# -- subcommand handlers ----------------------------------------------------

def _cmd_scan(args) -> int:
    cfg = ScanConfig(
        f_coeffs=_parse_coeffs(args.f),
        n=args.N,
        threads=args.threads,
        out=args.out,
    )
    _, records = run_scan(cfg)
    if cfg.out is None:
        write_records(records, sys.stdout)
    return EXIT_OK


def _cmd_moments(args) -> int:
    records = _load_records(args)
    table = empirical_moments(records, dmax=args.dmax)
    rows = [
        (d1, d2, _real(s.value), _real(s.stderr), s.n)
        for (d1, d2), s in sorted(table.entries.items())
    ]
    _emit(args, ["d1", "d2", "value", "stderr", "n"], rows)
    return EXIT_OK


def _cmd_density(args) -> int:
    records = _load_records(args)
    d = empirical_density(records, args.stat, _parse_rational(args.value))
    _emit(
        args,
        ["statistic", "value", "hits", "n", "frequency"],
        [(d.statistic, _rat(d.value), d.hits, d.n, _rat(d.frequency))],
    )
    return EXIT_OK


def _cmd_hist(args) -> int:
    records = _load_records(args)
    genus = records[0].genus
    if args.stat == "a1":
        values = [r.a1bar for r in records]
        lo, hi = (-2.0, 2.0) if genus == 1 else (-4.0, 4.0)
    else:
        if genus != 2:
            raise ValueError("a2 histogram needs a genus-2 scan")
        values = [r.a2bar for r in records]
        lo, hi = -2.0, 6.0
    if args.lo is not None:
        lo = args.lo
    if args.hi is not None:
        hi = args.hi
    h = histogram(values, args.bins, lo, hi)
    rows = [
        (_real(r.left), _real(r.right), r.count, _real(r.density)) for r in h.rows
    ]
    _emit(args, ["left", "right", "count", "density"], rows)
    if h.clamped:
        print(f"# {h.clamped} values clamped into end bins", file=sys.stderr)
    return EXIT_OK


def _cmd_classify(args) -> int:
    records = _load_records(args)
    table = empirical_moments(records, dmax=8)
    ranked = classify(table, records_density_map(records))
    rows = [
        (rank + 1, gid, _real(score)) for rank, (gid, score) in enumerate(ranked)
    ]
    _emit(args, ["rank", "group_id", "score"], rows)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.metadata:
        rows = []
        for entry in catalog():
            if entry.genus != 2:
                continue
            for r in entry.component_rows:
                rows.append(
                    (
                        entry.id,
                        entry.end_algebra,
                        r.label,
                        r.name,
                        int(r.q_realizable),
                    )
                )
        _emit(
            args,
            ["connected_part", "end_tensor_r", "component_group", "name", "q_realizable"],
            rows,
        )
        return EXIT_OK
    rows = []
    for entry in catalog():
        for d1, d2 in [(0, 0)] + moment_orders(entry.genus, 8):
            rows.append((entry.id, d1, d2, _rat(exact_moment(entry.id, d1, d2))))
        for stat, value, mass in entry.point_masses:
            rows.append((entry.id, f"mass_{stat}", _rat(value), _rat(mass)))
    _emit(args, ["group_id", "d1", "d2", "value"], rows)
    return EXIT_OK


def _cmd_birch(args) -> int:
    primes = [int(t) for t in args.p.split(",") if t]
    rows = []
    for p in primes:
        dist = ap_distribution(p)
        tau_p = tau_of_prime(p) if args.dmax >= 10 else None
        for d in range(2, args.dmax + 1, 2):
            brute = dist.moment(d)
            form = birch_formula(p, d, tau_p if d == 10 else None)
            rows.append((p, d, _rat(brute), _rat(form), int(brute == form)))
    _emit(args, ["p", "d", "bruteforce", "formula", "match"], rows)
    return EXIT_OK


def _cmd_chebotarev(args) -> int:
    coeffs = _parse_coeffs(args.poly)
    deg = len(coeffs) - 1
    generators = [parse_cycles(part, deg) for part in args.group.split(";") if part]
    st = chebotarev_scan(coeffs, generators, args.N)
    rows = []
    for part, pred in st.predicted.items():
        obs = st.observed.get(part, 0)
        freq = st.frequency(part)
        rows.append(
            (
                "+".join(map(str, part)),
                _rat(pred),
                obs,
                _rat(freq),
                _real(abs(float(freq) - float(pred))),
            )
        )
    _emit(
        args,
        ["partition", "predicted", "observed", "frequency", "abs_error"],
        rows,
    )
    return EXIT_OK


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="frobstat",
        description="Frobenius statistics for genus 1 and 2 curves",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("scan", help="count a curve at all good primes <= N")
    p.add_argument("--f", required=True, help="ascending coefficients of f, e.g. 1,1,0,1")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("moments", help="empirical moment table from a scan")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dmax", type=int, default=8)
    common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("density", help="exact point-mass frequency from a scan")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--stat", choices=["a1", "a2"], default="a1")
    p.add_argument("--value", default="0", help="rational, e.g. 0 or -2 or 1/2")
    common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("hist", help="histogram of a normalized statistic")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--stat", choices=["a1", "a2"], default="a1")
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    common(p)
    p.set_defaults(func=_cmd_hist)

    p = sub.add_parser("classify", help="rank candidate groups for a scan")
    p.add_argument("--in", dest="infile", required=True)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("catalog", help="exact moment/density table of the groups")
    p.add_argument("--metadata", action="store_true",
                   help="emit the component-group classification rows instead")
    common(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("birch", help="fixed-prime trace moments vs closed forms")
    p.add_argument("--p", default="5,7,11,13", help="comma-separated primes")
    p.add_argument("--dmax", type=int, default=10)
    common(p)
    p.set_defaults(func=_cmd_birch)

    p = sub.add_parser("chebotarev", help="factorization shapes vs cycle types")
    p.add_argument("--poly", required=True, help="ascending coefficients of f")
    p.add_argument("--group", required=True,
                   help="generators in cycle notation, e.g. '(1 2);(1 2 3)'")
    p.add_argument("--N", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_chebotarev)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code
    try:
        return args.func(args)
    except (WeilBoundError, LPolyValidationError, AssertionError) as e:
        print(f"internal validation failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
