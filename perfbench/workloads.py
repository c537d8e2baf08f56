"""The three workloads.  Each drives frobstat through its public functions
and through `frobstat.cli.main(argv)` in this process.

A pass is one repetition of a workload's work on the same inputs.  It
returns its wall time, the end-to-end figures measured inside it and the
bytes of every file it wrote; the checks look at those bytes afterwards,
outside the timed region.  The first pass of a run is checked in full,
later passes must reproduce its outputs byte for byte.

Why these three (BENCHMARK.json carries a one-line version of each):
- g1-pipeline: many cheap primes.  Time goes to the F_p count, the
  character table and the per-record write/read path; no F_{p^2} work and
  no process pool.  Scans write, the queries re-read, so a read-side cost
  shows here.
- g2-scan: cost per prime grows like p^2, so the F_{p^2} count and the
  process-pool scheduling carry the work.  The sextic has no rational root,
  the case a Cartier-Manin fast path would have to fall back on.
- catalog-side: the exact Haar engine, the sampler, Birch and Chebotarev,
  with no point counting on curves at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .host import usable_cpus
from .inputs import catalog_inputs, genus1_curves, genus2_curves

_clock = time.perf_counter

G1_N = 2**13
G2_N = 2**10
POOL_PROBE_N = 31  # a threaded scan with too little work to hide pool start-up
AXIOM_WEIGHT = 8
SAMPLER_DRAWS = 100_000
CHEBOTAREV_N = 10_000


def _coeffs(f) -> str:
    return ",".join(map(str, f))


@dataclass
class PassResult:
    wall: float = 0.0
    primes: int = 0  # primes handled by the workload's per-prime loop
    prime_loop_s: float = 0.0
    report_s: float = 0.0
    outputs: dict[str, bytes] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)  # timings of single steps
    scratch: dict = field(default_factory=dict)  # read by the first-pass checks only


class Workload:
    name = ""
    threads = 1
    seed_free_outputs: tuple[str, ...] = ()  # outputs that no seed changes
    gap = None  # called between the steps of a pass, outside every timer

    def __init__(self, fs, seed: int, workdir: str, chk: checks.Checker):
        self.fs = fs
        self.seed = seed
        self.workdir = workdir
        self.chk = chk
        # the cached functions themselves, so a pass can clear them even
        # while tracing has rebound the module names
        self._cached = (fs.haar.catalog, fs.haar.exact_moment)

    def clear_caches(self) -> None:
        """Forget the cached catalog and exact moments."""
        for fn in self._cached:
            fn.cache_clear()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, *argv) -> float:
        """Run one CLI command in-process, as cold as a fresh `frobstat`
        process; returns its wall seconds and counts a nonzero exit or an
        escaped exception as a failed op."""
        argv = [str(a) for a in argv]
        sink = io.StringIO()
        self.clear_caches()
        t0 = _clock()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.fs.cli.main(argv)
        except (Exception, SystemExit) as e:  # a crash is a failed op, not a crash of the run
            code = repr(e)
        dt = _clock() - t0
        self.chk.check(code == 0, f"frobstat {' '.join(argv)} -> {code}: {sink.getvalue()[-300:]}")
        return dt

    @contextlib.contextmanager
    def untimed(self):
        """Work inside a pass that its wall time leaves out."""
        t0 = _clock()
        try:
            yield
        finally:
            self._gap_s += _clock() - t0

    def between_steps(self) -> None:
        if self.gap is not None:
            with self.untimed():
                self.gap()

    def start_pass(self) -> float:
        self._gap_s = 0.0
        return _clock()

    def pass_wall(self, t0: float) -> float:
        return _clock() - t0 - self._gap_s

    def read(self, name: str) -> bytes:
        """A file the pass wrote; empty if the command that writes it failed
        (that failure is already counted, and the checks fail on it)."""
        try:
            with open(self.path(name), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def run_pass(self, traced_layout: bool = False) -> PassResult:
        raise NotImplementedError

    def check_first(self, res: PassResult) -> None:
        raise NotImplementedError

    def trace_extras(self, untraced: list[PassResult]) -> dict:
        """Run-level per-layer figures a workload measures outside its passes."""
        return {"scan.pool_startup_s": 0.0, "scan.speedup_2t_n1024": 0.0}


# ---------------------------------------------------------------------------

class _ScanWorkload(Workload):
    n = 0
    queries: tuple[tuple[str, ...], ...] = ()

    def curves(self):
        raise NotImplementedError

    def run_pass(self, traced_layout: bool = False) -> PassResult:
        res = PassResult()
        t0 = self.start_pass()
        tags = ("a", "b")
        serial = traced_layout and self.threads > 1
        for tag, curve in zip(tags, self.curves()):
            res.extra[f"{tag}.scan_s"] = self.cli(
                "scan", f"--f={_coeffs(curve.f)}", "--N", self.n,
                "--threads", self.threads, "--out", self.path(f"{tag}.jsonl"))
            res.prime_loop_s += res.extra[f"{tag}.scan_s"]
            self.between_steps()
        for tag in tags:
            for q in self.queries:
                res.report_s += self.cli(*q, "--in", self.path(f"{tag}.jsonl"),
                                         "--out", self.path(f"{tag}.{q[0]}.csv"))
            self.between_steps()
        if serial:
            # the serial scans whose per-prime spans give the layer figures
            for tag, curve in zip(tags, self.curves()):
                res.extra[f"{tag}.serial_s"] = self.cli(
                    "scan", f"--f={_coeffs(curve.f)}", "--N", self.n,
                    "--threads", 1, "--out", self.path(f"{tag}.serial.jsonl"))
        res.wall = self.pass_wall(t0)
        for tag in tags:
            res.outputs[f"{tag}.jsonl"] = self.read(f"{tag}.jsonl")
            for q in self.queries:
                res.outputs[f"{tag}.{q[0]}.csv"] = self.read(f"{tag}.{q[0]}.csv")
            if serial:
                res.outputs[f"{tag}.serial.jsonl"] = self.read(f"{tag}.serial.jsonl")
        res.primes = sum(res.outputs[f"{t}.jsonl"].count(b"\n") for t in tags)
        return res

    def check_first(self, res: PassResult) -> None:
        for tag, curve in zip(("a", "b"), self.curves()):
            data = res.outputs[f"{tag}.jsonl"]
            checks.check_scan(self.chk, self.fs, curve.f, self.n,
                              checks.parse_jsonl(data), f"{self.name}/{curve.name}")
            checks.check_top_group(self.chk, res.outputs[f"{tag}.classify.csv"],
                                   curve.expected_group, f"{self.name}/{curve.name}")
            serial = res.outputs.get(f"{tag}.serial.jsonl")
            if serial is not None:
                self.chk.check(serial == data, f"{self.name}/{curve.name}: "
                               f"threaded JSONL differs from the serial scan")


class G1Pipeline(_ScanWorkload):
    name = "g1-pipeline"
    threads = 1
    n = G1_N
    queries = (
        ("moments",),
        ("density", "--stat", "a1", "--value", "0"),
        ("hist", "--bins", "40"),
        ("classify",),
    )

    def curves(self):
        return genus1_curves(self.seed)


class G2Scan(_ScanWorkload):
    name = "g2-scan"
    threads = min(2, usable_cpus())
    n = G2_N
    queries = (("moments",), ("classify",))

    def curves(self):
        return genus2_curves(self.seed)

    def trace_extras(self, untraced: list[PassResult]) -> dict:
        if self.threads < 2:
            return super().trace_extras(untraced)
        quintic = self.fs.counting.make_curve(self.curves()[0].f)
        probes = []
        for _ in range(3):
            t0 = _clock()
            self.fs.scan.scan_curve(quintic, POOL_PROBE_N, self.threads)
            probes.append(_clock() - t0)
        # criterion 06's measurement: the quintic at N = 1024, serial over threaded
        ratios = [res.extra["a.serial_s"] / res.extra["a.scan_s"] for res in untraced]
        return {
            "scan.pool_startup_s": sorted(probes)[1],
            "scan.speedup_2t_n1024": sorted(ratios)[len(ratios) // 2],
        }


# ---------------------------------------------------------------------------

class CatalogSide(Workload):
    name = "catalog-side"
    threads = 1
    seed_free_outputs = ("catalog.csv", "metadata.csv")

    def __init__(self, fs, seed, workdir, chk):
        super().__init__(fs, seed, workdir, chk)
        self.inputs = catalog_inputs(seed)
        self._cheb_primes = len(fs.arith.sieve_primes(CHEBOTAREV_N))

    def run_pass(self, traced_layout: bool = False) -> PassResult:
        fs = self.fs
        res = PassResult()
        t0 = self.start_pass()
        res.report_s += self.cli("catalog", "--out", self.path("catalog.csv"))
        res.report_s += self.cli("catalog", "--metadata", "--out", self.path("metadata.csv"))
        self.between_steps()
        entries = fs.haar.catalog()
        reports = [fs.haar.st_axiom_check(e, AXIOM_WEIGHT) for e in entries]
        self.between_steps()
        digest = hashlib.sha256()
        moments = [(e.id, self.draw(e, self.inputs.sampler_seed + i, digest))
                   for i, e in enumerate(entries)]
        self.cli("birch", "--p", _coeffs(self.inputs.birch_primes),
                 "--out", self.path("birch.csv"))
        self.between_steps()
        for i, poly in enumerate(self.inputs.polys):
            res.prime_loop_s += self.cli(
                "chebotarev", f"--poly={_coeffs(poly.coeffs)}", "--group", poly.group,
                "--N", CHEBOTAREV_N, "--out", self.path(f"chebotarev{i}.csv"))
            self.between_steps()
        res.wall = self.pass_wall(t0)

        res.primes = len(self.inputs.polys) * self._cheb_primes
        for name in ("catalog.csv", "metadata.csv", "birch.csv"):
            res.outputs[name] = self.read(name)
        for i in range(len(self.inputs.polys)):
            res.outputs[f"chebotarev{i}.csv"] = self.read(f"chebotarev{i}.csv")
        res.outputs["axiom.txt"] = "\n".join(
            f"{r.group_id} {r.ok} {r.failures}" for r in reports).encode()
        res.outputs["samples.sha256"] = digest.hexdigest().encode()
        res.scratch["sample_moments"] = moments
        res.scratch["axiom_ok"] = [r.ok for r in reports]
        return res

    def draw(self, entry, seed: int, digest) -> dict:
        """One timed `sample_classes` draw.  The sample is hashed into `digest`
        and reduced to its moments untimed, then dropped, so the run's peak
        memory is frobstat's rather than a store of samples."""
        angles = self.fs.haar.sample_classes(entry.id, SAMPLER_DRAWS, seed)
        with self.untimed():
            digest.update(np.ascontiguousarray(angles))
            return checks.sample_moments(entry.genus, angles)

    def check_first(self, res: PassResult) -> None:
        chk, fs = self.chk, self.fs
        checks.check_catalog_csv(chk, res.outputs["catalog.csv"])
        checks.check_metadata_csv(chk, res.outputs["metadata.csv"])
        chk.check(len(res.scratch["axiom_ok"]) == 9 and all(res.scratch["axiom_ok"]),
                  f"axiom check: {res.outputs['axiom.txt'].decode()}")
        for gid, moments in res.scratch["sample_moments"]:
            checks.check_sample(chk, gid, moments, fs.haar.exact_moment)
        checks.check_birch_csv(chk, res.outputs["birch.csv"], self.inputs.birch_primes)
        for i, poly in enumerate(self.inputs.polys):
            checks.check_chebotarev_csv(chk, res.outputs[f"chebotarev{i}.csv"],
                                        len(poly.coeffs) - 1, f"chebotarev {poly.name}")
            checks.check_shapes_small(chk, fs, poly.coeffs, 500, f"chebotarev {poly.name}")


WORKLOADS = {w.name: w for w in (G1Pipeline, G2Scan, CatalogSide)}
