#!/usr/bin/env python3
"""frobstat benchmark: run one workload for one seed and print the result.

    python3 perfbench/run.py --workload g1-pipeline --seed 0 --seconds 25 --trace 0

Run from the root of a frobstat checkout; the package is imported from
`src/` there.  Passes of the workload repeat until --seconds of measured
work are spent; end-to-end figures are medians over the passes.  With
--trace 1 the run alternates untraced and traced passes and reports the
per-layer figures instead, plus the tracing overhead.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
The line before it holds host facts and the first failures, if any.
Working files and the span log go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 7

sys.path.insert(0, str(ROOT))

from perfbench import checks, layers  # noqa: E402
from perfbench.host import (  # noqa: E402
    REFERENCE_START_CODE, REFERENCE_START_S, Calibration, host_facts, peak_rss_mb)
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

_SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import frobstat; frobstat.catalog()"


def load_package():
    """Import frobstat from this checkout's src/, and nowhere else."""
    if not (SRC / "frobstat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no frobstat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import frobstat
    import frobstat.arith, frobstat.birch, frobstat.chebotarev, frobstat.cli  # noqa: E401,F401
    import frobstat.counting, frobstat.haar, frobstat.laurent, frobstat.lpoly  # noqa: E401,F401
    import frobstat.scan, frobstat.stats  # noqa: E401,F401

    if Path(frobstat.__file__).resolve().parent != (SRC / "frobstat").resolve():
        raise SystemExit(f"perfbench: imported frobstat from {frobstat.__file__}")
    return frobstat


def _start(code: str, *args: str) -> float:
    """Wall seconds of one fresh interpreter running `code`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, *args], cwd=ROOT)
    # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would quantize the figure, so a timer enforces the limit
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    if code:
        raise SystemExit(f"perfbench: set-up interpreter exited with {code}")
    return time.perf_counter() - t0


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing frobstat and
    building catalog(), and of the reference interpreter started in turn
    with it; one untimed start of each first compiles the bytecode."""
    own, ref = [], []
    for i in range(SETUP_REPEATS + 1):
        t = _start(_SETUP_CODE, str(SRC))
        r = _start(REFERENCE_START_CODE)
        if i:
            own.append(t)
            ref.append(r)
    return statistics.median(own), statistics.median(ref)


def recorded_digests(wl) -> dict[str, str]:
    table = json.loads(DIGESTS.read_text()).get(wl.name, {}) if DIGESTS.exists() else {}
    if wl.seed == 0:
        return table
    return {k: v for k, v in table.items() if k in wl.seed_free_outputs}


def settle(wl, chk, res, first, recorded):
    """Check a finished pass and drop its outputs.  The first pass is checked
    in full and against the recorded digests; later ones must reproduce it.
    Returns the first pass's output digests."""
    digests = {k: checks.sha256(v) for k, v in res.outputs.items()}
    if first is None:
        wl.check_first(res)
        for name, want in recorded.items():
            if name in res.outputs:
                chk.digest(name, res.outputs[name], want)
        first = digests
    else:
        for name, want in first.items():
            chk.check(digests.get(name) == want, f"{name} differs from the first pass")
    res.outputs.clear()
    res.scratch.clear()
    return first


def timed_run(wl, chk, seconds, recorded):
    """Passes until `seconds` of measured work are spent.  Time figures are
    medians over passes, scaled by the host speed the calibration kernel
    saw during the passes; set-up is scaled by the reference start."""
    setup_s, reference_start_s = measure_setup()
    cal = Calibration()
    wl.gap = cal.sample
    passes, first, spent = [], None, 0.0
    while True:
        res = wl.run_pass()
        first = settle(wl, chk, res, first, recorded)
        passes.append(res)
        spent += res.wall
        if spent + res.wall > seconds:
            break
    med = statistics.median
    raw = {
        "setup_s": setup_s,
        "wall_s": med(r.wall for r in passes),
        "primes_per_s": med(r.primes / r.prime_loop_s for r in passes),
        "report_s": med(r.report_s for r in passes),
    }
    scale = cal.scale
    metrics = {
        "setup_s": setup_s * REFERENCE_START_S / reference_start_s,
        "wall_s": raw["wall_s"] * scale,
        "primes_per_s": raw["primes_per_s"] / scale,
        "report_s": raw["report_s"] * scale,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, {"raw": raw, "host_scale": scale, "reference_start_s": reference_start_s,
                     "pass_walls": [r.wall for r in passes], "first_outputs": first}


def traced_run(wl, chk, seconds, recorded, fs):
    """A checked warm-up pass, then untraced and traced passes in turn until
    `seconds` are spent.  Per-layer figures come from the traced passes;
    the tracing overhead is the difference of the median pass walls."""
    tracer = Tracer()
    targets = layers.targets(fs)
    untraced, traced, per_pass = [], [], []
    # the first pass is checked in full and warms caches; it is not compared
    warm = wl.run_pass(traced_layout=True)
    first = settle(wl, chk, warm, None, recorded)
    spent = warm.wall
    while True:
        u = wl.run_pass(traced_layout=True)
        settle(wl, chk, u, first, recorded)
        tracer.install(targets)
        tracer.recording = True
        mark = len(tracer.spans)
        try:
            t = wl.run_pass(traced_layout=True)
        finally:
            tracer.recording = False
            tracer.uninstall()
        m = layers.pass_metrics(tracer, mark, t.wall, wl.threads)
        m["scan.jsonl_bytes"] = sum(len(v) for k, v in t.outputs.items()
                                    if k.endswith(".jsonl") and not k.endswith(".serial.jsonl"))
        settle(wl, chk, t, first, recorded)
        untraced.append(u)
        traced.append(t)
        per_pass.append(m)
        spent += u.wall + t.wall
        if spent + u.wall + t.wall > seconds:
            break
    # median_low keeps counts whole and every figure a value some pass measured
    metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
    metrics.update(wl.trace_extras([warm] + untraced))
    overhead = (statistics.median(t.wall for t in traced)
                - statistics.median(u.wall for u in untraced))
    metrics["trace.overhead_s"] = overhead
    tracer.write(os.path.join(wl.workdir, "spans.jsonl"))
    return metrics, {"pass_walls": [r.wall for r in untraced],
                     "traced_pass_walls": [r.wall for r in traced],
                     "tracing_overhead_s": overhead, "spans": len(tracer.spans)}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="after a clean seed-0 timed run, store its output digests")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.record_digests and (args.seed != 0 or args.trace):
        ap.error("--record-digests needs --seed 0 --trace 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fs = load_package()

    workdir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    chk = checks.Checker()
    wl = WORKLOADS[args.workload](fs, args.seed, str(workdir), chk)
    # re-recording compares nothing with the old digests; every other check still gates
    recorded = {} if args.record_digests else recorded_digests(wl)

    if args.trace:
        metrics, info = traced_run(wl, chk, args.seconds, recorded, fs)
        declared = spec["per_layer"]
    else:
        metrics, info = timed_run(wl, chk, args.seconds, recorded)
        declared = spec["end_to_end"]
    first_outputs = info.pop("first_outputs", None)
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(names))} "
                         f"are not both measured and declared")

    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, **info,
        "host": {**host_facts(), "tracing_overhead_s": info.get("tracing_overhead_s")},
        "failed_ops_ratio": chk.failed / max(chk.attempted, 1),
        "failures": chk.failures,
    }
    (workdir / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    if args.record_digests and chk.failed == 0:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table[wl.name] = {k: v for k, v in sorted(first_outputs.items())
                          if k.endswith((".jsonl", ".csv"))}
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    print(json.dumps(report))
    print(json.dumps({
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
