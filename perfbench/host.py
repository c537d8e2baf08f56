"""Host facts, peak memory, and the host-speed calibration.

The benchmark is meant for small shared machines whose speed drifts by
10-20% over seconds to minutes as neighbours come and go.  A fixed kernel
is timed between the steps of every pass; its median time over a run says
how fast the host ran during that run.  The kernel mixes the three kinds of
work frobstat does: Fraction arithmetic in dicts (the exact engine), a
pure-Python integer loop (character tables) and int64 numpy sweeps (the
point counts).  It calls no frobstat code, so a change to frobstat cannot
move it.  End-to-end times are reported scaled to the speed at which the
kernel takes REFERENCE_KERNEL_S; the raw figures and the scale go to the
report line next to the result.  Set-up time has its own reference, below.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from fractions import Fraction

import numpy as np

# median kernel time on a 2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4
REFERENCE_KERNEL_S = 0.012

# Process start-up (imports: file reads, unmarshalling, shared libraries)
# drifts differently from the kernel, so set-up is scaled by a reference
# interpreter that imports numpy and nothing of frobstat, started in turn
# with the measured ones.  Its median start on the same VM:
REFERENCE_START_CODE = "import numpy"
REFERENCE_START_S = 0.17
_SWEEP = np.arange(1 << 15, dtype=np.int64)


def _kernel() -> int:
    table: dict[int, Fraction] = {}
    for i in range(1500):
        k = i * 7919 % 499
        table[k] = table.get(k, Fraction(0)) + Fraction(i, k + 1)
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    x = _SWEEP
    for _ in range(16):
        x = (x * 31 + 7) % 65521
    return len(table) + acc + int(x[-1])


class Calibration:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, k: int = 2) -> None:
        for _ in range(k):
            t0 = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - t0)

    @property
    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference-host
        seconds: reference kernel time over the run's median kernel time."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for
    (pool workers, set-up interpreters); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, as `nproc` counts)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def host_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": usable_cpus(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
