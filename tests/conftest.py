import time

import pytest

from frobstat.counting import make_curve
from frobstat.scan import scan_curve


@pytest.fixture(scope="session")
def su2_scan():
    """Scan of y^2 = x^3 + x + 1 over odd good primes below 2^13.

    Returns (curve, records, elapsed_seconds).  Shared because the scan
    is the expensive part and several tests only read the records.
    """
    curve = make_curve([1, 1, 0, 1])
    t0 = time.perf_counter()
    records = scan_curve(curve, 8192)
    return curve, records, time.perf_counter() - t0


@pytest.fixture(scope="session")
def cm_scan():
    """Scan of y^2 = x^3 + 1 (extra endomorphisms over Q(zeta_3)) below 2^13."""
    curve = make_curve([1, 0, 0, 1])
    t0 = time.perf_counter()
    records = scan_curve(curve, 8192)
    return curve, records, time.perf_counter() - t0


@pytest.fixture(scope="session")
def genus2_scan():
    """Single-threaded scan of y^2 = x^5 - x + 1 below 2^12, with timing."""
    curve = make_curve([1, -1, 0, 0, 0, 1])
    t0 = time.perf_counter()
    records = scan_curve(curve, 4096, threads=1)
    return curve, records, time.perf_counter() - t0
