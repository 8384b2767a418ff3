"""The host-speed probe: a fixed piece of pure-Python work, timed between
queries, that tracks how fast the shared host runs at the moment.

The work resembles ppm's own (Fraction sums, 2x2 integer products mod m)
but uses no ppm code, so no change to ppm can move it. A run scales its
times by REFERENCE_S / (median probe time): the figures it reports are the
times the same run would have taken on a host where the probe takes
REFERENCE_S. The wall times are reported next to them.
"""
from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0005  # probe time that defines the nominal host speed


def probe() -> float:
    """Seconds the probe's work took just now."""
    enabled = gc.isenabled()
    gc.disable()  # the cyclic collector's pauses depend on the heap ppm left
    try:
        start = perf_counter()
        s = Fraction(0)
        for i in range(1, 120):
            s += Fraction(1, i)
        m = [[3, 5], [7, 11]]
        for _ in range(150):
            m = [[(m[0][0] * 3 + m[0][1] * 7) % 1009, (m[0][0] * 5 + m[0][1] * 11) % 1009],
                 [(m[1][0] * 3 + m[1][1] * 7) % 1009, (m[1][0] * 5 + m[1][1] * 11) % 1009]]
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(samples) -> float:
    """How much slower than nominal the host ran while `samples` were taken."""
    return statistics.median(samples) / REFERENCE_S
