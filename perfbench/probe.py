"""A fixed pure-Python loop, timed next to the work to gauge host speed.

On a shared host the same work can run 1.3-1.9x slower for seconds to
minutes at a time, and process CPU time slows by the same factor, so
neither wall nor CPU time of a run can be compared with another run's.  The
benchmark therefore times this loop just before and just after each piece
of work, on the same CPU, and scales the work's time by ``REF_S`` over the
loop's time: a value reads as the time the work would take on a host on
which the loop takes ``REF_S``.  The loop uses no smallcat code, so a change
to the library moves the work's time and not the loop's.
"""
from __future__ import annotations

import gc
import time

REF_S = 0.0045  # the loop's time on the reference host (2 vCPUs, Python 3.11)
REPS = 3


def _loop() -> int:
    counts: dict = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    seen = {(v, k) for k, v in counts.items()}
    hits = sum(1 for x in range(3000) if (x % 97, x % 13) in counts)
    return len(sorted(seen)) + hits


def probe() -> float:
    """The median time of REPS runs of the loop, in seconds, with the cyclic
    collector off so the size of the caller's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[REPS // 2]


def scale(before: float, after: float) -> float:
    """The factor that turns a time measured between two probes into a time
    at reference speed."""
    return 2 * REF_S / (before + after)
