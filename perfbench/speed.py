"""The speed of the machine, sampled while a workload runs.

On a shared host other tenants slow a process by up to 1.8x, for seconds to
minutes at a time.  A frozen routine of small-polynomial arithmetic, the
same kind of work as qflag's kernel, is therefore timed every 20 ms by a
thread of the benchmark while a pass runs (qflag itself stays on the main
thread; the sampler holds the interpreter lock about 1.5% of the time), and
the pass's wall seconds are scaled by
``C_REF / median(routine seconds during the pass)``: the scaled figure is
the time the pass would take on a machine where the routine takes ``C_REF``.
The routine is part of the benchmark, not of qflag, so a change to qflag
moves the pass time and leaves the scale alone.
"""

from __future__ import annotations

import statistics
import threading
import time
from math import gcd

C_REF = 1.0e-4         # reference seconds per calibrate() call
INTERVAL = 0.02        # seconds between samples


def calibrate() -> int:
    """Fixed work like qflag's kernel: short integer polynomials.

    Products, contents and stores in lists, tuples and a dict, the mix that
    kept scaled pass times steadiest on the workloads.
    """
    a = [1, -2, 3, 0, 5, 1, -1]
    b = [2, 1, 0, -3, 1]
    seen = {}
    for k in range(12):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        g = 0
        for c in out:
            g = gcd(g, c)
        seen[(k, len(out))] = tuple(out)
        a = [c // g for c in out][:9]
    return len(seen)


def timed_calibrate() -> float:
    # The untimed first call brings the routine back into the caches that
    # qflag used since the last sample, so the timed call sees the speed of
    # the CPU and not how much of the cache qflag's work takes.
    calibrate()
    t0 = time.perf_counter()
    calibrate()
    return time.perf_counter() - t0


def burst_scale(n: int = 15) -> float:
    """Scale factor from ``n`` samples taken now (for short set-up phases)."""
    return C_REF / statistics.median(timed_calibrate() for _ in range(n))


class Speedometer:
    """Samples ``calibrate`` from a thread while started.

    A thread rather than a signal handler: running a Python handler inside
    the workload raised the ladder's peak memory from 162 MB to 192 MB.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = None

    def _run(self):
        while not self._stop.wait(INTERVAL):
            self.samples.append(timed_calibrate())

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int) -> float:
        """Scale factor for the work done since ``mark()`` returned ``since``."""
        got = self.samples[since:]
        if len(got) < 5:
            return burst_scale()
        return C_REF / statistics.median(got)
