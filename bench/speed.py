"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by a factor of
two or more over seconds to minutes, as other tenants come and go.  The
drift is invisible to CPU time (a slowed core still charges its time to
the process), and a slow spell can outlast a whole run, so neither the
fastest repeat nor a median over the run removes it.

So the benchmark times two fixed pieces of reference work, the *probes*,
between the program's calls, and scales each call's time by how fast the
probes ran around it::

    scaled = measured * (REF_S / python_probe) ** mix * (REF_S / numpy_probe) ** (1 - mix)

where each probe time is the median of the readings taken from
``WINDOW_S`` before the call to ``WINDOW_S`` after it.  One reading is
noisy (an interrupt, a context switch); the median over a couple of
seconds follows the drift, which changes over seconds and longer.

A scaled time reads as the time the call would take on a machine where
both probes take ``REF_S``.  One probe is interpreted Python (a loop of
float arithmetic and ``math`` calls), the other small numpy work (random
draws, cumulative sums).  The two slow down by different amounts in a
slow spell: on the reference box the analytic calls of the package track
the Python probe (log-log slope about 1) and the Monte Carlo engines the
numpy probe (slope 0.7 to 0.85), while each tracks the other probe
poorly.  So each call sets ``mix``, the weight of the Python probe, from
the kind of work it does (``workloads.Op.speed_mix``).  The probes use
nothing from ``ruin2d``, so a change to the package moves the scaled
times exactly as it moves the measured ones.

The correction is not complete.  In the box's fastest spells the
analytic calls speed up more than the probe does (scaled times about 10%
lower), and a reading taken next to a 0.3 s Monte Carlo call does not see
changes during it.  On the reference box scaling cut the spread of the
run-to-run medians by half or more on the analytic and CLI workloads.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import List, Tuple

import numpy as np

# Each probe's time on the reference box (2 vCPUs, Python 3.11, numpy 2.4)
# in a quiet spell.  It only sets the scale: scaled times read as times on
# that box at that speed.
REF_S = 1.5e-4
PROBE_REPEATS = 3  # one probe reading is the median of this many timings
WINDOW_S = 1.0


def _python_work() -> float:
    acc = 0.0
    for i in range(1200):
        acc += math.exp(-1e-3 * i) * (i % 7)
    return acc


class Speedometer:
    """Times the reference work; keeps its own random stream and buffers,
    so every probe does the same work."""

    def __init__(self) -> None:
        self._rng = np.random.default_rng(12345)
        self._buf = np.empty(6144)

    def _numpy_work(self) -> float:
        x = self._rng.standard_normal(6144)
        np.cumsum(x, out=self._buf)
        np.maximum.accumulate(self._buf, out=self._buf)
        return float(np.count_nonzero(self._buf > 1.0))

    def probe(self) -> Tuple[float, float]:
        """Seconds taken by the Python and by the numpy reference work, each
        a median of ``PROBE_REPEATS`` timings, so one interrupt does not set it."""
        py, nps = [], []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            _python_work()
            t1 = time.perf_counter()
            self._numpy_work()
            t2 = time.perf_counter()
            py.append(t1 - t0)
            nps.append(t2 - t1)
        return statistics.median(py), statistics.median(nps)


class SpeedTrace:
    """Probe readings in time order, and the scale factor they give for an
    interval of time."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.readings: List[Tuple[float, float]] = []

    def add(self, t: float, reading: Tuple[float, float]) -> None:
        self.times.append(t)
        self.readings.append(reading)

    def read(self, meter: Speedometer) -> float:
        """Take a reading; returns the time just after it."""
        t0 = time.perf_counter()
        reading = meter.probe()
        t1 = time.perf_counter()
        self.add(0.5 * (t0 + t1), reading)
        return t1

    def factor(self, t0: float, t1: float, mix: float) -> float:
        """Factor that turns a time measured from ``t0`` to ``t1`` (on the
        ``perf_counter`` clock) into a time at the reference speed; ``mix``
        is the weight of the Python probe."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = self.readings[lo:hi] or self.readings
        py = statistics.median(r[0] for r in near)
        nps = statistics.median(r[1] for r in near)
        return (REF_S / py) ** mix * (REF_S / nps) ** (1.0 - mix)
