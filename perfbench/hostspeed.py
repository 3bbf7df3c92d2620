"""Host speed, from a fixed reference kernel timed between requests.

The sandbox this benchmark was built on shares its cores with other
machines' work.  For seconds, and at times for minutes, every call runs up
to 1.7x slower, with CPU time equal to wall time and no steal time, so no
statistic taken inside one run removes it.  The reference kernel below
slows down in step: over 2 s windows, the ratio of an hp call's fastest
time to the kernel's fastest time stayed within 5% while both rose by 50%.

The kernel uses numpy and scipy only, never the package.  A request's time
is scaled by NOMINAL_S over the fastest kernel time within WINDOW_S of the
request (``local_min``), and the set-up time by NOMINAL_S over the fastest
kernel time of the whole run (``factor``).  The kernel shares the
benchmark's process, and right after an hp call on the 48 kHz long file it
runs up to 60% slower; taking the fastest time on both sides of a request
keeps that out.  NOMINAL_S is the kernel's time on the calibration sandbox
(2 vCPUs at 2.0 GHz, Python 3.11, numpy 2.4, scipy 1.17) when nothing slows
it down, so scaled times read as on that host.
"""

from __future__ import annotations

import bisect
import time

import numpy as np
from scipy.signal import lfilter

NOMINAL_S = 0.0075
INTERVAL_S = 0.2  # between kernel runs, so that they cost ~4% of a run
WINDOW_S = 1.0    # kernel runs this close to a request show the speed it ran at
BURST = 5


class HostSpeed:
    """Times the reference kernel at most every INTERVAL_S and keeps every time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(48000)
        self._rows = rng.standard_normal((200, 400))
        self._taps = rng.standard_normal(9)
        self.samples = []    # kernel times
        self._ends = []      # when each kernel run ended, ascending
        self._last = -INTERVAL_S

    def _kernel(self) -> float:
        # The detectors' mix: a long FFT, a loop of short lfilter calls and
        # small reductions, and extended-precision cumulative sums.
        y = np.fft.ifft(np.fft.fft(self._x)).real
        acc = 0.0
        for row in self._rows:
            acc += float(lfilter(self._taps, [1.0], row)[-1]) + float(np.mean(row[:50]))
        z = np.cumsum(np.cumsum(self._x.astype(np.longdouble)))
        return acc + float(y[0]) + float(z[-1])

    def measure(self) -> None:
        """Run the kernel now and keep its time."""
        start = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self._ends.append(self._last)

    def tick(self) -> None:
        """Run the kernel once per INTERVAL_S passed since it last ran, at most BURST times.

        After a long request this leaves several kernel times on each side of
        it, so that its ``local_min`` does not rest on a single one.
        """
        due = int((time.perf_counter() - self._last) / INTERVAL_S)
        for _ in range(min(due, BURST)):
            self.measure()

    def local_min(self, start: float, end: float) -> float:
        """Fastest kernel time within WINDOW_S of the interval [start, end]."""
        lo = bisect.bisect_left(self._ends, start - WINDOW_S)
        hi = bisect.bisect_right(self._ends, end + WINDOW_S)
        if lo == hi:  # nothing that close: take the nearest run
            lo = min(lo, len(self._ends) - 1)
            hi = lo + 1
        return min(self.samples[lo:hi])

    def factor(self) -> float:
        """Scale for times measured in this run: NOMINAL_S over the kernel's fastest time."""
        return NOMINAL_S / min(self.samples)
