"""Machine-speed reference for wall times measured on a shared host.

On a shared host the same work can run 40-130% slower, for seconds or
minutes at a time, while another tenant loads the physical core; the process's CPU time
grows just as its wall time does, so neither sees it. While the meter
runs, an interval timer interrupts the process four times a second to time
two fixed reference kernels. Kinds of work slow down by different amounts,
so there is one kernel per kind the library does:

* ``interpreter``: a Python loop and an n x L equality scan, like the
  front end and the exact-posterior scans (both slow down about 1.4x);
* ``small_arrays``: many numpy operations on vocabulary-sized rows, like
  the backoff model and the Monte Carlo loss (both slow down about 1.8x).

A unit of work (one call, one set-up, one CLI run) is then corrected in
two steps: the probes that ran inside it are subtracted from its wall
time, and the rest is divided by the mean slowdown of its kind's kernel in
the probes during and around it, relative to that kernel's nominal time. Runs report corrected times as metrics and keep the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.25


class SpeedMeter:
    # Each kernel's time on an uncontended core of the machine the benchmark
    # was built on (an x86_64 Xeon VM, Python 3.11, numpy 2.4). Corrected
    # times are wall times at that speed, so a run that is slow from start
    # to end is corrected as well.
    NOMINAL_S = {"interpreter": 2.9e-3, "small_arrays": 1.42e-3}

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: dict[str, list[float]] = {k: [] for k in self.NOMINAL_S}
        self._block = np.arange(2000 * 64, dtype=np.int64).reshape(2000, 64) % 41
        self._row = self._block[7].copy()
        self._rows = [np.arange(41, dtype=np.float64) % (i + 2) + 1.0 for i in range(8)]
        self._previous = None

    def _interpreter(self) -> int:
        total = 0
        for i in range(30_000):
            total += i * i % 7
        for _ in range(8):
            agree = (self._block == self._row[None, :]) | (self._row[None, :] == 40)
            total += int(agree.all(axis=1).sum())
        return total

    def _small_arrays(self) -> int:
        total = 0
        for _ in range(40):
            for row in self._rows:
                smoothed = row.copy()
                smoothed[:40] += 1.0
                smoothed /= smoothed.sum()
                total += int(np.argmax(smoothed))
        return total

    def probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        mark = start
        for kernel, work in (
            ("interpreter", self._interpreter),
            ("small_arrays", self._small_arrays),
        ):
            work()
            now = time.perf_counter()
            self.seconds[kernel].append(now - mark)
            mark = now
        self.starts.append(start)
        self.ends.append(mark)

    def __enter__(self) -> "SpeedMeter":
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def corrected(self, start: float, end: float, kernel: str = "interpreter") -> float:
        """Seconds the unit [start, end] would have taken at the nominal
        speed, without the probes that interrupted it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        probing = sum(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        # the probes inside, plus the nearest one on either side; a long
        # unit drops its most extreme two, which an interrupt can distort
        times = self.seconds[kernel]
        near = times[max(lo - 1, 0) : hi + 1]
        if len(near) >= 5:
            near = sorted(near)[1:-1]
        slowdown = statistics.mean(near) / self.NOMINAL_S[kernel]
        return (end - start - probing) / slowdown

    def summary(self) -> dict:
        out: dict = {"probes": len(self.starts)}
        for kernel, times in self.seconds.items():
            nominal = self.NOMINAL_S[kernel]
            out[kernel] = {
                "nominal_ms": 1000 * nominal,
                "fastest_ms": 1000 * min(times),
                "median_ms": 1000 * statistics.median(times),
                "slow_share": sum(t > 1.2 * nominal for t in times) / len(times),
            }
        return out
