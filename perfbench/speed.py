"""Scale measured times to one host speed.

On a shared host the same Python code runs at two or more speeds that differ
by up to half, switching every few hundred milliseconds as other tenants come
and go.  The share of time spent at each speed changes from minute to minute,
so the median of plain times moves by a fifth between runs of the same code.

``SpeedProbe`` runs a short fixed probe from a timer signal every
``PERIOD_S`` seconds and records its cost in thread CPU time.  The probe
mixes the kinds of work rgpoly does (dict updates under tuple keys, dict
copies, sorting, string building), because the slow speeds do not slow every
kind of code alike: a probe of dict updates alone under-corrects br-wide,
whose dict copies slow down more.  The cyclic garbage collector is off while
the probe runs, so that its cost does not depend on the measured code's
heap.  CPU time, not wall time, because a probe caught by a pause of the vCPU
or by another process takes several times its cost in wall time: pauses of a
few milliseconds that cost the measured code a few percent inflated the mean
probe cost by about 40 % in one run.  A time measured over a span is then
scaled by

    REFERENCE_S / (mean probe cost during the span)

A scaled time is what the span would have taken on a host that runs the
probe in ``REFERENCE_S`` seconds throughout (a 2.0 GHz Xeon vCPU takes 1.0
to 1.7 ms, depending on its neighbours).  The ratio of measured code to
probe is what stays put: over a minute of passes whose plain times differed
by up to 1.46 times, the ratio of pass time to mean probe cost varied by 2
to 3 % (coefficient of variation) on br-wide, ribbon-plane and link-tait.
The probe's own time is left out of every span, and the probe code is part
of the benchmark, so a change to rgpoly changes the scaled times in
proportion to the time it saves or adds.

It uses no thread: the probe runs in the main thread between bytecodes.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PERIOD_S = 0.05
REFERENCE_S = 0.001
_BASE = {(i % 17, i % 11, i): i for i in range(600)}
_NUMBERS = [(i * 7919) % 1009 for i in range(400)]


def _probe() -> None:
    d: dict = {}
    for i in range(2000):
        k = (i % 13, i % 7)
        d[k] = d.get(k, 0) + i
    for _ in range(12):
        d = dict(_BASE)
        for k, c in list(d.items())[:40]:
            d[k] = c + 1
    for _ in range(4):
        sorted(_NUMBERS)
        "".join(str(x) for x in _NUMBERS[:150])


class SpeedProbe:
    """Probe costs sampled from SIGALRM while started."""

    def __init__(self):
        self.at: list[float] = []       # perf_counter at the end of each probe
        self.cost: list[float] = []     # thread CPU seconds of each probe
        self.spent = 0.0                # seconds spent in the signal handler
        self._busy = False

    def _fire(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        c0 = time.thread_time()
        _probe()
        cost = time.thread_time() - c0
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.at.append(t1)
        self.cost.append(cost)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.cost:
            raise RuntimeError("no speed probe has run")

    def clock(self) -> float:
        """perf_counter with the time spent probing taken out."""
        return time.perf_counter() - self.spent

    def mark(self) -> tuple:
        return time.perf_counter(), self.spent

    def span(self, start: tuple, end: tuple) -> tuple:
        """(seconds, start, end) between two marks, to be scaled later; the
        seconds leave out the time the probe ran in place of measured code."""
        (t0, s0), (t1, s1) = start, end
        return t1 - t0 - (s1 - s0), t0, t1

    def _cost_between(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi > lo:
            return statistics.fmean(self.cost[lo:hi])
        mid = (t0 + t1) / 2     # no probe inside: the nearest one
        i = bisect.bisect_left(self.at, mid)
        near = [j for j in (i - 1, i) if 0 <= j < len(self.at)]
        return self.cost[min(near, key=lambda j: abs(self.at[j] - mid))]

    def run_factor(self) -> float:
        """REFERENCE_S / mean probe cost over the whole run."""
        return REFERENCE_S / statistics.fmean(self.cost)

    def factor(self, span: tuple) -> float:
        """REFERENCE_S / mean probe cost during the span."""
        _, t0, t1 = span
        return REFERENCE_S / self._cost_between(t0, t1)

    def scaled(self, span: tuple) -> float:
        return span[0] * self.factor(span)
