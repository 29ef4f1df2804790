"""Host-speed calibration for the benchmark's times.

The host this benchmark was written on (a 2-vCPU VM) ran at speeds 20-30%
apart from one minute to the next.  A fixed kernel that does not use
pencilab slows down with it, so the benchmark scales each time it reports
by REF_S / (mean kernel time measured while it ran): the result reads as
seconds on a host where the kernel takes REF_S.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_S = 0.01           # kernel seconds on the reference host
INTERVAL_S = 0.2       # between kernel samples while operations run
WINDOW_S = 2.0         # samples this close to an operation scale it ...
MIN_INSIDE = 5         # ... unless this many fall within the operation
START = 5              # samples before the loop, and in one burst


def kernel() -> float:
    """Seconds taken by a fixed piece of work that does not use pencilab.

    Small numpy root finds: Python-level numpy calls on tiny arrays, as in
    pencilab.  Over the host's speed swings this kernel's time tracked both
    the slice scans and the point queries to within about 4% (a pure-Python
    loop tracked them to within 8%).
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for k in range(250):
        acc += float(np.abs(np.roots(np.array([1.0, 2.0 + k, 3.0, 4.0, 5.0]))).sum())
    return time.perf_counter() - t0


class Calibrator:
    """Samples the host's speed while operations run.

    A SIGALRM timer runs the kernel every INTERVAL_S seconds of wall time,
    so the samples cover long operations as evenly as short ones; `samples`
    holds (start, seconds) pairs.  `stolen` adds up the time the handler
    took; the caller takes it out of the operation it interrupted.  A
    disabled calibrator takes no samples, for the traced loop, where its
    ticks would land in the spans.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.samples = ([(time.perf_counter(), kernel()) for _ in range(START)]
                        if enabled else [])
        self.stolen = 0.0
        self.busy = False

    def _tick(self, signum, frame) -> None:
        if self.busy:                   # a tick that fires inside the last one
            return
        self.busy = True
        t0 = time.perf_counter()
        try:
            self.samples.append((t0, kernel()))
        finally:
            self.stolen += time.perf_counter() - t0
            self.busy = False

    def __enter__(self):
        if self.enabled:
            self.previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.previous)


def burst(count: int = START) -> float:
    """Median kernel seconds over `count` back-to-back runs."""
    return statistics.median(kernel() for _ in range(count))
