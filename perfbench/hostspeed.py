"""Host speed, sampled while the program runs, and times in reference seconds.

The host's speed drifts by up to 2x, in phases from under a second to tens
of minutes, so wall time alone repeats poorly. While work is timed, a timer
signal runs a short fixed probe in the main thread every PERIOD_S seconds,
twice in a row, and keeps the time of the second, warm run. The probe's
time over an interval measures how fast the host ran during that interval.
A time in reference seconds is

    wall seconds * REF_PROBE_S / (typical probe seconds over the interval),

the time the work would have taken on a host that runs the probe in
REF_PROBE_S. A change to the program moves it; a slow host phase does not.

The probe is benchmark code, not program code, and is shaped like the
program's hot loop (``_cd_kernel.cd_sweeps`` runs as pure Python): scalar
reads and writes of small numpy arrays. A pure-Python integer loop tracked
the program's speed less well, and so did the first, cold run of the probe
after the program had run.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.04
# Probe seconds of the reference host; the warm probe took about 95-250 us
# on the machine described in README.md.
REF_PROBE_S = 150e-6
# Probes made on the spot when an interval is too short to hold a sample.
SPOT_PROBES = 50

_G = np.arange(16.0).reshape(4, 4)
_Q = np.zeros((4, 4))


def probe() -> float:
    """Seconds of one fixed piece of work (192 scalar numpy updates)."""
    t0 = time.perf_counter()
    for _ in range(12):
        for j in range(4):
            for k in range(4):
                _Q[k, j] = _Q[k, j] * 0.5 + _G[k, j]
    return time.perf_counter() - t0


def typical(samples) -> float:
    """Mean probe time, leaving out samples the process was preempted in
    (ten times the median or more)."""
    cut = 10 * statistics.median(samples)
    return statistics.fmean(s for s in samples if s < cut)


@dataclass
class Timing:
    wall: float = 0.0
    ref: float = 0.0
    probe_s: float = 0.0  # typical probe time over the interval


class HostSpeed:
    """Probe samples taken on a timer signal while ``sampling`` is active."""

    def __init__(self):
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame):
        probe()
        self.samples.append(probe())

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def timed(self):
        """Time a block; the Timing is filled in when the block ends."""
        rec = Timing()
        first = len(self.samples)
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec.wall = time.perf_counter() - t0
            got = self.samples[first:] or [probe() for _ in range(SPOT_PROBES)]
            rec.probe_s = typical(got)
            rec.ref = rec.wall * REF_PROBE_S / rec.probe_s


def spot_probe_s() -> float:
    """Typical probe time over 1000 probes run back to back."""
    return typical([probe() for _ in range(1000)])
