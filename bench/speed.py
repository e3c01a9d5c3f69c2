"""Machine-speed reference for the timed metrics.

On a shared host the same work takes a different time from one second to
the next: a fixed pure-Python loop took 104-175 ms within one minute on a
2-vCPU VM, with process CPU time tracking wall time, so the host's
throughput changes, not this process's share of it. A timed loop therefore
runs, between its operations, fixed reference slices of the kind of work
the workload does, 5% of the loop's time: "mixed" slices of scalar complex
arithmetic in Python and small numpy arrays in Python loops for the
oracle's workload, and "array" slices shaped like the conformal map's local
model and series composition for the sweep. Each operation's time is scaled
to a machine on which a slice takes REFERENCE_S, by the slices that ended
within WINDOW_S of the operation:

    reported = measured * REFERENCE_S / mean(nearby slice times)

A slower program still reads slower by the same factor, because the slices
do not run logstair code. Over six 40 s runs per workload (seeds 21-26, 2
vCPUs), the interquartile spread of raw op_ms.p50 and ops_per_s was 0.15-0.17
of the median; scaled it was 0.03-0.07. Scaling by the run's mean slice
instead gave 0.06-0.09, and windows of 1 s and 3 s gave 0.04-0.09. On the
sweep, mixed slices over-corrected: in ten runs their mean moved over
3.1-3.8 ms while the sweep's raw throughput moved less, and the scaled
median spread 0.13 against 0.10 raw. Over 300 s of sweep operations, the
time per engine step correlated 0.65 with adjacent array slices and 0.47
with the mixed ones; over six runs with array slices the spread of the
sweep's median went from 0.20 raw to 0.06 scaled.
Set-up rounds are scaled the same way, by two slices just before and two
just after each: over ten groups of ten rounds of the sweep's set-up, the
group medians spread over 47-70 ms raw and over 57-63 ms scaled.
"""

from __future__ import annotations

import bisect
import cmath
import math
import statistics
from time import perf_counter

import numpy

# About the mean time of one slice of each kind on the 2-vCPU Xeon VM the
# bounds were fitted on (mixed: 3.2-3.4 ms in most runs, 2.4-4.4 ms in all;
# array: 2.7-3.4 ms).
REFERENCE_S = {"mixed": 0.0033, "array": 0.0030}
WINDOW_S = 0.25
SHARE = 0.05
_RING = numpy.exp(1j * numpy.linspace(0.0, 6.0, 128))
_COEFFS = 1.0 / numpy.arange(1, 34, dtype=complex)
_RING256 = 0.3 * numpy.exp(1j * numpy.linspace(0.0, 6.0, 256)) + 0.1j


def mixed_slice() -> float:
    """Seconds taken by one fixed slice of the oracle's kind of work (~3 ms):
    scalar complex arithmetic in Python, then small numpy arrays in a Python
    loop."""
    t0 = perf_counter()
    z, acc = 0.5 + 0.1j, 0.0
    for _ in range(2800):
        z = z * (0.9999 + 0.0001j) + 1e-4
        acc += math.log(abs(z)) + cmath.phase(z)
    ring = _RING
    for _ in range(70):
        w = numpy.sqrt((ring - 0.25) / (ring + 2.0))
        w = numpy.where(w.imag < 0, -w, w)
        conv = numpy.convolve(_COEFFS, w[:33])[:33]
        ring = _RING + 1e-12 * (acc + abs(conv[0])) * numpy.fft.fft(w) / 128
    return perf_counter() - t0


def array_slice() -> float:
    """Seconds taken by one fixed slice of the sweep's kind of work (~3 ms),
    shaped like the conformal map's local model and series composition: a
    chain of square roots over a 256-point ring and its FFT, a Horner loop of
    order-64 convolutions and a polyval bisection."""
    t0 = perf_counter()
    w = 1j * numpy.sqrt((_RING256 - 0.25) / (_RING256 + 2.0))
    w = numpy.where(w.imag < 0, -w, w)
    for _ in range(6):
        s = numpy.sqrt(w * w + 0.3)
        w = numpy.where(s.real < 0, s - 0.5, w * (s + 1.0) / (s + 2.0))
    c = numpy.fft.fft(w)[:65] / 256
    c[0] = 0.01
    acc = numpy.zeros(65, dtype=complex)
    for j in range(64):
        acc = numpy.convolve(acc, c)[:65]
        acc[0] += 1.0 / (j + 1)
    mag = numpy.abs(c)[::-1]
    lo, hi = 0.0, 1.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if float(numpy.polyval(mag, mid)) < 1.0:
            lo = mid
        else:
            hi = mid
    return perf_counter() - t0


SLICES = {"mixed": mixed_slice, "array": array_slice}


class Speed:
    """Reference slices of one kind taken through a timed loop, their total
    kept at SHARE of the loop's time so far."""

    def __init__(self, kind: str = "mixed"):
        self.slice = SLICES[kind]
        self.reference_s = REFERENCE_S[kind]
        self.slice()  # the first slice in a process runs cold: ~2x
        self.samples = []
        self.ends = []
        self.total = 0.0
        self.start = perf_counter()

    def take(self, n: int) -> None:
        """Take n slices."""
        for _ in range(n):
            self.samples.append(self.slice())
            self.ends.append(perf_counter())
            self.total += self.samples[-1]

    def keep_up(self) -> None:
        """Take slices until they make up SHARE of the time since start; at
        least one."""
        while not self.samples or self.total < SHARE * (perf_counter() - self.start):
            self.take(1)

    def elapsed(self) -> float:
        """Reference seconds since start, by all slices so far."""
        return (perf_counter() - self.start) * self.reference_s / statistics.fmean(self.samples)

    def scale(self, t0: float, t1: float) -> float:
        """Factor from measured to reference seconds for work done between
        t0 and t1, from the slices that ended within WINDOW_S of it (all
        slices if none did)."""
        lo = bisect.bisect_left(self.ends, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.ends, t1 + WINDOW_S)
        return self.reference_s / statistics.fmean(self.samples[lo:hi] or self.samples)
