"""Machine-speed probe: a fixed kernel timed while the cases run.

On a shared host the speed of a CPU drifts by 20-50% within seconds and
can stay low for minutes, so raw latencies of the same code spread more
between runs than any bound worth gating on.  While a ``SpeedProbe`` is
active, a timer interrupts the process every ``PERIOD_S`` and runs a small
kernel that is part of the benchmark, not of the program, and never
changes.  Its duration measures how fast the CPU is running at that
moment.  A latency is then reported in seconds at the reference speed:

    (raw - probe time inside the interval) * REFERENCE_S / mean probe time

where the mean is over the probes inside the interval, and also over the
nearest probe on each side when fewer than two fall inside.
A change to the program moves the raw latency and leaves the kernel alone,
so it shows in full; a slow spell of the host moves both alike and cancels.

The kernel multiplies two small dict-of-tuples polynomials with Fraction
coefficients, the inner loop of ``polyalg``.  Over 150 s of ``spray``
passes (NumPy work) on a 2-vCPU host it brought the spread of pass times
from 0.38 of the median to 0.04, as well as a NumPy kernel did.  The probe
shares the CPU's caches with the program, so a change to the program's
cache footprint can move the kernel's time a little.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

# The speed flips within milliseconds, so probes are short and frequent
# (about 5% of the time) and a latency is scaled by the probes inside it.
# On ranks cases of 10-100 ms, the spread of single draws was 0.08-0.11
# of their median with these settings, 0.11-0.21 when probes up to 5-10 ms
# away were counted too, and 0.30 at a 10-ms period with a 50-ms margin.
PERIOD_S = 0.002
# Seconds one kernel call takes at the reference speed: about its duration
# when a 2-vCPU x86-64 host runs fast.  Fixed, so that results stay
# comparable between commits.
REFERENCE_S = 0.07e-3


def _kernel():
    a = {(i, j, k): Fraction(i - j + 1, k + 2) for i in range(2) for j in range(2) for k in range(1)}

    def kernel():
        out = {}
        for ea, ca in a.items():
            for eb, cb in a.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[e] = out.get(e, 0) + ca * cb
        return out
    return kernel


class SpeedProbe:
    """Context manager that samples the kernel's duration every ``PERIOD_S``."""

    def __init__(self):
        self.kernel = _kernel()
        self.reference = REFERENCE_S
        self.starts, self.durations = [], []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.durations:  # active for less than one period
            self._sample()

    def normalize(self, start, end) -> float:
        """Seconds at the reference speed that the interval [start, end] took."""
        i, j = bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)
        busy = sum(self.durations[i:j])
        if j - i < 2:
            i, j = max(0, i - 1), j + 1
        return (end - start - busy) * self.reference / statistics.fmean(self.durations[i:j])

    def speed(self) -> float:
        """Reference duration over the mean probe: below 1 when the host runs slow."""
        return self.reference / statistics.fmean(self.durations)
