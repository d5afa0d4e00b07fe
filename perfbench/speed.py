"""Machine-speed sampling, so that timings read the same on a shared host.

The shared virtual machine this benchmark was built on runs the same
Python code at two speeds, about 1.7 times apart, and switches between
them several times a second, in the host: steal time stays near zero,
so no per-process clock sees it.  How much of a 40-second run falls in
the slow state drifts from minute to minute, which moved a run's median
pass time by up to 30%.

A ``SpeedSampler`` times a fixed probe every ``INTERVAL_S`` seconds
from a ``SIGALRM`` handler, in the middle of whatever torlen is doing.
The probe is the benchmark's own reference word code (free reduction
and free-product normal forms of fixed words, see ``reference.py``): the
same kind of Python as torlen's, which slows down as much as torlen
does when the machine does.  A timed interval is then

* net of the probes that ran inside it, and
* scaled by ``PROBE_REF_S`` over the mean probe time of the samples
  within ``WINDOW_S`` of it, so that it reads as on the machine running
  at ``PROBE_REF_S`` per probe, its unloaded speed.

The probe touches no torlen code: a change to torlen moves the scaled
times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

import reference

INTERVAL_S = 0.025
WINDOW_S = 0.1
# one probe on an unloaded vCPU of the 2-vCPU Intel Xeon VM the
# benchmark was built on (Python 3.11)
PROBE_REF_S = 0.00075

_rng = random.Random(0)
_letters = [(_rng.choice("ab"), _rng.choice((1, -1))) for _ in range(1200)]
PROBE_WORDS = [tuple(_letters[i : i + 12]) for i in range(0, len(_letters), 12)]
PROBE_ORDERS = {"a": (0, 2), "b": (1, 3)}


def probe() -> None:
    for w in PROBE_WORDS:
        reference.free_reduce(w + reference.invert(w[:5]))
        reference.free_product_normal_form(PROBE_ORDERS, w)


class SpeedSampler:
    """Context manager: samples the probe time while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._busy = [0.0]  # prefix sums of self.seconds

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.seconds.append(dt)
        self._busy.append(self._busy[-1] + dt)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def net(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, less the probes that ran in between."""
        i, j = self._range(t0, t1)
        return (t1 - t0) - (self._busy[j] - self._busy[i])

    def scaled(self, t0: float, t1: float) -> float:
        """``net(t0, t1)`` at the reference speed."""
        i, j = self._range(t0 - WINDOW_S, t1 + WINDOW_S)
        near = self.seconds[i:j] or self.seconds
        return self.net(t0, t1) * PROBE_REF_S / statistics.fmean(near)
