"""Host-speed correction for the benchmark's times.

The benchmark runs on shared hosts whose speed swings by up to 1.5x over
tens of seconds, far longer than a run can last.  A probe times a fixed
kernel of float arithmetic at a steady rate while a measured region runs:
a SIGALRM handler in the measured process itself runs it between the
library's bytecodes, on the same core.  A time multiplied by ``factor()``
is the time the region takes on a host where the kernel takes
PROBE_REF_S: the host's swings cancel, and a change in the library's own
speed remains.

The library's times do not move one for one with the kernel's: part of
the library runs in numpy's compiled loops, which the swings slow less
than interpreted arithmetic.  Over repeated passes of identical work,
while the host swung, log(pass time) against log(median kernel time)
had slope 0.69 on form-orbit and 0.64 on whittaker-mix (correlation 0.96
and 0.97), so the factor is raised to PROBE_SENSITIVITY.

The module uses no numpy: run.py imports it before numpy may load.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PROBE_REF_S = 1e-4        # the kernel's median time on the reference host
PROBE_SENSITIVITY = 2 / 3 # d log(library time) / d log(kernel time), measured
PROBE_LOOPS = 350         # kernel size: about PROBE_REF_S on a 2 GHz Xeon
PROBE_INTERVAL_S = 0.02   # one kernel per interval: about 0.5% of the region
PROBE_BURST = 10          # kernels run back to back on entry and on exit


def _kernel() -> float:
    s = 0.0
    for i in range(PROBE_LOOPS):
        s += math.exp(-1e-3 * i) * math.cos(0.1 * i)
    return s


class HostSpeed:
    """Context manager: probes the host's speed while its body runs.

    The bursts on entry and exit, outside the body's own timing, give a
    short region enough samples.  The timer's kernels run between the
    body's bytecodes, so their time (about 0.5%) is part of the body's
    time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def _burst(self) -> None:
        for _ in range(PROBE_BURST):
            self._sample()

    def __enter__(self) -> "HostSpeed":
        self._burst()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._burst()

    def factor(self) -> float:
        """(PROBE_REF_S / median kernel time) ** PROBE_SENSITIVITY: above 1
        on a host faster than the reference, below 1 on a slower one."""
        return (PROBE_REF_S / statistics.median(self.samples)) ** PROBE_SENSITIVITY
