"""Check of the host-speed probe: it samples while its region runs and
leaves the process's SIGALRM state as it found it.

    python3 -m pytest -q perfbench/test_hostspeed.py
"""

import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hostspeed import PROBE_INTERVAL_S, HostSpeed  # noqa: E402


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probe_samples_region_and_restores_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    region_s = 0.5
    with HostSpeed() as speed:
        _spin(region_s)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # at least half the expected ticks, allowing for a slow, shared host
    assert len(speed.samples) >= 0.5 * region_s / PROBE_INTERVAL_S
    assert 0.0 < speed.factor() < float("inf")
