"""Clock sources for the observability subsystem.

A clock is anything with a ``now_ns() -> int`` method.  Three concrete
sources cover the repo's layers:

- :class:`WallClock` -- ``time.perf_counter_ns`` for the functional layer
  (real client/server pairs exchanging real bytes);
- :class:`SimClock` -- reads a :class:`~repro.sim.engine.Simulator`'s
  integer-nanosecond ``now``, so traces taken inside a discrete-event run
  carry simulated timestamps;
- :class:`ManualClock` -- advanced explicitly, used by analytic runners
  (e.g. Figure 8) that *compute* stage durations from cost models rather
  than measuring them.
"""

from __future__ import annotations

import time

from repro.errors import ObservabilityError

__all__ = ["Clock", "WallClock", "SimClock", "ManualClock"]


class Clock:
    """Abstract time source; subclasses implement :meth:`now_ns`."""

    def now_ns(self) -> int:
        """Current time in integer nanoseconds."""
        raise NotImplementedError


class WallClock(Clock):
    """Monotonic wall-clock time (``time.perf_counter_ns``).

    ``now_ns`` *is* ``time.perf_counter_ns``, so a reading runs no
    Python frame: traced requests read this clock twice per stage.
    """

    now_ns = staticmethod(time.perf_counter_ns)


class SimClock(Clock):
    """Reads simulated time from a simulator-like object exposing ``now``."""

    def __init__(self, simulator):
        self._simulator = simulator

    def now_ns(self) -> int:
        return self._simulator.now


class ManualClock(Clock):
    """A clock that only moves when told to (analytic/model-driven runs)."""

    def __init__(self, start_ns: int = 0):
        if start_ns < 0:
            raise ObservabilityError(f"negative start time: {start_ns}")
        self._now = start_ns

    def now_ns(self) -> int:
        return self._now

    def advance(self, delta_ns: int) -> int:
        """Move time forward by ``delta_ns``; returns the new time."""
        if delta_ns < 0:
            raise ObservabilityError(f"clock cannot move backwards: {delta_ns}")
        self._now += delta_ns
        return self._now
