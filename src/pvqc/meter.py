"""Global logical clock counting sequential work units.

Every sequential hash step and every charged circuit evaluation advances
the clock; timestamps and deadline comparisons are expressed in these
units, which keeps the protocol's timing behaviour deterministic and
test-stable.
"""

from __future__ import annotations

import threading


class MeteredClock:
    """Monotone step counter.

    The deadline is enforced by the timestamp alone: sequential work done
    before stamping moves this clock, so a proof stamped after delta steps
    of work carries tau >= delta.  `charge` is atomic; a clock may be
    shared by concurrent prover / solver threads.
    """

    def __init__(self, start: int = 0):
        if start < 0:
            raise ValueError("clock cannot start negative")
        self._now = start
        self._lock = threading.Lock()

    @property
    def now(self) -> int:
        return self._now

    def charge(self, steps: int = 1) -> int:
        if steps < 0:
            raise ValueError("cannot charge negative steps")
        with self._lock:
            self._now += steps
            return self._now
