"""Global logical clock counting sequential work units.

Every sequential hash step and every charged circuit evaluation advances
the clock; timestamps and deadline comparisons are expressed in these
units, which keeps the protocol's timing behaviour deterministic and
test-stable.  A hash-chain walk charges once per chunk of
`tlp.PROGRESS_INTERVAL` steps, before the chunk is walked, so the clock
is never behind the work done.
"""

from __future__ import annotations

import threading

from .errors import ParameterError


def _units(value, what: str) -> int:
    # An int, as CostModel.t_units: no float (nan and inf among them)
    # reaches the clock or the u64 tau of a stamp.
    if not isinstance(value, int) or value < 0:
        raise ParameterError(f"{what} must be an int >= 0")
    return value


class MeteredClock:
    """Monotone step counter.

    The deadline is enforced by the timestamp alone: sequential work done
    before stamping moves this clock, so a proof stamped after delta steps
    of work carries tau >= delta.  `charge` is atomic; a clock may be
    shared by concurrent prover / solver threads.
    """

    def __init__(self, start: int = 0):
        self._now = _units(start, "clock start")
        self._lock = threading.Lock()

    @property
    def now(self) -> int:
        return self._now

    def charge(self, steps: int = 1) -> int:
        _units(steps, "charged steps")
        with self._lock:
            self._now += steps
            return self._now
