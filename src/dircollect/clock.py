"""Injectable clocks.

All scheduling logic runs against one of these instead of the wall clock,
so tests can step time manually or compress a voting period into seconds.
"""

from __future__ import annotations

import threading
import time
from datetime import datetime, timedelta, timezone

_POLL = 0.05  # wall seconds between interrupt checks while waiting


def utc(year, month, day, hour=0, minute=0, second=0) -> datetime:
    return datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)


class Clock:
    """Interface: current UTC time plus interruptible waiting."""

    def now(self) -> datetime:
        raise NotImplementedError

    def wait_until(self, when: datetime, interrupt: threading.Event | None = None) -> None:
        """Block until ``when`` (clock time) or until ``interrupt`` is set."""
        raise NotImplementedError


class SystemClock(Clock):
    """Real UTC wall clock."""

    def now(self) -> datetime:
        return datetime.now(timezone.utc).replace(microsecond=0)

    def wait_until(self, when, interrupt=None):
        while True:
            remaining = (when - datetime.now(timezone.utc)).total_seconds()
            if remaining <= 0:
                return
            if interrupt is not None:
                if interrupt.wait(min(remaining, _POLL)):
                    return
            else:
                time.sleep(min(remaining, _POLL))


class ManualClock(Clock):
    """Test clock advanced explicitly; waiters wake when time moves."""

    def __init__(self, start: datetime):
        self._now = start
        self._cond = threading.Condition()

    def now(self) -> datetime:
        with self._cond:
            return self._now

    def set(self, when: datetime) -> None:
        with self._cond:
            if when > self._now:
                self._now = when
            self._cond.notify_all()

    def advance(self, seconds: float) -> datetime:
        with self._cond:
            self._now = self._now + timedelta(seconds=seconds)
            self._cond.notify_all()
            return self._now

    def wait_until(self, when, interrupt=None):
        while True:
            with self._cond:
                if self._now >= when:
                    return
                self._cond.wait(_POLL)
            if interrupt is not None and interrupt.is_set():
                return
