"""A deterministic clock for lease-expiry and scaling-decision tests."""

from __future__ import annotations

__all__ = ["FakeClock"]


class FakeClock:
    """Time that only moves when the test says so.

    Components that take a ``clock=`` callable
    (:class:`~repro.store.task_queue.TaskQueue`,
    :class:`~repro.runtime.supervisor.SupervisorPolicy`) accept the
    instance itself (it is callable); :meth:`advance` moves the timeline
    they read.

    >>> clock = FakeClock(100.0)
    >>> clock()
    100.0
    >>> clock.advance(5)
    105.0
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new now."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self._now += float(seconds)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FakeClock(now={self._now})"
