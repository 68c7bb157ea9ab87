"""Turn-local runtime plumbing: the one clock and the deadlines read on it.

Every read of time and every wait in ragvet goes through ``clock``, which other
modules reach as ``runtime.clock``, so that one swap of it moves them all."""

from __future__ import annotations

import time


class Clock:
    """Real monotonic time in seconds: ``now()`` reads it, ``sleep()`` waits."""

    now = staticmethod(time.monotonic)
    sleep = staticmethod(time.sleep)


clock = Clock()


class Deadline:
    """A point on ``clock`` by which work must finish.

    Instances are cheap and immutable; derive a tighter deadline by
    constructing a new one from an earlier expiry.
    """

    __slots__ = ("_expires_at",)

    def __init__(self, expires_at: float) -> None:
        self._expires_at = expires_at

    @classmethod
    def after_ms(cls, budget_ms: float) -> "Deadline":
        return cls(clock.now() + budget_ms / 1000.0)

    def remaining_ms(self) -> float:
        return max(0.0, (self._expires_at - clock.now()) * 1000.0)

    def remaining_seconds(self) -> float:
        return self.remaining_ms() / 1000.0

    def expired(self) -> bool:
        return clock.now() >= self._expires_at

    def __repr__(self) -> str:
        return f"Deadline(remaining_ms={self.remaining_ms():.1f})"
