"""Turn-local runtime plumbing: the one clock, the deadlines read on it, and
the per-turn worker, whose every hand-off waits on it.

Every read of time and every wait in ragvet goes through ``clock``, which other
modules reach as ``runtime.clock``, so that one swap of it moves them all: to
a ``VirtualClock``, say, on which a timeout costs no real time and every
stage timing is exact.

On a virtual clock each thread keeps its own time, so a thread that hands
work to another must hand its time over too. ``Worker`` does so at each
hand-off: a call on the worker starts at the time its submitter had, and a
thread that waits for the call (``Handle.result``) or joins the worker moves
on to the time the call finished. So a thread's time is the time its own
work and the calls it waited for took, however many threads wait. On the
real clock the same waits return at once, because that moment has passed.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Generic, TypeVar

T = TypeVar("T")


class Clock:
    """Real monotonic time in seconds. ``wait_until`` returns at once when the
    moment has passed: no ``sleep(0)``, which would give the GIL away."""

    now = staticmethod(time.monotonic)

    @staticmethod
    def wait_until(moment: float) -> None:
        delay = moment - time.monotonic()
        if delay > 0:
            time.sleep(delay)


class VirtualClock:
    """Time that moves only when a thread waits: each thread's time starts at
    0, and ``wait_until`` moves the waiting thread straight on to the moment
    it waits for and returns at once. It reads no real time."""

    def __init__(self) -> None:
        self._local = threading.local()

    def now(self) -> float:
        return getattr(self._local, "now", 0.0)

    def wait_until(self, moment: float) -> None:
        self._local.now = max(self.now(), moment)


clock = Clock()


class Deadline:
    """A point on ``clock`` by which work must finish.

    Instances are cheap and immutable; derive a tighter deadline by
    constructing a new one from an earlier expiry. The expiry must be finite,
    so every wait bounded by a deadline ends: an infinite or NaN one raises
    ValueError.
    """

    __slots__ = ("_expires_at",)

    def __init__(self, expires_at: float) -> None:
        if not math.isfinite(expires_at):
            raise ValueError(f"a deadline must be finite, got {expires_at!r}")
        self._expires_at = expires_at

    @classmethod
    def after_ms(cls, budget_ms: float) -> "Deadline":
        return cls(clock.now() + budget_ms / 1000.0)

    def remaining_ms(self) -> float:
        return max(0.0, (self._expires_at - clock.now()) * 1000.0)

    def expired(self) -> bool:
        return clock.now() >= self._expires_at

    def __repr__(self) -> str:
        return f"Deadline(remaining_ms={self.remaining_ms():.1f})"


class Handle(Generic[T]):
    """A call submitted to a ``Worker``: ``result()`` waits for it, and hands
    its time over as the module's hand-off rule says."""

    __slots__ = ("future", "finished_at")

    def result(self) -> T:
        try:
            return self.future.result()
        finally:
            clock.wait_until(self.finished_at)


class Worker:
    """The one background thread of a turn, as a context manager: calls run in
    the order submitted, and leaving the block joins the thread. Each
    hand-off of time follows the module's hand-off rule."""

    def __init__(self) -> None:
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ragvet-turn")
        self._finished_at = -math.inf

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._pool.shutdown()
        clock.wait_until(self._finished_at)

    def submit(self, call: Callable[..., T], *args: Any) -> Handle[T]:
        handle: Handle[T] = Handle()
        started_at = clock.now()

        def run() -> T:
            clock.wait_until(started_at)
            try:
                return call(*args)
            finally:
                handle.finished_at = self._finished_at = clock.now()

        handle.future = self._pool.submit(run)
        return handle
