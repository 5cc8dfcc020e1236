"""Calendar queue for the discrete-event simulation kernel.

A thin wrapper around :mod:`heapq` providing cancellable, deterministically
ordered scheduled events. Ties in time are broken by insertion sequence so
that two kernels fed the same schedule produce identical executions.

Hot-path notes: the heap stores ``(time, seq, item)`` tuples so that all
sift comparisons run as C tuple comparisons — ``seq`` is unique, so the
comparison never reaches the third element. Heaping the event objects
directly (with a Python-level ``__lt__``) was measured to be slower
overall: a run performs several comparisons per push/pop, and Python
method calls cost far more than one small tuple allocation.

Two entry kinds share the heap:

* :meth:`EventQueue.push` wraps the callback in a :class:`ScheduledEvent`
  handle so the caller can cancel it later (lazy deletion).
* :meth:`EventQueue.post` stores the bare callback — no handle, no
  per-event allocation beyond the tuple. This is the fast path for the
  bulk of traffic (CPU completions, network arrivals, workload ticks),
  none of which is ever cancelled.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.types import SimTime


class ScheduledEvent:
    """A callback scheduled at a point in simulated time.

    Instances are returned by :meth:`EventQueue.push` and can be cancelled
    via :meth:`cancel`. Cancelled events stay in the heap but are skipped
    when popped (lazy deletion), which keeps cancellation O(1).
    """

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: SimTime, seq: int, callback: Callable[[], Any]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent this event from firing. Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"ScheduledEvent(time={self.time!r}, seq={self.seq}, {state})"


class EventQueue:
    """Min-heap of ``(time, seq, item)`` entries ordered by (time, seq).

    ``item`` is either a :class:`ScheduledEvent` (cancellable, from
    :meth:`push`) or a bare callback (from :meth:`post`).
    """

    __slots__ = ("heap", "_seq")

    def __init__(self) -> None:
        self.heap: list[tuple[SimTime, int, Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self.heap)

    def push(self, time: SimTime, callback: Callable[[], Any]) -> ScheduledEvent:
        """Schedule *callback* at *time* and return a cancellable handle."""
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, callback)
        heapq.heappush(self.heap, (time, seq, event))
        return event

    def post(self, time: SimTime, callback: Callable[[], Any]) -> None:
        """Schedule *callback* at *time* with no cancellation handle.

        Hot-path variant of :meth:`push` for events that are never
        cancelled; skips the :class:`ScheduledEvent` allocation.
        """
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self.heap, (time, seq, callback))

    def pop(self) -> ScheduledEvent | None:
        """Remove and return the next live event, or ``None`` if empty.

        Cancelled events are discarded transparently. Bare-callback
        entries (from :meth:`post`) are wrapped in a fresh handle for a
        uniform return type.
        """
        heap = self.heap
        while heap:
            time, seq, item = heapq.heappop(heap)
            if item.__class__ is ScheduledEvent:
                if item.cancelled:
                    continue
                return item
            return ScheduledEvent(time, seq, item)
        return None

    def peek_time(self) -> SimTime | None:
        """Time of the next live event without removing it."""
        heap = self.heap
        while heap:
            entry = heap[0]
            item = entry[2]
            if item.__class__ is ScheduledEvent and item.cancelled:
                heapq.heappop(heap)
                continue
            return entry[0]
        return None
