"""The discrete-event simulation kernel.

The kernel owns the virtual clock and the event calendar. Everything in a
run — network transmissions, CPU task completions, protocol timers,
workload arrivals, fault injections — is a callback scheduled on one
kernel, so a whole distributed execution is a single deterministic event
loop.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.eventq import EventQueue, ScheduledEvent
from repro.sim.rng import RngRegistry
from repro.types import SimTime

#: Hard ceiling on events per run; a guard against accidental livelock in
#: protocol logic (e.g. two modules ping-ponging zero-delay events).
DEFAULT_MAX_EVENTS = 500_000_000


class Kernel:
    """Deterministic discrete-event simulation loop.

    Attributes:
        now: Current simulated time in seconds. Monotonically
            non-decreasing while :meth:`run` executes.
        rng: Registry of named random streams for this run.
        post: Bound fast path equal to ``EventQueue.post``: schedule a
            callback at an *absolute* time with no past-check, no
            cancellation handle and no per-event allocation. Hot internal
            callers (CPU completions, network arrivals, workload ticks)
            use it when the target time is ≥ :attr:`now` by construction;
            everything else should go through :meth:`schedule` /
            :meth:`schedule_at`, which validate and return a handle.
    """

    __slots__ = (
        "now",
        "rng",
        "post",
        "_queue",
        "_max_events",
        "_events_executed",
        "_stopped",
    )

    def __init__(self, *, seed: int = 0, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.now: SimTime = 0.0
        self.rng = RngRegistry(seed)
        self._queue = EventQueue()
        self.post = self._queue.post
        self._max_events = max_events
        self._events_executed = 0
        self._stopped = False

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events still in the calendar (including cancelled)."""
        return len(self._queue)

    def schedule(
        self, delay: SimTime, callback: Callable[[], Any]
    ) -> ScheduledEvent:
        """Schedule *callback* to run ``delay`` seconds from now.

        Raises:
            SimulationError: If *delay* is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._queue.push(self.now + delay, callback)

    def schedule_at(
        self, time: SimTime, callback: Callable[[], Any]
    ) -> ScheduledEvent:
        """Schedule *callback* at absolute simulated *time*.

        Raises:
            SimulationError: If *time* is earlier than :attr:`now`.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} which is before now={self.now}"
            )
        return self._queue.push(time, callback)

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    def run(self, until: SimTime | None = None) -> SimTime:
        """Execute events in time order.

        Args:
            until: If given, stop once the next event would be later than
                this time and fast-forward the clock exactly to it. If
                ``None``, run until the calendar drains or :meth:`stop`.

        Returns:
            The simulated time at which the loop exited.

        Raises:
            SimulationError: If the event budget is exceeded, which almost
                always indicates a zero-delay event loop in protocol code.
        """
        self._stopped = False
        # The loop below is the single hottest function of the whole
        # simulator: peek/pop are fused and operate on the heap directly
        # (no per-event method-call round trips through EventQueue).
        heap = self._queue._heap
        heappop = heapq.heappop
        max_events = self._max_events
        executed = self._events_executed
        scheduled_event = ScheduledEvent
        # No horizon is a horizon no event time exceeds.
        horizon = until if until is not None else math.inf
        while heap and not self._stopped:
            entry = heap[0]
            item = entry[2]
            if item.__class__ is scheduled_event:
                if item.cancelled:
                    heappop(heap)
                    continue
                item = item.callback
            time = entry[0]
            if time > horizon:
                break
            heappop(heap)
            if time < self.now:
                raise SimulationError(
                    f"event queue returned past event ({time} < {self.now})"
                )
            self.now = time
            executed += 1
            self._events_executed = executed
            if executed > max_events:
                raise SimulationError(
                    f"exceeded event budget of {max_events} events; "
                    "likely a zero-delay event loop in protocol logic"
                )
            item()
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now
