"""Backlog-window flow control (paper §5.1).

Both stacks use the same mechanism: each process may have at most
``window`` of its own abcast messages accepted-but-not-yet-adelivered
(its *backlog*); further abcast events block until a slot frees. Under
saturation this is what bounds the number of messages ordered per
consensus execution (the paper's M ≈ 4) and produces the latency and
throughput plateaus of Figs. 8–10, as well as the observation that n = 7
sustains a higher throughput than n = 3 (a larger group is allowed a
larger aggregate backlog).
"""

from __future__ import annotations

from repro.errors import FlowControlError


class BacklogWindow:
    """A counting window of in-flight slots for one process."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise FlowControlError(f"window capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._in_flight = 0
        self._total_blocked = 0

    @property
    def capacity(self) -> int:
        """Maximum simultaneous in-flight own messages."""
        return self._capacity

    @property
    def in_flight(self) -> int:
        """Currently held slots."""
        return self._in_flight

    @property
    def total_blocked(self) -> int:
        """How many acquisition attempts were refused so far."""
        return self._total_blocked

    @property
    def available(self) -> int:
        """Free slots."""
        return self._capacity - self._in_flight

    def try_acquire(self) -> bool:
        """Take a slot if one is free; record a block otherwise."""
        if self._in_flight < self._capacity:
            self._in_flight += 1
            return True
        self._total_blocked += 1
        return False

    def refuse(self, count: int) -> None:
        """Record *count* acquisition attempts that found the window full.

        Raises:
            FlowControlError: If a slot is free — :meth:`try_acquire`
                would have granted the first of them.
        """
        if self._in_flight < self._capacity:
            raise FlowControlError("refuse() while a flow-control slot is free")
        self._total_blocked += count

    def release(self) -> None:
        """Return a slot (the own message was adelivered locally).

        Raises:
            FlowControlError: If no slot is held — releasing more than
                was acquired indicates a delivery-accounting bug.
        """
        if self._in_flight <= 0:
            raise FlowControlError("release() without a held flow-control slot")
        self._in_flight -= 1
