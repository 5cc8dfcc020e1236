"""Types shared by the stack interpreter, its backends and their callers.

The interpreter itself is :class:`repro.stack.runtime.StackRuntime`;
this module only names the two callback shapes that cross its boundary.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.types import AppMessage

#: Listener signature for application-level deliveries:
#: ``(pid, message, adeliver_time)``.
AdeliverListener = Callable[[int, AppMessage, float], None]


class TimerHandle(Protocol):
    """A cancellable handle, as returned by ``StackRuntime.fd_schedule``.

    Satisfied by the simulator's
    :class:`~repro.sim.eventq.ScheduledEvent` and by asyncio's
    ``TimerHandle`` alike.
    """

    def cancel(self) -> None:
        """Disarm the timer; a no-op if it already fired."""
        ...  # pragma: no cover - protocol stub
