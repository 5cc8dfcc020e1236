"""Network fault injection.

The paper's measurements are over *good runs*, but the protocols must be
correct in all runs. The :class:`FaultInjector` lets tests and examples
crash processes at scheduled times (or at precise protocol points, via
manual calls) and perturb message delivery (drops and extra delays).

Note on semantics: crashing a process does *not* retract messages it
already handed to its NIC — exactly as on a real host, where frames
queued in the kernel may still leave after the application dies. This is
what makes "sender crashes mid-diffusion" scenarios (the reason for the
§3.3 guard timer) expressible.
"""

from __future__ import annotations

from typing import Callable

from repro.net.message import NetMessage

#: A message filter inspects a message and decides its fate: ``None``
#: drops it, a float is the extra delay in seconds (``0.0`` leaves it
#: unperturbed).
MessageFilter = Callable[[NetMessage], "float | None"]


class FaultInjector:
    """Composable message filtering plus crash bookkeeping.

    Filters are applied in registration order; the first ``None`` wins,
    and extra delays accumulate left to right from ``0.0``.
    """

    __slots__ = ("_filters", "_crashed")

    def __init__(self) -> None:
        self._filters: list[MessageFilter] = []
        self._crashed: set[int] = set()

    def add_filter(self, message_filter: MessageFilter) -> None:
        """Register a message filter."""
        self._filters.append(message_filter)

    def mark_crashed(self, process: int) -> None:
        """Record that *process* has crashed (messages to it are dropped)."""
        self._crashed.add(process)

    def is_crashed(self, process: int) -> bool:
        """Whether *process* has crashed."""
        return process in self._crashed

    @property
    def crashed(self) -> frozenset[int]:
        """Set of processes known to have crashed."""
        return frozenset(self._crashed)

    def judge(self, message: NetMessage) -> float | None:
        """Extra delay of *message* after every filter, or ``None`` to drop it.

        A crashed destination drops the message before any filter runs.
        """
        if message.dst in self._crashed:
            return None
        total_delay = 0.0
        for message_filter in self._filters:
            extra_delay = message_filter(message)
            if extra_delay is None:
                return None
            total_delay += extra_delay
        return total_delay
