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
    ``filters`` and ``crashed`` are public: the network reads both per
    message, and calls :meth:`judge` only if a filter or a crash is due.
    """

    __slots__ = ("filters", "crashed")

    def __init__(self) -> None:
        self.filters: list[MessageFilter] = []
        self.crashed: set[int] = set()

    def add_filter(self, message_filter: MessageFilter) -> None:
        """Register a message filter."""
        self.filters.append(message_filter)

    def mark_crashed(self, process: int) -> None:
        """Record that *process* has crashed (messages to it are dropped)."""
        self.crashed.add(process)

    def is_crashed(self, process: int) -> bool:
        """Whether *process* has crashed."""
        return process in self.crashed

    def judge(self, message: NetMessage) -> float | None:
        """Extra delay of *message* after every filter, or ``None`` to drop it.

        A crashed destination drops the message before any filter runs.
        """
        if message.dst in self.crashed:
            return None
        total_delay = 0.0
        for message_filter in self.filters:
            extra_delay = message_filter(message)
            if extra_delay is None:
                return None
            total_delay += extra_delay
        return total_delay
