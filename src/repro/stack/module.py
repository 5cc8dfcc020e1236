"""Microprotocol base class and module execution context.

A :class:`Microprotocol` is one box in the paper's Fig. 1. It reacts to
four stimuli — events from adjacent modules, network messages addressed
to it, its own timers, and failure-suspicion changes — and responds with
:class:`~repro.stack.actions.Action` lists. Modules hold no references
to their neighbours, the network or the kernel: composition is entirely
the runtime's business, which is what lets the same consensus
implementation run both under the modular composer and inside unit tests
that feed it events by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ProtocolError
from repro.net.message import NetMessage
from repro.stack.actions import Action
from repro.stack.events import Event


@dataclass(frozen=True, slots=True)
class ModuleContext:
    """Static facts and queries a module may use.

    Attributes:
        pid: This process's identifier.
        n: Group size.
        suspects: Zero-argument callable returning the current output of
            this process's failure detector.
        others: All process ids except this process, ascending; derived
            from ``pid`` and ``n`` once (every ``SendToAll`` reads it).
    """

    pid: int
    n: int
    suspects: Callable[[], frozenset[int]]
    others: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "others", tuple(p for p in range(self.n) if p != self.pid)
        )

    @property
    def majority(self) -> int:
        """Smallest majority of the group: ⌊n/2⌋ + 1."""
        return self.n // 2 + 1

    def is_suspected(self, process: int) -> bool:
        """Whether this process's FD currently suspects *process*."""
        return process in self.suspects()


class Microprotocol:
    """Base class of all protocol modules.

    Subclasses set :attr:`name` (used to route network messages to the
    peer module of the same name) and override the ``handle_*`` hooks
    they need. Default implementations reject unexpected stimuli loudly:
    a module receiving an event it does not understand is a composition
    bug, not a runtime condition.
    """

    #: Routing name; must be unique within a stack.
    name: str = "unnamed"

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx

    def on_start(self) -> list[Action]:
        """Called once when the stack starts. Default: nothing."""
        return []

    def handle_event(self, event: Event) -> list[Action]:
        """React to an event emitted by an adjacent module."""
        raise ProtocolError(
            f"module {self.name!r} on p{self.ctx.pid} cannot handle event "
            f"{type(event).__name__}"
        )

    def handle_message(self, message: NetMessage) -> list[Action]:
        """React to a network message addressed to this module."""
        raise ProtocolError(
            f"module {self.name!r} on p{self.ctx.pid} cannot handle message "
            f"kind {message.kind!r}"
        )

    def handle_timer(self, name: str, payload: Any) -> list[Action]:
        """React to one of this module's timers firing."""
        raise ProtocolError(
            f"module {self.name!r} on p{self.ctx.pid} has no timer {name!r}"
        )

    def handle_suspicion(self, suspects: frozenset[int]) -> list[Action]:
        """React to a change in the failure detector output.

        Default: ignore — most modules are failure-detector-oblivious.
        """
        return []
