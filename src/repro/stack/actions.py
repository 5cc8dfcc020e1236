"""Actions returned by protocol module handlers.

Protocol modules are pure state machines: handlers mutate module state
and return a list of actions, and the runtime executes those actions
with modelled CPU and network costs. This keeps every protocol unit-
testable without a kernel — tests call handlers directly and assert on
the returned actions.
"""

from __future__ import annotations

from typing import Any

from repro.stack.events import Event
from repro.types import frozen_record


class Action:
    """Marker base class for module actions."""

    __slots__ = ()


@frozen_record
class Send(Action):
    """Send a point-to-point message through the network.

    Attributes:
        dst: Destination process.
        kind: Protocol message type (for routing within the module,
            statistics and traces).
        payload: Opaque content delivered to the peer module.
        payload_size: Modelled serialized size in bytes (headers are added
            by the runtime according to the module's stack position).
    """

    dst: int
    kind: str
    payload: Any
    payload_size: int


@frozen_record
class SendToAll(Action):
    """Send the same message to every other process (not to self).

    The runtime's send hook takes it as one fan-out over
    ``ctx.others`` (ascending) and leaves exactly what n-1 sequential
    :class:`Send` operations would: each copy is charged individually
    to the CPU — so a crash can (and in fault tests, does) interrupt a
    broadcast halfway through.
    """

    kind: str
    payload: Any
    payload_size: int


@frozen_record
class EmitUp(Action):
    """Deliver an event to the module directly above (or the application)."""

    event: Event


@frozen_record
class EmitDown(Action):
    """Deliver an event to the module directly below."""

    event: Event


@frozen_record
class StartTimer(Action):
    """Arm (or re-arm) a named timer on the emitting module.

    When the timer fires, the runtime invokes the module's
    ``handle_timer(name, payload)``. Re-arming a live timer with the same
    name cancels the previous one.
    """

    name: str
    delay: float
    payload: Any = None


@frozen_record
class CancelTimer(Action):
    """Disarm a named timer. Cancelling a non-armed timer is a no-op."""

    name: str
