"""Microprotocol composition framework (our Cactus analogue).

Protocol modules (:class:`~repro.stack.module.Microprotocol`) are pure
state machines exchanging typed events; the per-process
:class:`~repro.stack.runtime.StackRuntime` composes them into a stack
and interprets their actions. Its simulated backend,
:class:`~repro.stack.runtime.ProcessRuntime`, charges the CPU for every
dispatch, boundary crossing and send — the mechanical cost of modularity
the paper attributes to frameworks like Cactus.
"""

from repro.stack.actions import (
    Action,
    CancelTimer,
    EmitDown,
    EmitUp,
    Send,
    SendToAll,
    StartTimer,
)
from repro.stack.events import (
    PER_MESSAGE_OVERHEAD,
    AbcastRequest,
    AdeliverIndication,
    DecideIndication,
    Event,
    ProposeRequest,
    RbcastRequest,
    RdeliverIndication,
    batch_wire_size,
    message_wire_size,
)
from repro.stack.module import Microprotocol, ModuleContext
from repro.stack.runtime import AdeliverListener, ProcessRuntime, StackRuntime

__all__ = [
    "PER_MESSAGE_OVERHEAD",
    "AbcastRequest",
    "Action",
    "AdeliverIndication",
    "AdeliverListener",
    "CancelTimer",
    "DecideIndication",
    "EmitDown",
    "EmitUp",
    "Event",
    "Microprotocol",
    "ModuleContext",
    "ProcessRuntime",
    "ProposeRequest",
    "RbcastRequest",
    "RdeliverIndication",
    "Send",
    "SendToAll",
    "StackRuntime",
    "StartTimer",
    "batch_wire_size",
    "message_wire_size",
]
