"""Typed events exchanged between adjacent modules in a composed stack.

These are the module *interfaces* of the paper's Fig. 1: the application
talks to atomic broadcast via abcast/adeliver, atomic broadcast talks to
consensus via propose/decide, and consensus talks to reliable broadcast
via rbcast/rdeliver. A module never sees anything of its neighbours
beyond these events — that opacity is precisely the modularity whose
cost the paper measures.
"""

from __future__ import annotations

from typing import Any

from repro.types import AppMessage, Batch, frozen_record

#: Modelled bytes of identification metadata (message id, sizes, flags)
#: serialized alongside each application message or batch entry.
PER_MESSAGE_OVERHEAD = 16


class Event:
    """Marker base class for inter-module events."""

    __slots__ = ()


@frozen_record
class AbcastRequest(Event):
    """Application → atomic broadcast: order and deliver this message."""

    message: AppMessage


@frozen_record
class AdeliverIndication(Event):
    """Atomic broadcast → application: next message in the total order."""

    message: AppMessage


@frozen_record
class ProposeRequest(Event):
    """Atomic broadcast → consensus: run instance ``instance`` with this
    initial value (a batch of unordered messages)."""

    instance: int
    value: Batch


@frozen_record
class DecideIndication(Event):
    """Consensus → atomic broadcast: instance ``instance`` decided."""

    instance: int
    value: Batch


@frozen_record
class RbcastRequest(Event):
    """Consensus → reliable broadcast: reliably diffuse this payload."""

    payload: Any
    payload_size: int


@frozen_record
class RdeliverIndication(Event):
    """Reliable broadcast → consensus: a reliably broadcast payload."""

    payload: Any
    payload_size: int
    origin: int


def message_wire_size(message: AppMessage) -> int:
    """Modelled serialized size of one application message."""
    return message.size + PER_MESSAGE_OVERHEAD


def batch_wire_size(batch: Batch) -> int:
    """Modelled serialized size of a batch (e.g. a consensus proposal)."""
    return batch.size_bytes + PER_MESSAGE_OVERHEAD * (len(batch) + 1)
