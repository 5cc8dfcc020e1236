"""Reliable broadcast (the paper's RBcast module, §3.1).

Two variants of the classical quasi-reliable-channel algorithm of
Chandra & Toueg:

* **classical** — on rbcast, send to everyone; on first reception,
  re-send to everyone. Order of n² messages per broadcast.
* **majority** — the paper's optimization: only a fixed *relay set* of
  ⌊(n-1)/2⌋ processes re-sends, giving exactly
  ``(n-1) · (⌊(n-1)/2⌋ + 1)`` messages per broadcast.

The paper omits the details of the majority optimization; our concrete
scheme is: the relay set of a broadcast from ``origin`` is the
⌊(n-1)/2⌋ lowest-ranked processes other than ``origin``, and the origin
transmits to relay-set members *first*. Correctness under a correct
majority: the origin plus its relay set form a majority of the group, so
at least one of them is correct; sends being ordered relay-set-first,
any delivery at a non-relay implies all relay-set transmissions already
left the origin's NIC; a correct relay re-sends to everyone on first
reception. Hence if any correct process rdelivers, all correct processes
eventually rdeliver.
"""

from __future__ import annotations

from typing import Any

from repro.config import ReliableBroadcastVariant
from repro.stack.actions import Action, EmitUp, Send
from repro.stack.events import (
    PER_MESSAGE_OVERHEAD,
    Event,
    RbcastRequest,
    RdeliverIndication,
)
from repro.stack.module import Microprotocol, ModuleContext
from repro.net.message import NetMessage
from repro.net.wire import wire_payload
from repro.types import DeliveryLedger, frozen_record

#: Modelled bytes of rbcast framing (origin, sequence number).
RB_CONTROL_OVERHEAD = PER_MESSAGE_OVERHEAD


@wire_payload
@frozen_record
class RbMessage:
    """Wire payload of one reliable-broadcast transmission."""

    origin: int
    seq: int
    inner: Any
    inner_size: int

    @property
    def key(self) -> tuple[int, int]:
        """Deduplication key of the broadcast."""
        return (self.origin, self.seq)

    @property
    def wire_payload_size(self) -> int:
        """Modelled serialized size of this rbcast payload."""
        return self.inner_size + RB_CONTROL_OVERHEAD


def relay_set(origin: int, n: int) -> tuple[int, ...]:
    """The ⌊(n-1)/2⌋ lowest-ranked processes other than *origin*."""
    count = (n - 1) // 2
    return tuple(p for p in range(n) if p != origin)[:count]


def classical_message_count(n: int) -> int:
    """Network messages per classical rbcast to *n* processes."""
    return n * (n - 1)


def majority_message_count(n: int) -> int:
    """Network messages per majority-optimized rbcast (paper §3.1/§4.3)."""
    return (n - 1) * ((n - 1) // 2 + 1)


class ReliableBroadcast(Microprotocol):
    """RBcast microprotocol; sits at the bottom of the modular stack."""

    name = "rbcast"

    def __init__(
        self,
        ctx: ModuleContext,
        variant: ReliableBroadcastVariant = ReliableBroadcastVariant.MAJORITY,
    ) -> None:
        super().__init__(ctx)
        self.variant = variant
        self._next_seq = 0
        self._delivered = DeliveryLedger()
        #: Per origin: this process's destinations in relay-set-first
        #: order (see module docstring), and whether it relays at all.
        #: Both depend on ``(origin, n, pid)`` only.
        self._destinations: list[tuple[int, ...]] = []
        self._relays: list[bool] = []
        everyone = range(ctx.n)
        for origin in everyone:
            relays = relay_set(origin, ctx.n)
            rest = [p for p in everyone if p not in relays and p != origin]
            self._destinations.append(
                tuple(dst for dst in (*relays, origin, *rest) if dst != ctx.pid)
            )
            self._relays.append(
                variant is ReliableBroadcastVariant.CLASSICAL or ctx.pid in relays
            )

    # ------------------------------------------------------------------

    def handle_event(self, event: Event) -> list[Action]:
        if not isinstance(event, RbcastRequest):
            return super().handle_event(event)
        rb = RbMessage(
            origin=self.ctx.pid,
            seq=self._next_seq,
            inner=event.payload,
            inner_size=event.payload_size,
        )
        self._next_seq += 1
        self._delivered.add(rb.key)
        actions = self._sends(rb)
        # Local delivery: the origin rdelivers its own broadcast at once.
        actions.append(
            EmitUp(RdeliverIndication(rb.inner, rb.inner_size, origin=rb.origin))
        )
        return actions

    def handle_message(self, message: NetMessage) -> list[Action]:
        if message.kind != "RB":
            return super().handle_message(message)
        rb: RbMessage = message.payload
        if not self._delivered.add(rb.key):
            return []
        actions: list[Action] = [
            EmitUp(RdeliverIndication(rb.inner, rb.inner_size, origin=rb.origin))
        ]
        if self._relays[rb.origin]:
            # Relay to everyone but ourselves — n-1 messages per relayer,
            # which is exactly the paper's (n-1)·(⌊(n-1)/2⌋+1) total.
            actions.extend(self._sends(rb))
        return actions

    # ------------------------------------------------------------------

    def _sends(self, rb: RbMessage) -> list[Action]:
        """Sends in relay-set-first order (see module docstring)."""
        size = rb.wire_payload_size
        return [Send(dst, "RB", rb, size) for dst in self._destinations[rb.origin]]
