"""Chop Chop-style distillation layer (extension beyond the paper).

Camaioni et al.'s Chop Chop (2024) reaches line-rate atomic broadcast by
"distilling" client submissions into large batches before the ordering
protocol ever sees them, amortizing the per-message header and CPU cost
that otherwise dominates: ordering one batch of b messages costs the
protocol what ordering one message would, so per-message overhead drops
by roughly b.

:class:`DistillationLayer` reproduces the idea as a reusable
microprotocol that composes *on top of any stack* in this repo: it
aggregates local ``AbcastRequest`` submissions into a parcel (a single
container :class:`~repro.types.AppMessage` whose payload is the tuple of
original messages), hands the parcel one layer down, and unbatches
parcels coming back up — emitting one ``AdeliverIndication`` per
original message, in parcel order, so the layer is invisible to the
application except in throughput and latency.

Sealing triggers (either fires first):

* **size** — the parcel reached ``max_messages``;
* **time** — ``flush_interval`` elapsed since the first buffered
  message (bounding the latency a lonely message pays for batching).

Framing: the parcel's modelled wire size is the sum of the original
payload sizes plus :data:`PARCEL_HEADER` bytes per message (offset
table). Crucially the *original* message objects ride inside the parcel
untouched, so delivered messages keep their submission timestamps and
per-message latency is attributed from submission, not from parcel seal.

The registered ``batched-sequencer`` stack composes this layer over the
fixed sequencer — the repo's cheapest ordering core — as the headline
high-throughput configuration.
"""

from __future__ import annotations

from typing import Any

from repro.config import BatchingConfig
from repro.stack.actions import (
    Action,
    CancelTimer,
    EmitDown,
    EmitUp,
    StartTimer,
)
from repro.stack.events import AbcastRequest, AdeliverIndication, Event
from repro.stack.module import Microprotocol, ModuleContext
from repro.types import AppMessage, DeliveryLedger, MessageId

#: Modelled framing bytes per message inside a parcel (offset table).
PARCEL_HEADER = 8

#: Parcel sequence numbers start here, far above any client sequence
#: number, so parcels are recognizable on delivery and never collide
#: with per-sender client ids.
PARCEL_SEQ_BASE = 2**32


def is_parcel(message: AppMessage) -> bool:
    """Whether *message* is a sealed parcel (vs. a client submission)."""
    return message.msg_id.seq >= PARCEL_SEQ_BASE


class DistillationLayer(Microprotocol):
    """Size/time-triggered batching of submissions into parcels."""

    name = "distill"

    def __init__(self, ctx: ModuleContext, config: BatchingConfig | None = None) -> None:
        super().__init__(ctx)
        self.config = config if config is not None else BatchingConfig()
        self._buffer: list[AppMessage] = []
        self._timer_armed = False
        self._sealed = 0  # parcels sealed locally (per-sender parcel seq)
        self._unbatched = 0  # parcels delivered (the progress probe)
        self._delivered = DeliveryLedger()
        self._outstanding: set[MessageId] = set()  # own submissions in flight

    # -- stimuli -----------------------------------------------------------

    def handle_event(self, event: Event) -> list[Action]:
        if isinstance(event, AbcastRequest):
            return self._on_submit(event.message)
        if isinstance(event, AdeliverIndication):
            return self._on_deliver(event.message)
        return super().handle_event(event)

    def handle_timer(self, name: str, payload: Any) -> list[Action]:
        if name == "flush":
            return self._on_flush()
        return super().handle_timer(name, payload)

    # -- batching ----------------------------------------------------------

    def _on_submit(self, message: AppMessage) -> list[Action]:
        self._outstanding.add(message.msg_id)
        self._buffer.append(message)
        if len(self._buffer) >= self.config.max_messages:
            actions: list[Action] = []
            if self._timer_armed:
                self._timer_armed = False
                actions.append(CancelTimer("flush"))
            actions.extend(self._seal())
            return actions
        if not self._timer_armed:
            self._timer_armed = True
            return [StartTimer("flush", self.config.flush_interval)]
        return []

    def _on_flush(self) -> list[Action]:
        self._timer_armed = False
        if not self._buffer:
            return []  # raced with a size-triggered seal; nothing to do
        return self._seal()

    def _seal(self) -> list[Action]:
        parts = tuple(self._buffer)
        self._buffer.clear()
        parcel = AppMessage(
            msg_id=MessageId(self.ctx.pid, PARCEL_SEQ_BASE + self._sealed),
            size=sum(part.size for part in parts) + PARCEL_HEADER * len(parts),
            # The parcel inherits the oldest submission time so that any
            # layer below that reasons about age is conservative; the
            # per-message metrics come from the parts themselves.
            abcast_time=parts[0].abcast_time,
            payload=parts,
        )
        self._sealed += 1
        return [EmitDown(AbcastRequest(parcel))]

    # -- unbatching --------------------------------------------------------

    def _on_deliver(self, message: AppMessage) -> list[Action]:
        if not is_parcel(message):
            # Pass-through: a peer without a batching layer (or a
            # recovery path) delivered a bare client message.
            return self._deliver_part(message)
        self._unbatched += 1
        actions: list[Action] = []
        # Parts are emitted in parcel order — the order the sender
        # batched them — NOT re-sorted, so every process unbatches the
        # identical sequence and the total order extends to parts.
        for part in message.payload:
            actions.extend(self._deliver_part(part))
        return actions

    def _deliver_part(self, part: AppMessage) -> list[Action]:
        if not self._delivered.add(part.msg_id):
            return []
        self._outstanding.discard(part.msg_id)
        return [EmitUp(AdeliverIndication(part))]

    # -- introspection -----------------------------------------------------

    @property
    def next_instance(self) -> int:
        """Parcels delivered (name-compatible progress probe)."""
        return self._unbatched

    @property
    def unordered_count(self) -> int:
        """Own submissions not yet delivered back, whether still in the
        unsealed buffer or riding a parcel (live backpressure probe)."""
        return len(self._outstanding)

    # -- crash recovery ----------------------------------------------------

    def resume_at(self, next_instance: int, delivered: set[MessageId]) -> None:
        """Rejoin after a crash: *next_instance* is this layer's parcel
        count from the write-ahead log and *delivered* the client
        messages already handed to the application (never re-emitted).
        Parcel sequence numbers restart above the recovered count so a
        reborn process never reuses a pre-crash parcel id."""
        self._unbatched = max(self._unbatched, next_instance)
        self._sealed = max(self._sealed, next_instance)
        self._delivered.update(delivered)
