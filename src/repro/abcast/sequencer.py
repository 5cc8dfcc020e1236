"""Fixed-sequencer atomic broadcast — a non-consensus baseline.

The paper's related work contrasts its consensus-reduction stacks with
systems like Ensemble and Appia, where atomic broadcast "is not solved
by reduction to consensus, but rather relies on group membership". The
simplest member of that family is the fixed sequencer: every message is
sent to one distinguished process, which assigns global sequence numbers
and broadcasts; receivers deliver in sequence-number order. Per message
it costs n messages and two communication steps — cheaper than either of
the paper's stacks.

**Scope: good runs only.** Fail-over of a sequencer without an agreement
protocol (or a membership service, which is itself built on agreement)
cannot preserve uniform total order: a crashed sequencer may have
numbered-and-partially-sent messages that survivors cannot consistently
reconcile. That impossibility is precisely why the paper's stacks pay
for consensus. This module therefore *detects* a sequencer crash (via
the failure detector) and raises :class:`~repro.errors.ProtocolError`
instead of guessing — it exists as a performance reference point for the
extension claims (``tests/integration/test_paper_claims.py``), where it
bounds what any fault-tolerant design gives up.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.net.message import NetMessage
from repro.net.wire import wire_payload
from repro.stack.actions import Action, EmitUp, Send, SendToAll
from repro.stack.events import (
    AbcastRequest,
    AdeliverIndication,
    Event,
    message_wire_size,
)
from repro.stack.module import Microprotocol, ModuleContext
from repro.types import AppMessage

#: Bytes of sequencing metadata per sequenced message.
SEQUENCE_OVERHEAD = 12


@wire_payload
@dataclass(frozen=True, slots=True)
class Sequenced:
    """A message with its assigned global sequence number."""

    global_seq: int
    message: AppMessage

    @property
    def wire_size(self) -> int:
        return message_wire_size(self.message) + SEQUENCE_OVERHEAD


class SequencerAtomicBroadcast(Microprotocol):
    """Fixed-sequencer total ordering (good runs only; see module doc)."""

    name = "seq"

    #: The sequencer is process 0, mirroring the stacks' coordinator.
    SEQUENCER = 0

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        self._next_assign = 0  # sequencer: next global sequence number
        self._next_deliver = 0  # everyone: next in-order delivery
        self._pending: dict[int, AppMessage] = {}

    @property
    def is_sequencer(self) -> bool:
        """Whether this process assigns sequence numbers."""
        return self.ctx.pid == self.SEQUENCER

    # -- stimuli -----------------------------------------------------------

    def handle_event(self, event: Event) -> list[Action]:
        if not isinstance(event, AbcastRequest):
            return super().handle_event(event)
        if self.is_sequencer:
            return self._sequence(event.message)
        forward_size = message_wire_size(event.message)
        return [Send(self.SEQUENCER, "TO_SEQ", event.message, forward_size)]

    def handle_message(self, message: NetMessage) -> list[Action]:
        if message.kind == "TO_SEQ":
            if not self.is_sequencer:
                raise ProtocolError(
                    f"p{self.ctx.pid} received TO_SEQ but is not the sequencer"
                )
            return self._sequence(message.payload)
        if message.kind == "SEQUENCED":
            return self._accept(message.payload)
        return super().handle_message(message)

    def handle_suspicion(self, suspects: frozenset[int]) -> list[Action]:
        if self.SEQUENCER in suspects and not self.is_sequencer:
            raise ProtocolError(
                "the sequencer is suspected: fixed-sequencer atomic broadcast "
                "cannot fail over without an agreement protocol (this baseline "
                "is good-runs-only; use the modular or monolithic stack)"
            )
        return []

    def resume_at(self, next_instance: int, delivered: set) -> None:
        """Refuse crash recovery: a reborn process cannot learn which
        global sequence numbers the sequencer already handed out, and
        restarting at 0 would silently re-number delivered messages."""
        raise ProtocolError(
            f"stack module {self.name!r} does not support crash recovery "
            "(fixed-sequencer atomic broadcast is good-runs-only)"
        )

    # -- protocol ------------------------------------------------------------

    def _sequence(self, message: AppMessage) -> list[Action]:
        sequenced = Sequenced(self._next_assign, message)
        self._next_assign += 1
        actions: list[Action] = [
            SendToAll("SEQUENCED", sequenced, sequenced.wire_size)
        ]
        actions.extend(self._accept(sequenced))
        return actions

    def _accept(self, sequenced: Sequenced) -> list[Action]:
        self._pending[sequenced.global_seq] = sequenced.message
        actions: list[Action] = []
        while self._next_deliver in self._pending:
            delivered = self._pending.pop(self._next_deliver)
            self._next_deliver += 1
            actions.append(EmitUp(AdeliverIndication(delivered)))
        return actions

    # -- introspection ----------------------------------------------------------

    @property
    def next_instance(self) -> int:
        """Delivered count (kept name-compatible with the other stacks
        so the experiment runner's progress probe works)."""
        return self._next_deliver

    #: Nothing awaits ordering here — the sequencer numbers a message on
    #: arrival (the live backpressure probe of the other stacks).
    unordered_count = 0
