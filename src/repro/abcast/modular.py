"""Modular atomic broadcast (paper §3.3, Fig. 1 left / Fig. 4).

Chandra–Toueg reduction of atomic broadcast to consensus, implemented as
a module that treats consensus as a black box: it only ever exchanges
``ProposeRequest``/``DecideIndication`` events with the module below and
cannot see coordinators, rounds or consensus message flows — the
opacity whose performance cost the paper measures.

Protocol:

* ``abcast(m)`` — diffuse *m* to every process over plain quasi-reliable
  channels (the §3.3 optimization: no reliable broadcast for diffusion)
  and add it to the set of unordered messages.
* Whenever unordered messages exist and no consensus instance is
  running, propose the whole set as instance ``k`` (the next undecided
  instance).
* On ``decide(k, batch)`` — adeliver the batch in deterministic
  :class:`~repro.types.MessageId` order, skipping duplicates, then start
  the next instance if messages remain.

Correctness guard (§3.3): plain-channel diffusion can leave a message at
only a subset of processes if its sender crashes mid-diffusion. A guard
timer re-diffuses messages that stay unordered for more than
``guard_timeout`` seconds and re-attempts a proposal, which guarantees
every correct process (in particular, every future coordinator)
eventually holds the message. This replaces the paper's "start a
consensus even if no message arrives" rule by a mechanism with the same
effect and no idle-time traffic.
"""

from __future__ import annotations

from typing import Any

from repro.net.message import NetMessage
from repro.stack.actions import (
    Action,
    CancelTimer,
    EmitDown,
    EmitUp,
    SendToAll,
    StartTimer,
)
from repro.stack.events import (
    AbcastRequest,
    AdeliverIndication,
    DecideIndication,
    Event,
    ProposeRequest,
    message_wire_size,
)
from repro.stack.module import Microprotocol, ModuleContext
from repro.types import AppMessage, Batch, DeliveryLedger, MessageId

#: Name of the §3.3 correctness guard timer.
GUARD_TIMER = "guard"


class ModularAtomicBroadcast(Microprotocol):
    """ABcast module of the modular stack; sits on top of consensus."""

    name = "abcast"

    def __init__(
        self,
        ctx: ModuleContext,
        guard_timeout: float = 0.5,
        max_batch: int | None = None,
    ) -> None:
        super().__init__(ctx)
        self.guard_timeout = guard_timeout
        self.max_batch = max_batch
        #: Received but not yet adelivered messages, insertion-ordered.
        self._unordered: dict[MessageId, AppMessage] = {}
        #: Guard generation at which each unordered message arrived; the
        #: guard only re-diffuses messages older than one full period.
        self._arrival_generation: dict[MessageId, int] = {}
        self._guard_generation = 0
        #: Ids already adelivered (cross-batch deduplication).
        self._adelivered = DeliveryLedger()
        #: Next consensus instance to decide (== next to propose).
        self._next_decide = 0
        #: Whether a proposal for ``_next_decide`` is outstanding.
        self._consensus_running = False
        #: Decisions that arrived ahead of ``_next_decide``.
        self._pending_decisions: dict[int, Batch] = {}
        self._guard_armed = False

    # -- introspection (used by tests and the flow controller) ----------

    @property
    def unordered_count(self) -> int:
        """Number of messages awaiting ordering."""
        return len(self._unordered)

    @property
    def next_instance(self) -> int:
        """The next consensus instance this process will decide."""
        return self._next_decide

    # -- crash recovery ----------------------------------------------------

    def resume_at(self, next_instance: int, delivered: set[MessageId]) -> None:
        """Fast-forward a freshly built stack to a recovered position.

        Called once, before any traffic, on a worker that restarted
        after a crash and caught up via WAL + state transfer:
        *delivered* ids were already adelivered by the previous
        incarnation (or applied during catch-up) and must never be
        adelivered again, and the next consensus instance this process
        participates in is *next_instance* — proposing instance 0 again
        would stall forever, because round-1 coordinators never re-run
        decided instances (laggards are served decisions on demand via
        the consensus recovery path instead).
        """
        self._next_decide = max(self._next_decide, next_instance)
        self._adelivered.update(delivered)
        for msg_id in delivered:
            self._unordered.pop(msg_id, None)
            self._arrival_generation.pop(msg_id, None)
        for instance in [i for i in self._pending_decisions if i < self._next_decide]:
            del self._pending_decisions[instance]

    # -- stimuli ---------------------------------------------------------

    def handle_event(self, event: Event) -> list[Action]:
        if isinstance(event, AbcastRequest):
            return self._on_abcast(event.message)
        if isinstance(event, DecideIndication):
            return self._on_decide(event.instance, event.value)
        return super().handle_event(event)

    def handle_message(self, message: NetMessage) -> list[Action]:
        if message.kind != "DIFFUSE":
            return super().handle_message(message)
        return self._on_diffuse(message.payload)

    def handle_timer(self, name: str, payload: Any) -> list[Action]:
        if name != GUARD_TIMER:
            return super().handle_timer(name, payload)
        return self._on_guard_fired()

    # -- protocol --------------------------------------------------------

    def _on_abcast(self, message: AppMessage) -> list[Action]:
        self._unordered[message.msg_id] = message
        self._arrival_generation[message.msg_id] = self._guard_generation
        actions: list[Action] = [
            SendToAll("DIFFUSE", message, message_wire_size(message))
        ]
        actions.extend(self._maybe_propose())
        actions.extend(self._manage_guard())
        return actions

    def _on_diffuse(self, message: AppMessage) -> list[Action]:
        if message.msg_id in self._adelivered or message.msg_id in self._unordered:
            return []
        self._unordered[message.msg_id] = message
        self._arrival_generation[message.msg_id] = self._guard_generation
        actions = self._maybe_propose()
        actions.extend(self._manage_guard())
        return actions

    def _on_decide(self, instance: int, batch: Batch) -> list[Action]:
        if instance < self._next_decide:
            return []  # duplicate decision (e.g. recovery race)
        self._pending_decisions[instance] = batch
        actions: list[Action] = []
        while self._next_decide in self._pending_decisions:
            decided = self._pending_decisions.pop(self._next_decide)
            for message in decided.in_delivery_order():
                if not self._adelivered.add(message.msg_id):
                    continue
                self._unordered.pop(message.msg_id, None)
                self._arrival_generation.pop(message.msg_id, None)
                actions.append(EmitUp(AdeliverIndication(message)))
            self._next_decide += 1
            self._consensus_running = False
        actions.extend(self._maybe_propose())
        actions.extend(self._manage_guard())
        return actions

    def _on_guard_fired(self) -> list[Action]:
        self._guard_armed = False
        self._guard_generation += 1
        if not self._unordered:
            return []
        # Re-diffuse messages that survived a full guard period without
        # being ordered (a healthy loaded system orders messages within
        # milliseconds, so only genuinely stuck messages qualify, e.g.
        # after their sender crashed mid-diffusion). Idempotent at
        # receivers; guarantees future coordinators hold these messages.
        actions: list[Action] = []
        for msg_id, message in self._unordered.items():
            if self._arrival_generation[msg_id] < self._guard_generation - 1:
                actions.append(
                    SendToAll("DIFFUSE", message, message_wire_size(message))
                )
        actions.extend(self._maybe_propose())
        actions.extend(self._manage_guard())
        return actions

    def _maybe_propose(self) -> list[Action]:
        if self._consensus_running or not self._unordered:
            return []
        self._consensus_running = True
        instance = self._next_decide
        messages = tuple(self._unordered.values())
        if self.max_batch is not None:
            messages = messages[: self.max_batch]
        batch = Batch(instance, messages)
        return [EmitDown(ProposeRequest(instance, batch))]

    def _manage_guard(self) -> list[Action]:
        if self._unordered and not self._guard_armed:
            self._guard_armed = True
            return [StartTimer(GUARD_TIMER, self.guard_timeout)]
        if not self._unordered and self._guard_armed:
            self._guard_armed = False
            return [CancelTimer(GUARD_TIMER)]
        return []
