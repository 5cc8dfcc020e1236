"""Monolithic atomic broadcast (paper §4, Fig. 1 right / Fig. 6).

One module implementing the merged abcast + consensus + rbcast protocol
with the paper's three good-run optimizations:

* **§4.1 — decision ⊕ next proposal.** Successive consensus instances
  run inside this module, so the coordinator knows it also coordinates
  instance k+1 and sends "proposal k+1 + decision k" as one message.
* **§4.2 — abcast ⊕ ack.** A process with messages to abcast does not
  diffuse them to everyone; it piggybacks them on its next ack to the
  coordinator (or forwards them directly when the group is idle), and
  re-sends them to the new coordinator via its estimate after a
  coordinator change.
* **§4.3 — cheap decision broadcast.** Decisions are sent plainly to
  all; the messages of instance k+1 act as acknowledgments of decision
  k, so no reliable-broadcast relaying is needed in good runs.

In good runs one consensus instance therefore costs exactly ``2(n-1)``
messages — the count of the paper's §5.2.1.

The module *extends* the shared consensus machinery of
:class:`~repro.consensus.base.BaseConsensus`: rounds ≥ 2 (after a
suspicion) fall back to the safe estimate/propose/ack path, decisions of
those rounds carry their full value, and the decision-tag recovery
protocol covers coordinator crashes — correctness in all runs, as the
paper requires, while the optimizations pay off in good runs only.

Each optimization can be disabled independently through
:class:`~repro.config.MonolithicOptimizations` for the ablation benches;
the disabled code paths fall back to modular-style behaviour (full
diffusion, standalone decisions, relay-emulated reliable broadcast).
"""

from __future__ import annotations

from typing import Any

from repro.abcast.messages import (
    AckWithDiffusion,
    CombinedProposal,
    Forward,
    RbDecision,
)
from repro.broadcast.reliable import relay_set
from repro.config import MonolithicOptimizations
from repro.consensus.base import BaseConsensus
from repro.consensus.instance import InstanceState, coordinator_of_round
from repro.consensus.messages import Ack, DecisionTag, DecisionValue, Proposal
from repro.net.message import NetMessage
from repro.stack.actions import Action, EmitUp, Send, SendToAll
from repro.stack.events import (
    AbcastRequest,
    AdeliverIndication,
    Event,
    message_wire_size,
)
from repro.stack.module import ModuleContext
from repro.types import AppMessage, Batch, DeliveryLedger, MessageId


class MonolithicAtomicBroadcast(BaseConsensus):
    """The paper's monolithic stack as a single microprotocol."""

    name = "mono"

    def __init__(
        self,
        ctx: ModuleContext,
        optimizations: MonolithicOptimizations | None = None,
        max_batch: int | None = None,
    ) -> None:
        super().__init__(ctx)
        self.opts = optimizations or MonolithicOptimizations()
        self.max_batch = max_batch
        #: Messages known to this process and not yet adelivered. At the
        #: coordinator this pools everything received for ordering; at
        #: other processes it holds their own pending messages (plus
        #: everything diffused, when §4.2 is ablated off).
        self._pool: dict[MessageId, AppMessage] = {}
        #: Ids already adelivered (cross-batch deduplication).
        self._adelivered = DeliveryLedger()
        #: Own message ids already handed to the initial coordinator.
        self._relayed: set[MessageId] = set()
        self._next_decide = 0
        self._pending_decisions: dict[int, Batch] = {}
        #: Coordinator flag: a round-1 proposal is outstanding.
        self._instance_running = False
        #: Non-coordinator flag: the consensus pipeline is active, so
        #: pending messages should ride the next ack instead of being
        #: forwarded separately.
        self._expecting_combined = False
        #: Decision decided here but not yet announced to the group.
        self._unannounced: tuple[int, int] | None = None
        #: Instances whose relay-emulated decision we already re-sent,
        #: recorded as ids ``(0, k)``: instances are dense from 0 too.
        self._rb_seen = DeliveryLedger()
        #: Suppresses standalone forwards while handling a COMBINED
        #: (the ack piggyback will carry pending messages instead).
        self._suppress_forward = False
        self._initial_coordinator = coordinator_of_round(1, ctx.n)

    # -- introspection ---------------------------------------------------

    @property
    def is_initial_coordinator(self) -> bool:
        """Whether this process coordinates round 1 of every instance."""
        return self.ctx.pid == self._initial_coordinator

    @property
    def unordered_count(self) -> int:
        """Messages known but not yet adelivered."""
        return len(self._pool)

    @property
    def next_instance(self) -> int:
        """The next consensus instance this process will adeliver."""
        return self._next_decide

    # -- crash recovery ----------------------------------------------------

    def resume_at(self, next_instance: int, delivered: set[MessageId]) -> None:
        """Fast-forward a freshly built stack to a recovered position.

        Same contract as
        :meth:`repro.abcast.modular.ModularAtomicBroadcast.resume_at`:
        applied once before any traffic on a restarted worker, after it
        re-applied its WAL prefix and state-transferred the rest.
        """
        self._next_decide = max(self._next_decide, next_instance)
        self._adelivered.update(delivered)
        for msg_id in delivered:
            self._pool.pop(msg_id, None)
            self._relayed.discard(msg_id)
        for instance in [i for i in self._pending_decisions if i < self._next_decide]:
            del self._pending_decisions[instance]

    # -- stimuli -----------------------------------------------------------

    def handle_event(self, event: Event) -> list[Action]:
        if isinstance(event, AbcastRequest):
            return self._on_abcast(event.message)
        # No ProposeRequest / RdeliverIndication: this module has no
        # neighbours below, so the base class paths must stay unreachable.
        return super(BaseConsensus, self).handle_event(event)

    def handle_message(self, message: NetMessage) -> list[Action]:
        kind = message.kind
        if kind == "COMBINED":
            return self._on_combined(message.src, message.payload)
        if kind == "ACKPIGGY":
            return self._on_ack_with_diffusion(message.src, message.payload)
        if kind == "FORWARD":
            return self._on_forward(message.payload)
        if kind == "M_DIFFUSE":
            return self._on_mono_diffuse(message.payload)
        if kind == "DECISION":
            return self._on_rdeliver(message.payload)
        if kind == "RB_DECISION":
            return self._on_rb_decision(message.payload)
        if kind == "JOIN":
            return self._on_join(message.src, message.payload)
        return super().handle_message(message)

    def handle_suspicion(self, suspects: frozenset[int]) -> list[Action]:
        actions: list[Action] = []
        if self._initial_coordinator in suspects:
            # §4.2: messages previously handed to the (now suspected)
            # coordinator must be piggybacked again on the estimates sent
            # to the new coordinator — their relay marks are void.
            self._relayed.clear()
            if self._pool or self.has_instance(self._next_decide):
                self._materialize_estimate(self.instance(self._next_decide))
        actions.extend(super().handle_suspicion(suspects))
        actions.extend(self._ensure_progress())
        return actions

    # -- abcast side -------------------------------------------------------

    def _on_abcast(self, message: AppMessage) -> list[Action]:
        self._pool[message.msg_id] = message
        if self.is_initial_coordinator:
            return self._maybe_start_instance()
        if not self.opts.piggyback_on_ack:
            # Ablation of §4.2: modular-style diffusion to everyone.
            actions: list[Action] = [
                SendToAll("M_DIFFUSE", message, message_wire_size(message))
            ]
            actions.extend(self._ensure_progress())
            return actions
        if self._expecting_combined:
            return []  # rides the next ack (§4.2, Fig. 6)
        if self._initial_coordinator in self.ctx.suspects():
            return self._join_and_advance()
        return self._forward_unrelayed()

    def _forward_unrelayed(self) -> list[Action]:
        pending = tuple(
            m for mid, m in self._pool.items() if mid not in self._relayed
        )
        if not pending:
            return []
        self._relayed.update(m.msg_id for m in pending)
        forward = Forward(pending)
        return [Send(self._initial_coordinator, "FORWARD", forward, forward.wire_size)]

    def _on_forward(self, forward: Forward) -> list[Action]:
        self._admit(forward.messages)
        return self._maybe_start_instance()

    def _on_mono_diffuse(self, message: AppMessage) -> list[Action]:
        self._admit((message,))
        if self.is_initial_coordinator:
            return self._maybe_start_instance()
        return self._ensure_progress()

    def _admit(self, messages: tuple[AppMessage, ...]) -> None:
        for message in messages:
            if message.msg_id not in self._adelivered:
                self._pool.setdefault(message.msg_id, message)

    # -- good-run fast path: coordinator ------------------------------------

    def _maybe_start_instance(self) -> list[Action]:
        if not self.is_initial_coordinator or self._instance_running:
            return []
        if not self._pool:
            return []
        instance = self._next_decide
        state = self.instance(instance)
        if state.decided is not None:
            return []
        if state.round != 1 or 1 in state.proposal_sent_rounds:
            # The instance already advanced past round 1 (suspicions);
            # leave it to the estimate/propose path of the base class.
            return []
        self._instance_running = True
        messages = tuple(self._pool.values())
        if self.max_batch is not None:
            messages = messages[: self.max_batch]
        batch = Batch(instance, messages)
        state.estimate = batch
        state.ts = 1
        state.proposals[1] = batch
        state.proposal_sent_rounds.add(1)
        state.acks.setdefault(1, set()).add(self.ctx.pid)
        decided_tag: DecisionTag | None = None
        if self.opts.combine_decision_with_proposal and self._unannounced is not None:
            decided_tag = DecisionTag(*self._unannounced)
            self._unannounced = None
        combined = CombinedProposal(Proposal(instance, 1, batch), decided_tag)
        return [SendToAll("COMBINED", combined, combined.wire_size)]

    # -- good-run fast path: non-coordinators --------------------------------

    def _on_combined(self, sender: int, combined: CombinedProposal) -> list[Action]:
        actions: list[Action] = []
        if combined.decided is not None:
            self._suppress_forward = True
            try:
                actions.extend(self._on_rdeliver(combined.decided))
            finally:
                self._suppress_forward = False
        proposal = combined.proposal
        state = self.instance(proposal.instance)
        state.record_proposal(proposal.round, proposal.value)
        if state.decided is None and proposal.round >= state.round:
            state.round = proposal.round
            state.estimate = proposal.value
            state.ts = proposal.round
            piggyback = self._collect_piggyback() if self.opts.piggyback_on_ack else ()
            ack = AckWithDiffusion(
                ack=Ack(proposal.instance, proposal.round), messages=piggyback
            )
            actions.append(Send(sender, "ACKPIGGY", ack, ack.wire_size))
            self._expecting_combined = True
            actions.extend(self._advance_past_suspects(state, self.ctx.suspects()))
        actions.extend(self._maybe_complete_recovery(state))
        return actions

    def _collect_piggyback(self) -> tuple[AppMessage, ...]:
        pending = tuple(
            m for mid, m in self._pool.items() if mid not in self._relayed
        )
        self._relayed.update(m.msg_id for m in pending)
        return pending

    def _on_ack_with_diffusion(
        self, sender: int, ack: AckWithDiffusion
    ) -> list[Action]:
        self._admit(ack.messages)
        actions = self._on_ack(sender, ack.ack)
        # The ack may be a straggler for an instance that decided on an
        # earlier majority, in which case _on_ack is a no-op — but its
        # piggybacked messages still need an instance to order them. A
        # message riding the last ack of a drained pipeline would
        # otherwise be stranded in the pool forever (validity violation).
        actions.extend(self._maybe_start_instance())
        return actions

    # -- decision announcement (overrides the rbcast of the base class) -----

    def _announce_decision(self, state: InstanceState, round_number: int) -> list[Action]:
        value = state.proposals[round_number]
        self._unannounced = (state.instance, round_number)
        # Deciding locally may immediately start instance k+1, which
        # consumes the pending announcement as a §4.1 piggyback.
        actions = self._decide(state, value)
        if self._unannounced is None:
            return actions
        instance, decided_round = self._unannounced
        self._unannounced = None
        if decided_round > 1:
            # Bad-run path: the decider may not share round-1 state with
            # everyone, so ship the full value (safe against recovery).
            decision = DecisionValue(instance, value)
            actions.append(SendToAll("DECISION", decision, decision.wire_size))
            return actions
        tag = DecisionTag(instance, decided_round)
        if self.opts.cheap_decision_broadcast:
            # §4.3: plain send; consensus k+1 traffic acts as the ack.
            actions.append(SendToAll("DECISION", tag, tag.wire_size))
        else:
            actions.extend(self._rb_decision_sends(RbDecision(tag, self.ctx.pid)))
        return actions

    def _rb_decision_sends(self, rb: RbDecision) -> list[Action]:
        self._rb_seen.add((0, rb.tag.instance))
        relays = relay_set(rb.origin, self.ctx.n)
        rest = [
            p for p in range(self.ctx.n) if p not in relays and p != rb.origin
        ]
        ordered = [*relays, rb.origin, *rest]
        return [
            Send(dst, "RB_DECISION", rb, rb.wire_size)
            for dst in ordered
            if dst != self.ctx.pid
        ]

    def _on_rb_decision(self, rb: RbDecision) -> list[Action]:
        actions: list[Action] = []
        if self._rb_seen.add((0, rb.tag.instance)):
            if self.ctx.pid in relay_set(rb.origin, self.ctx.n):
                actions.append(SendToAll("RB_DECISION", rb, rb.wire_size))
        actions.extend(self._on_rdeliver(rb.tag))
        return actions

    # -- decision consumption (overrides the DecideIndication of the base) --

    def _emit_decision(self, state: InstanceState, value: Batch) -> list[Action]:
        instance = state.instance
        if instance < self._next_decide:
            return []
        self._pending_decisions[instance] = value
        actions: list[Action] = []
        progressed = False
        while self._next_decide in self._pending_decisions:
            batch = self._pending_decisions.pop(self._next_decide)
            for message in batch.in_delivery_order():
                if not self._adelivered.add(message.msg_id):
                    continue
                self._pool.pop(message.msg_id, None)
                self._relayed.discard(message.msg_id)
                actions.append(EmitUp(AdeliverIndication(message)))
            self._next_decide += 1
            self._instance_running = False
            progressed = True
        if progressed and not self.is_initial_coordinator:
            # A decision reaching us outside a COMBINED means the
            # pipeline drained; new messages must be forwarded explicitly.
            self._expecting_combined = False
        actions.extend(self._ensure_progress())
        return actions

    def _ensure_progress(self) -> list[Action]:
        if self.is_initial_coordinator:
            return self._maybe_start_instance()
        if self._suppress_forward:
            return []
        if not self.opts.piggyback_on_ack:
            # Diffusion mode (§4.2 ablated): everyone already holds the
            # pool; after the initial coordinator is suspected, ordering
            # progresses through the estimate path.
            if self._pool and self._initial_coordinator in self.ctx.suspects():
                return self._join_and_advance()
            return []
        if all(mid in self._relayed for mid in self._pool):
            return []
        if self._initial_coordinator in self.ctx.suspects():
            return self._join_and_advance()
        if self._expecting_combined:
            return []
        return self._forward_unrelayed()

    # -- bad-run machinery ---------------------------------------------------

    def _materialize_estimate(self, state: InstanceState) -> None:
        """Adopt the local pool as this instance's initial value."""
        if state.estimate is None and state.decided is None:
            state.estimate = Batch(state.instance, tuple(self._pool.values()))

    def _join_and_advance(self) -> list[Action]:
        state = self.instance(self._next_decide)
        if state.decided is not None:
            return []
        self._materialize_estimate(state)
        return self._advance_past_suspects(state, self.ctx.suspects())

    # Round advancement, JOIN broadcasting and JOIN handling are all
    # inherited from BaseConsensus; _materialize_estimate above is the
    # hook that folds this module's pool into the joined instance.

    # The base class only calls this via paths we overrode, but keep it
    # defined for completeness (ablation tests may exercise it).
    def _decision_broadcast(self, state: InstanceState, round_number: int):
        raise NotImplementedError(
            "the monolithic module announces decisions via _announce_decision"
        )

    def _on_local_propose(self, state: InstanceState) -> list[Action]:
        raise NotImplementedError(
            "the monolithic module has no ProposeRequest interface"
        )
