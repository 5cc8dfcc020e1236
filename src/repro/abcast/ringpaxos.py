"""Ring Paxos atomic broadcast (extension beyond the reproduced paper).

Marandi et al.'s Ring Paxos (DSN 2010) reaches near-wire throughput by
disseminating values along a static ring of acceptors instead of having
one coordinator push to everyone: each link carries one copy of the
value per instance regardless of n, trading latency (a lap around the
ring) for per-node cost that stays O(1). This module re-asks the paper's
modularity question against that design, decomposed into the classical
Paxos roles as three microprotocols:

* :class:`RingLearner` (top) — delivers decided batches to the
  application in instance order and tracks in-flight submissions;
* :class:`RingProposer` (middle) — diffuses client submissions into the
  shared pool and proposes batches, one consensus instance at a time;
* :class:`RingAcceptor` (bottom) — the consensus core. Round 1 is the
  ring: the coordinator hands a :class:`RingToken` to its successor and
  the token circulates, accumulating votes. The node at which the token
  has majority votes *decides on the spot*, and the decision then rides
  the very same token for the rest of the lap (decisions piggybacked on
  ring traffic — no separate decision broadcast in good runs).

Safety rides on the Chandra–Toueg machinery of
:class:`~repro.consensus.base.BaseConsensus`: voting on the token is
exactly adopting the round-1 proposal (value ``v``, timestamp 1), and a
node votes only while still in round 1, so a ring decision implies a
majority locked ``(v, 1)`` — any later round's coordinator reads a
majority of estimates, intersects the voters, and re-proposes ``v``.
Suspicions fall back to the inherited rounds ≥ 2 (estimate/propose/ack,
direct sends), which is also how a crashed ring coordinator is replaced.

Ring repair: every node forwards to its nearest *non-suspected*
successor, re-routing in-flight tokens when the failure detector
suspects the node it last forwarded to, so the ring reconfigures around
a dead acceptor. A slow guard timer re-forwards stalled tokens (lost to
drops or healing partitions), and decided acceptors answer stale ring
traffic with the decision value directly, so a node the ring skipped —
e.g. while wrongly suspected — can always pull the outcome.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.base import BaseConsensus
from repro.consensus.instance import InstanceState, coordinator_of_round
from repro.consensus.messages import CONTROL_OVERHEAD, DecisionValue
from repro.net.message import NetMessage
from repro.net.wire import wire_payload
from repro.stack.actions import (
    Action,
    EmitDown,
    EmitUp,
    Send,
    SendToAll,
    StartTimer,
)
from repro.stack.events import (
    AbcastRequest,
    AdeliverIndication,
    DecideIndication,
    Event,
    ProposeRequest,
    batch_wire_size,
    message_wire_size,
)
from repro.stack.module import Microprotocol, ModuleContext
from repro.types import AppMessage, Batch, DeliveryLedger, MessageId, frozen_record

#: Modelled bytes per process id carried in a ring token's vote/learned sets.
PER_VOTE_OVERHEAD = 4

#: Period of the acceptor's token guard (re-forwards stalled laps).
RING_GUARD_INTERVAL = 0.25

#: How many decided successors a laggard reply may bundle beyond the
#: asked instance (turns the post-recovery catch-up crawl into a few
#: round trips instead of one per instance).
HELP_SPAN = 32

#: Per call, how many gap instances a freshly decided acceptor scans for
#: missed decisions (bounds the work of one stimulus).
GAP_SCAN_LIMIT = 256


@wire_payload
@frozen_record
class RingToken:
    """The lap-carrier of one ring consensus instance.

    ``votes`` are the processes that adopted the round-1 value; the
    token is decided as soon as ``len(votes)`` reaches a majority.
    ``learned`` are the processes that have observed that decision. A
    ``value`` of ``None`` is a tag-only token, sent when the successor
    already voted and therefore holds the proposal locally.
    """

    instance: int
    value: Batch | None
    votes: tuple[int, ...]
    learned: tuple[int, ...]

    @property
    def wire_size(self) -> int:
        payload = 0 if self.value is None else batch_wire_size(self.value)
        ids = PER_VOTE_OVERHEAD * (len(self.votes) + len(self.learned))
        return payload + CONTROL_OVERHEAD + ids


class RingAcceptor(BaseConsensus):
    """Consensus with ring dissemination in round 1 (the acceptor role)."""

    name = "ringacceptor"

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        #: Last (votes, learned) forwarded or held per undecided
        #: instance, for duplicate suppression and for re-routing on
        #: suspicion/guard.
        self._forwarded: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
        #: Successor each undecided instance's token was last sent to, or
        #: this process itself while the ring has no room for the token.
        self._forward_dst: dict[int, int] = {}
        #: Cached value last forwarded (re-sent by repair).
        self._forward_value: dict[int, Batch] = {}
        self._guard_armed = False
        #: Contiguous decided prefix: every instance below is decided.
        self._floor = 0
        self._max_decided = -1

    # -- ring membership ----------------------------------------------------

    def _ring_members(self) -> frozenset[int]:
        """Reachable ring: everyone this process does not suspect."""
        suspects = self.ctx.suspects()
        return frozenset(
            p for p in range(self.ctx.n) if p == self.ctx.pid or p not in suspects
        )

    def _successor(self, members: frozenset[int]) -> int | None:
        """Nearest non-suspected successor in pid order (the static ring
        skips suspects — this is the repair-on-crash rule)."""
        for offset in range(1, self.ctx.n):
            candidate = (self.ctx.pid + offset) % self.ctx.n
            if candidate in members:
                return candidate
        return None

    # -- round 1: the ring pass --------------------------------------------

    def _on_local_propose(self, state: InstanceState) -> list[Action]:
        if state.round != 1 or coordinator_of_round(1, self.ctx.n) != self.ctx.pid:
            return []  # non-coordinators hold their estimate and wait
        if 1 in state.proposal_sent_rounds:
            return []
        assert state.estimate is not None
        value = state.estimate
        state.ts = 1
        state.proposals[1] = value
        state.proposal_sent_rounds.add(1)
        return self._circulate(
            state, value, frozenset({self.ctx.pid}), frozenset()
        )

    def handle_message(self, message: NetMessage) -> list[Action]:
        if message.kind == "RING":
            return self._on_ring_token(message.src, message.payload)
        return super().handle_message(message)

    def _on_ring_token(self, sender: int, token: RingToken) -> list[Action]:
        state = self.instance(token.instance)
        if state.decided is not None:
            # Stale or duplicate lap traffic: answer with the decision
            # directly (this is how a node the ring skipped pulls the
            # outcome once its own guard re-forwards).
            return self._help_decided(sender, state)
        value = token.value
        if value is None:
            value = state.proposals.get(1)
            if value is None:
                # A tag-only token without the locally adopted proposal:
                # the sender over-trusted our vote. Drop; rounds recover.
                return []
        votes = set(token.votes)
        learned = set(token.learned)
        if state.round == 1:
            # Voting = adopting the round-1 proposal, exactly like an ack
            # in the base machinery: lock (value, ts=1). A node PAST
            # round 1 must not vote — that guard is what lets the CT
            # majority-intersection argument absorb ring decisions.
            state.estimate = value
            state.ts = 1
            state.proposals.setdefault(1, value)
            votes.add(self.ctx.pid)
        actions: list[Action] = []
        if len(votes) >= self.ctx.majority:
            learned.add(self.ctx.pid)
            actions.extend(self._decide(state, value))
        actions.extend(
            self._circulate(state, value, frozenset(votes), frozenset(learned))
        )
        return actions

    def _circulate(
        self,
        state: InstanceState,
        value: Batch,
        votes: frozenset[int],
        learned: frozenset[int],
        resend: bool = False,
    ) -> list[Action]:
        """Forward the token to the ring successor if it still carries news
        (or, with *resend*, whether or not the successor saw it before)."""
        members = self._ring_members()
        if learned >= members:
            return []  # the decision has completed its lap
        k = state.instance
        undecided = state.decided is None
        if undecided and not resend:
            previous = self._forwarded.get(k)
            if (
                previous is not None
                and votes <= previous[0]
                and learned <= previous[1]
            ):
                return []  # duplicate: nothing the successor has not seen
        successor = self._successor(members)
        if len(votes) < self.ctx.majority and votes >= members:
            # Every reachable acceptor voted and it is still short of a
            # majority: the ring cannot decide now. Hold the token; the
            # next suspicion change or guard tick re-sends it, and the
            # rounds machinery takes over if a suspect really crashed.
            successor = None
        if undecided:
            self._forwarded[k] = (votes, learned)
            self._forward_dst[k] = self.ctx.pid if successor is None else successor
            self._forward_value[k] = value
        if successor is None:
            return self._arm_guard() if undecided else []
        token = RingToken(
            instance=k,
            value=None if successor in votes else value,
            votes=tuple(sorted(votes)),
            learned=tuple(sorted(learned)),
        )
        actions: list[Action] = [Send(successor, "RING", token, token.wire_size)]
        actions.extend(self._arm_guard())
        return actions

    # -- repair: re-route around suspects, re-forward stalled laps ----------

    def handle_suspicion(self, suspects: frozenset[int]) -> list[Action]:
        actions = self._repair(suspects)
        actions.extend(super().handle_suspicion(suspects))
        return actions

    def _repair(self, suspects: frozenset[int]) -> list[Action]:
        """Re-send in-flight tokens whose last hop is now suspected, and
        held tokens, for which a lifted suspicion may have made room."""
        actions: list[Action] = []
        for k, dst in list(self._forward_dst.items()):
            if dst == self.ctx.pid or dst in suspects:
                actions.extend(self._re_forward(k))
        return actions

    def _re_forward(self, k: int) -> list[Action]:
        record = self._forwarded.get(k)
        value = self._forward_value.get(k)
        if record is None or value is None:
            return []
        state = self.instance(k)
        if state.decided is not None:
            return []
        votes, learned = record
        return self._circulate(state, value, votes, learned, resend=True)

    def handle_timer(self, name: str, payload: Any) -> list[Action]:
        if name == "ring-guard":
            return self._on_guard()
        return super().handle_timer(name, payload)

    def _arm_guard(self) -> list[Action]:
        if self._guard_armed:
            return []
        self._guard_armed = True
        return [StartTimer("ring-guard", RING_GUARD_INTERVAL)]

    def _on_guard(self) -> list[Action]:
        self._guard_armed = False
        actions: list[Action] = []
        for k in sorted(self._forward_dst):
            actions.extend(self._re_forward(k))
        if self._forward_dst:
            actions.extend(self._arm_guard())
        return actions

    # -- decisions ---------------------------------------------------------

    def _decide(self, state: InstanceState, value: Batch) -> list[Action]:
        already = state.decided is not None
        if not already:
            # Round 1 gathers its majority as votes on the token, never as
            # acks, so once decided this process's ring proposal waits for
            # nothing — close it, or the coordinator's instances never retire.
            state.proposal_sent_rounds.discard(1)
        actions = super()._decide(state, value)
        if already:
            return actions
        k = state.instance
        self._forwarded.pop(k, None)
        self._forward_dst.pop(k, None)
        self._forward_value.pop(k, None)
        if k > self._max_decided:
            self._max_decided = k
        actions.extend(self._recover_gaps())
        return actions

    def _recover_gaps(self) -> list[Action]:
        """Request decisions for instances the ring passed us by.

        Proposers only start instance k+1 after observing k decided
        somewhere, so a gap below the local maximum means the decision
        exists — pull it rather than stalling the learner forever.
        """
        while self.decided_value(self._floor) is not None:
            self._floor += 1
        actions: list[Action] = []
        scanned = 0
        k = self._floor
        while k < self._max_decided and scanned < GAP_SCAN_LIMIT:
            state = self.instance(k)
            if state.decided is None and state.awaiting_recovery_round is None:
                state.awaiting_recovery_round = 1
                actions.extend(self._request_recovery(state))
            k += 1
            scanned += 1
        return actions

    def _announce_decision(self, state: InstanceState, round_number: int) -> list[Action]:
        # Rounds >= 2 fallback: there is no reliable broadcast module in
        # this stack (good runs disseminate on the ring), so a round
        # coordinator sends the full decision value directly. Safe even
        # if it crashes mid-send: survivors advance rounds and, by the
        # majority-locking argument, re-decide the same value.
        value = state.proposals[round_number]
        response = DecisionValue(state.instance, value)
        actions: list[Action] = [
            SendToAll("RECOVER_RESP", response, response.wire_size)
        ]
        actions.extend(self._decide(state, value))
        return actions

    def _help_decided(self, sender: int, state: InstanceState) -> list[Action]:
        """Bundle decided successors with the asked instance, shrinking a
        recovering node's catch-up from one round trip per instance to
        one per :data:`HELP_SPAN`."""
        actions = super()._help_decided(sender, state)
        k = state.instance + 1
        for _ in range(HELP_SPAN):
            decided = self.decided_value(k)
            if decided is None:
                break
            response = DecisionValue(k, decided)
            actions.append(
                Send(sender, "RECOVER_RESP", response, response.wire_size)
            )
            k += 1
        return actions

    # -- crash recovery -----------------------------------------------------

    def resume_at(self, next_instance: int, delivered: set[MessageId]) -> None:
        """Rejoin at the WAL frontier: never chase pre-crash instances."""
        self._floor = next_instance
        self._max_decided = max(self._max_decided, next_instance - 1)


class RingProposer(Microprotocol):
    """Pool and propose (the proposer role).

    Client submissions are diffused to every peer proposer, so each
    process holds the full unordered pool and any round coordinator has
    every message available as its estimate — the same reduction the
    modular stack uses. One consensus instance runs at a time; a guard
    timer re-diffuses messages that linger (a sender may crash after
    reaching only some peers) and re-proposes.
    """

    name = "ringproposer"

    def __init__(
        self,
        ctx: ModuleContext,
        guard_timeout: float = 0.5,
        max_batch: int | None = None,
    ) -> None:
        super().__init__(ctx)
        self.guard_timeout = guard_timeout
        self.max_batch = max_batch
        self._pool: dict[MessageId, AppMessage] = {}
        self._arrival_generation: dict[MessageId, int] = {}
        self._generation = 0
        self._next_instance = 0
        self._running = False
        self._guard_armed = False

    def handle_event(self, event: Event) -> list[Action]:
        if isinstance(event, AbcastRequest):
            return self._on_abcast(event.message)
        if isinstance(event, DecideIndication):
            return self._on_decide(event.instance, event.value)
        return super().handle_event(event)

    def handle_message(self, message: NetMessage) -> list[Action]:
        if message.kind == "DIFFUSE":
            return self._on_diffuse(message.payload)
        return super().handle_message(message)

    def _on_abcast(self, message: AppMessage) -> list[Action]:
        self._pool[message.msg_id] = message
        self._arrival_generation[message.msg_id] = self._generation
        actions: list[Action] = [
            SendToAll("DIFFUSE", message, message_wire_size(message))
        ]
        actions.extend(self._maybe_propose())
        actions.extend(self._manage_guard())
        return actions

    def _on_diffuse(self, message: AppMessage) -> list[Action]:
        if message.msg_id not in self._pool:
            self._pool[message.msg_id] = message
            self._arrival_generation[message.msg_id] = self._generation
        actions = self._maybe_propose()
        actions.extend(self._manage_guard())
        return actions

    def _on_decide(self, instance: int, batch: Batch) -> list[Action]:
        for message in batch.messages:
            self._pool.pop(message.msg_id, None)
            self._arrival_generation.pop(message.msg_id, None)
        actions: list[Action] = [EmitUp(DecideIndication(instance, batch))]
        if instance >= self._next_instance:
            self._next_instance = instance + 1
            self._running = False
            actions.extend(self._maybe_propose())
        actions.extend(self._manage_guard())
        return actions

    def _maybe_propose(self) -> list[Action]:
        if self._running or not self._pool:
            return []
        self._running = True
        messages = tuple(self._pool.values())
        if self.max_batch is not None:
            messages = messages[: self.max_batch]
        batch = Batch(self._next_instance, messages)
        return [EmitDown(ProposeRequest(self._next_instance, batch))]

    # -- §3.3-style correctness guard ---------------------------------------

    def handle_timer(self, name: str, payload: Any) -> list[Action]:
        if name == "guard":
            return self._on_guard()
        return super().handle_timer(name, payload)

    def _manage_guard(self) -> list[Action]:
        if self._pool and not self._guard_armed:
            self._guard_armed = True
            return [StartTimer("guard", self.guard_timeout)]
        return []

    def _on_guard(self) -> list[Action]:
        self._guard_armed = False
        actions: list[Action] = []
        stale = [
            message
            for message in self._pool.values()
            if self._arrival_generation[message.msg_id] < self._generation
        ]
        for message in stale:
            actions.append(
                SendToAll("DIFFUSE", message, message_wire_size(message))
            )
        self._generation += 1
        actions.extend(self._maybe_propose())
        actions.extend(self._manage_guard())
        return actions

    # -- crash recovery -----------------------------------------------------

    def resume_at(self, next_instance: int, delivered: set[MessageId]) -> None:
        """Rejoin proposing at the group's frontier, not at instance 0."""
        self._next_instance = max(self._next_instance, next_instance)


class RingLearner(Microprotocol):
    """In-order delivery of decided batches (the learner role)."""

    name = "ringlearner"

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        self._next_deliver = 0
        self._pending: dict[int, Batch] = {}
        self._adelivered = DeliveryLedger()
        self._in_flight: set[MessageId] = set()

    @property
    def next_instance(self) -> int:
        """Next undelivered consensus instance (progress probe)."""
        return self._next_deliver

    @property
    def unordered_count(self) -> int:
        """Own submissions not yet delivered (live backpressure probe)."""
        return len(self._in_flight)

    def handle_event(self, event: Event) -> list[Action]:
        if isinstance(event, AbcastRequest):
            self._in_flight.add(event.message.msg_id)
            return [EmitDown(event)]
        if isinstance(event, DecideIndication):
            return self._on_decide(event.instance, event.value)
        return super().handle_event(event)

    def _on_decide(self, instance: int, batch: Batch) -> list[Action]:
        if instance < self._next_deliver or instance in self._pending:
            return []  # duplicate (catch-up traffic re-decides old instances)
        self._pending[instance] = batch
        actions: list[Action] = []
        while self._next_deliver in self._pending:
            decided = self._pending.pop(self._next_deliver)
            for message in decided.in_delivery_order():
                if not self._adelivered.add(message.msg_id):
                    continue
                self._in_flight.discard(message.msg_id)
                actions.append(EmitUp(AdeliverIndication(message)))
            self._next_deliver += 1
        return actions

    # -- crash recovery -----------------------------------------------------

    def resume_at(self, next_instance: int, delivered: set[MessageId]) -> None:
        """Fast-forward past the WAL-recovered prefix."""
        self._next_deliver = max(self._next_deliver, next_instance)
        self._adelivered.update(delivered)
        self._pending = {
            k: batch for k, batch in self._pending.items() if k >= self._next_deliver
        }


def ring_stack(
    ctx: ModuleContext,
    *,
    guard_timeout: float = 0.5,
    max_batch: int | None = None,
) -> list[Microprotocol]:
    """The Ring Paxos stack, top to bottom: learner, proposer, acceptor."""
    return [
        RingLearner(ctx),
        RingProposer(ctx, guard_timeout=guard_timeout, max_batch=max_batch),
        RingAcceptor(ctx),
    ]
