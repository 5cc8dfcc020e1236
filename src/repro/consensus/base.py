"""Shared machinery of the rotating-coordinator consensus module.

Both variants (textbook and good-run-optimized Chandra–Toueg) share:

* instance multiplexing — one module runs the whole sequence of
  instances the atomic broadcast reduction needs, creating per-instance
  state lazily when the first local propose or remote message arrives
  and retiring it at the decision (a decided instance keeps its decision
  and nothing else, see :meth:`~repro.consensus.instance.InstanceState.retire`);
  retired instances ``0..k-1`` leave their state behind altogether and
  live on as one slot each of a decided-prefix log;
* rounds ≥ 2 — estimate gathering, max-timestamp selection, proposal,
  acks (these only run after a suspicion, so they are identical in both
  variants);
* suspicion-driven round advancement (lazy rounds, §3.2);
* decision dissemination through the reliable broadcast module below,
  plus the recovery path for tag-only decisions.

The variants differ only in how round 1 starts (with or without an
estimate phase) and in what a decision broadcast carries (tag vs. full
value); subclasses provide those two hooks.

Safety sketch (standard CT argument): at most one proposal exists per
round; a decision in round r implies a majority acked r, and every
acker adopted (value v, ts = r). Any later round's coordinator picks the
max-ts estimate out of a majority, which intersects the ack majority, so
by induction every proposal after round r carries v.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.instance import InstanceState, coordinator_of_round
from repro.consensus.messages import (
    Ack,
    DecisionTag,
    DecisionValue,
    Estimate,
    JoinRound,
    Proposal,
    RecoveryRequest,
)
from repro.net.message import NetMessage
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
    DecideIndication,
    Event,
    ProposeRequest,
    RbcastRequest,
    RdeliverIndication,
)
from repro.stack.module import Microprotocol, ModuleContext
from repro.types import Batch

#: Delay between retries of a decision-recovery request.
RECOVERY_RETRY_DELAY = 0.2


class BaseConsensus(Microprotocol):
    """Common consensus behaviour; see variant subclasses."""

    name = "consensus"

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        #: Every instance with local state that is not in the decided
        #: prefix below: open, decided out of order, or kept whole
        #: (see :meth:`InstanceState.retire`).
        self._instances: dict[int, InstanceState] = {}
        #: The decided prefix: slot k holds the decision of instance k,
        #: which is retired and owns no InstanceState — or ``None`` while
        #: instance k is decided but kept whole in ``_instances``.
        self._decided: list[Batch | None] = []

    # -- hooks implemented by variants ---------------------------------

    def _on_local_propose(self, state: InstanceState) -> list[Action]:
        """Start the instance after a local ``propose`` (round-1 logic)."""
        raise NotImplementedError

    def _decision_broadcast(self, state: InstanceState, round_number: int) -> RbcastRequest:
        """Build the rbcast request announcing the decision."""
        raise NotImplementedError

    # -- instance bookkeeping -------------------------------------------

    def instance(self, k: int) -> InstanceState:
        """State of instance *k*, created lazily.

        An instance of the decided prefix answers with a fresh retired
        state that carries its decision: no handler reads anything else
        of a decided instance, nor writes to a retired one.
        """
        state = self._instances.get(k)
        if state is None:
            if 0 <= k < len(self._decided):
                return InstanceState(
                    instance=k,
                    n=self.ctx.n,
                    proposals=None,
                    proposal_sent_rounds=None,
                    acks=None,
                    estimates=None,
                    decided=self._decided[k],
                )
            state = InstanceState(instance=k, n=self.ctx.n)
            self._instances[k] = state
        return state

    def has_instance(self, k: int) -> bool:
        """Whether instance *k* has any local state yet."""
        return k in self._instances or 0 <= k < len(self._decided)

    def decided_value(self, k: int) -> Batch | None:
        """The decision of instance *k*, or ``None`` if this process
        has not learnt one."""
        state = self._instances.get(k)
        if state is not None:
            return state.decided
        if 0 <= k < len(self._decided):
            return self._decided[k]
        return None

    def _retire(self, state: InstanceState) -> None:
        """Retire *state* if nothing can read its round state again, and
        move what the decided prefix now covers out of ``_instances``.

        The prefix grows over every decided instance at its head; one
        that is kept whole gets a ``None`` slot and stays in
        ``_instances`` until its own late majority retires it.
        """
        state.retire()
        log, instances = self._decided, self._instances
        k, filed = state.instance, len(log)
        if k != filed:
            # Above the head nothing moves; below it, a kept-whole
            # instance may have retired at last.
            if 0 <= k < filed and state.retired and instances.pop(k, None) is not None:
                log[k] = state.decided
            return
        while state is not None and state.decided is not None:
            if state.retired:
                log.append(state.decided)
                del instances[k]
            else:
                log.append(None)
            k += 1
            state = instances.get(k)

    # -- stimuli ----------------------------------------------------------

    def handle_event(self, event: Event) -> list[Action]:
        if isinstance(event, ProposeRequest):
            return self._local_propose(event.instance, event.value)
        if isinstance(event, RdeliverIndication):
            return self._on_rdeliver(event.payload)
        return super().handle_event(event)

    def handle_message(self, message: NetMessage) -> list[Action]:
        payload = message.payload
        if message.kind == "ESTIMATE":
            return self._on_estimate(message.src, payload)
        if message.kind == "PROPOSAL":
            return self._on_proposal(message.src, payload)
        if message.kind == "ACK":
            return self._on_ack(message.src, payload)
        if message.kind == "JOIN":
            return self._on_join(message.src, payload)
        if message.kind == "RECOVER_REQ":
            return self._on_recovery_request(message.src, payload)
        if message.kind == "RECOVER_RESP":
            return self._on_recovery_response(payload)
        return super().handle_message(message)

    def handle_suspicion(self, suspects: frozenset[int]) -> list[Action]:
        actions: list[Action] = []
        for state in list(self._instances.values()):
            if state.decided is None and state.estimate is not None:
                actions.extend(self._advance_past_suspects(state, suspects))
        return actions

    def handle_timer(self, name: str, payload: Any) -> list[Action]:
        if name.startswith("recover-"):
            return self._retry_recovery(payload)
        return super().handle_timer(name, payload)

    # -- local propose ----------------------------------------------------

    def _local_propose(self, k: int, value: Batch) -> list[Action]:
        state = self.instance(k)
        if state.decided is not None:
            # The decision raced ahead of the local propose; the abcast
            # module already received (or buffered) the DecideIndication.
            return []
        if state.estimate is None:
            state.estimate = value
        actions = self._on_local_propose(state)
        actions.extend(self._advance_past_suspects(state, self.ctx.suspects()))
        return actions

    # -- rounds ≥ 2: estimates, proposals, acks ---------------------------

    def _on_estimate(self, sender: int, estimate: Estimate) -> list[Action]:
        state = self.instance(estimate.instance)
        if state.decided is not None:
            return self._help_decided(sender, state)
        state.record_estimate(estimate.round, sender, estimate.ts, estimate.value)
        return self._maybe_propose_round(state, estimate.round)

    def _maybe_propose_round(self, state: InstanceState, round_number: int) -> list[Action]:
        """As coordinator of *round_number*, propose once a majority of
        estimates is in (used by rounds ≥ 2 in both variants, and by
        round 1 of the textbook variant)."""
        if coordinator_of_round(round_number, self.ctx.n) != self.ctx.pid:
            return []
        if state.decided is not None or round_number in state.proposal_sent_rounds:
            return []
        if round_number < state.round:
            return []
        received = state.estimates.get(round_number, {})
        if self.ctx.pid not in received and state.estimate is not None:
            state.record_estimate(
                round_number, self.ctx.pid, state.ts, state.estimate
            )
            received = state.estimates[round_number]
        if len(received) < self.ctx.majority:
            return []
        value = state.best_estimate(round_number)
        state.round = round_number
        state.estimate = value
        state.ts = round_number
        state.proposals[round_number] = value
        state.proposal_sent_rounds.add(round_number)
        state.acks.setdefault(round_number, set()).add(self.ctx.pid)
        proposal = Proposal(state.instance, round_number, value)
        actions: list[Action] = [
            SendToAll("PROPOSAL", proposal, proposal.wire_size)
        ]
        actions.extend(self._maybe_decide(state, round_number))
        return actions

    def _on_proposal(self, sender: int, proposal: Proposal) -> list[Action]:
        state = self.instance(proposal.instance)
        state.record_proposal(proposal.round, proposal.value)
        if state.decided is not None:
            return self._maybe_complete_recovery(state)
        if proposal.round < state.round:
            return []  # stale round; we already moved on
        state.round = proposal.round
        state.estimate = proposal.value
        state.ts = proposal.round
        ack = Ack(proposal.instance, proposal.round)
        actions: list[Action] = [Send(sender, "ACK", ack, ack.wire_size)]
        actions.extend(self._maybe_complete_recovery(state))
        actions.extend(self._advance_past_suspects(state, self.ctx.suspects()))
        return actions

    def _on_ack(self, sender: int, ack: Ack) -> list[Action]:
        # An instance without state had no proposal of ours, and one in
        # the decided prefix has none open: nothing to count either for.
        state = self._instances.get(ack.instance)
        if state is None or not state.record_ack(ack.round, sender):
            return []  # stray or late: no open proposal of ours to count it for
        return self._maybe_decide(state, ack.round)

    def _maybe_decide(self, state: InstanceState, round_number: int) -> list[Action]:
        """As coordinator, broadcast the decision on a majority of acks."""
        if state.decision_sent or round_number not in state.proposal_sent_rounds:
            return []
        if len(state.acks.get(round_number, ())) < self.ctx.majority:
            return []
        state.decision_sent = True
        actions = self._announce_decision(state, round_number)
        # The announcement was the last reader of this round's proposal
        # (an instance it decided on the spot has retired in _decide).
        if not state.retired:
            self._retire(state)
        return actions

    def _announce_decision(self, state: InstanceState, round_number: int) -> list[Action]:
        """Disseminate the decision of *round_number*.

        Default: through the reliable broadcast module below. Its local
        self-delivery loops back as an RdeliverIndication, which is where
        this coordinator itself decides (single decide path). The
        monolithic stack overrides this with the §4.1/§4.3 fast paths.
        """
        return [EmitDown(self._decision_broadcast(state, round_number))]

    # -- suspicion-driven round changes ------------------------------------

    def _advance_past_suspects(
        self, state: InstanceState, suspects: frozenset[int]
    ) -> list[Action]:
        """Advance rounds while the current coordinator is suspected and
        this round's proposal has not been received (lazy rounds, §3.2).

        Bounded by n advances per stimulus so a pathological detector
        that suspects everyone cannot loop forever.
        """
        actions: list[Action] = []
        advances = 0
        while (
            state.decided is None
            and state.estimate is not None
            and state.coordinator() in suspects
            and advances < self.ctx.n
        ):
            advances += 1
            actions.extend(self._advance_round(state))
        return actions

    def _advance_round(self, state: InstanceState) -> list[Action]:
        state.round += 1
        new_coordinator = state.coordinator()
        estimate = Estimate(
            state.instance,
            state.round,
            state.estimate if state.estimate is not None else Batch(state.instance),
            state.ts,
        )
        if new_coordinator == self.ctx.pid:
            state.record_estimate(
                state.round, self.ctx.pid, estimate.ts, estimate.value
            )
            actions = self._maybe_propose_round(state, state.round)
        else:
            actions = [Send(new_coordinator, "ESTIMATE", estimate, estimate.wire_size)]
        # Announce the round change so every correct process catches up
        # and contributes an estimate — even processes that do not
        # themselves suspect anyone (see JoinRound).
        join = JoinRound(state.instance, state.round)
        actions.append(SendToAll("JOIN", join, join.wire_size))
        return actions

    def _on_join(self, sender: int, join: JoinRound) -> list[Action]:
        """Catch up to a round another process already advanced to.

        Joining a higher round unconditionally is safe (safety rests on
        majority locking, not on who advances when) and is what makes
        the lazy-rounds optimization live: the round's coordinator needs
        a majority of estimates, and only the processes that suspected
        would otherwise supply them. Decided instances answer with the
        decision instead, as for any laggard traffic.
        """
        state = self.instance(join.instance)
        if state.decided is not None:
            return self._help_decided(sender, state)
        self._materialize_estimate(state)
        actions: list[Action] = []
        while state.decided is None and state.round < join.round:
            actions.extend(self._advance_round(state))
        actions.extend(self._advance_past_suspects(state, self.ctx.suspects()))
        return actions

    def _materialize_estimate(self, state: InstanceState) -> None:
        """Hook: adopt pending local input as the instance's estimate
        before joining a round (the monolithic module overrides this to
        fold its message pool in; the modular variants keep estimates
        purely propose-driven)."""

    # -- decisions and recovery ---------------------------------------------

    def _on_rdeliver(self, payload: Any) -> list[Action]:
        if isinstance(payload, DecisionValue):
            return self._decide(self.instance(payload.instance), payload.value)
        if isinstance(payload, DecisionTag):
            state = self.instance(payload.instance)
            if state.decided is not None:
                return []
            value = state.proposals.get(payload.round)
            if value is not None:
                return self._decide(state, value)
            # Tag without the proposal: only possible when the deciding
            # coordinator crashed; fall back to explicit recovery (§3.2).
            state.awaiting_recovery_round = payload.round
            return self._request_recovery(state)
        raise TypeError(f"unexpected rdelivered payload {payload!r}")

    def _decide(self, state: InstanceState, value: Batch) -> list[Action]:
        if state.decided is not None:
            return []
        state.decided = value
        actions: list[Action] = []
        if state.awaiting_recovery_round is not None:
            state.awaiting_recovery_round = None
            actions.append(CancelTimer(f"recover-{state.instance}"))
        self._retire(state)
        actions.extend(self._emit_decision(state, value))
        return actions

    def _emit_decision(self, state: InstanceState, value: Batch) -> list[Action]:
        """Hand the decision to the layer above.

        Default: a DecideIndication to the atomic broadcast module above.
        The monolithic stack overrides this to consume the decision
        in-module (there is no module above it except the application).
        """
        return [EmitUp(DecideIndication(state.instance, value))]

    def _request_recovery(self, state: InstanceState) -> list[Action]:
        request = RecoveryRequest(state.instance, state.awaiting_recovery_round or 0)
        actions: list[Action] = [
            SendToAll("RECOVER_REQ", request, request.wire_size)
        ]
        actions.append(
            StartTimer(
                f"recover-{state.instance}", RECOVERY_RETRY_DELAY, state.instance
            )
        )
        return actions

    def _retry_recovery(self, k: int) -> list[Action]:
        state = self.instance(k)
        if state.decided is not None or state.awaiting_recovery_round is None:
            return []
        return self._request_recovery(state)

    def _on_recovery_request(self, sender: int, request: RecoveryRequest) -> list[Action]:
        state = self.instance(request.instance)
        value = state.decided
        if value is None:
            # A decision tag exists, so the tagged round's proposal *is*
            # the decided value; reply if we hold it.
            value = state.proposals.get(request.round)
        if value is None:
            return []
        response = DecisionValue(request.instance, value)
        return [Send(sender, "RECOVER_RESP", response, response.wire_size)]

    def _on_recovery_response(self, response: DecisionValue) -> list[Action]:
        return self._decide(self.instance(response.instance), response.value)

    def _maybe_complete_recovery(self, state: InstanceState) -> list[Action]:
        """A late proposal can satisfy an outstanding tag recovery."""
        if state.awaiting_recovery_round is None or state.decided is not None:
            return []
        value = state.proposals.get(state.awaiting_recovery_round)
        if value is None:
            return []
        return self._decide(state, value)

    def _help_decided(self, sender: int, state: InstanceState) -> list[Action]:
        """Answer instance traffic from laggards with the full decision."""
        assert state.decided is not None
        response = DecisionValue(state.instance, state.decided)
        return [Send(sender, "RECOVER_RESP", response, response.wire_size)]
