"""Per-instance state of the rotating-coordinator consensus algorithm.

An instance has a life cycle: it is born at the first local propose or
remote message, collects round state (proposals, acks, estimates) while
undecided, and is *retired* at its decision — :meth:`InstanceState.retire`
drops the round state, and what remains (``decided``, ``decision_sent``,
``instance``) is exactly what answers to late traffic need. Once the
instances below it are decided too, the module drops the state itself
and keeps the decision alone, in its decided-prefix log
(:class:`~repro.consensus.base.BaseConsensus`). The atomic broadcast
reduction runs about a thousand instances a second per process, so
what a decided instance keeps is what a run keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.types import Batch


def coordinator_of_round(round_number: int, n: int) -> int:
    """Rotating coordinator: round r is coordinated by ``(r-1) mod n``.

    Round 1 of *every* instance is coordinated by process 0 — the fact
    the monolithic stack's §4.1 optimization exploits (the decider of
    instance k is the first-round coordinator of instance k+1).
    """
    if round_number < 1:
        raise ValueError(f"rounds are 1-based, got {round_number}")
    return (round_number - 1) % n


@dataclass(slots=True)
class InstanceState:
    """Mutable state of one consensus instance at one process.

    The four round-state containers are ``None`` once the instance is
    retired (see :meth:`retire`). Protocol code never tests them for
    that: every handler tests ``decided`` before it reads one, and the
    writers that run before that test — a late proposal, a late ack —
    go through :meth:`record_proposal` and :meth:`record_ack`, which do
    nothing on a retired instance.
    """

    instance: int
    n: int
    #: Current round at this process (1-based, advances on suspicion or
    #: on receiving a proposal from a later round).
    round: int = 1
    #: Current estimate (None until this process proposes or adopts one).
    estimate: Batch | None = None
    #: Round in which the estimate was last adopted from a proposal.
    ts: int = 0
    #: Proposals received (or sent, at coordinators), by round.
    proposals: dict[int, Batch] | None = field(default_factory=dict)
    #: Rounds for which this process (as coordinator) sent a proposal.
    proposal_sent_rounds: set[int] | None = field(default_factory=set)
    #: Ack senders per round (coordinator bookkeeping; includes self).
    acks: dict[int, set[int]] | None = field(default_factory=dict)
    #: Estimates received per round: round -> sender -> (ts, value).
    estimates: dict[int, dict[int, tuple[int, Batch]]] | None = field(
        default_factory=dict
    )
    #: The decided value, once known.
    decided: Batch | None = None
    #: Whether this process (as coordinator) already broadcast a decision.
    decision_sent: bool = False
    #: Whether a recovery request is outstanding for a decision tag.
    awaiting_recovery_round: int | None = None

    def coordinator(self, round_number: int | None = None) -> int:
        """Coordinator of *round_number* (default: the current round)."""
        return coordinator_of_round(
            self.round if round_number is None else round_number, self.n
        )

    # -- end of life ---------------------------------------------------------

    @property
    def retired(self) -> bool:
        """Whether the round state has been dropped."""
        return self.proposals is None

    def retire(self) -> None:
        """Drop the round state if nothing can read it again.

        That is so once the instance is decided and no proposal of this
        process still waits for its majority: at once for a process
        that never proposed, and for a coordinator as soon as it has
        announced the decision. The one state that stays whole is a
        coordinator that learnt the decision through someone else's
        round while its own proposal is still collecting acks — a late
        majority must find that proposal and re-announce it.

        Called where either half of the condition can become true
        (``decided`` set, ``decision_sent`` set); a no-op anywhere else,
        and on an instance already retired.
        """
        if self.decided is not None and (
            self.decision_sent or not self.proposal_sent_rounds
        ):
            self.proposals = None
            self.proposal_sent_rounds = None
            self.acks = None
            self.estimates = None

    def record_proposal(self, round_number: int, value: Batch) -> None:
        """Store the proposal received for *round_number*.

        For the handlers that store before they test ``decided`` (the
        proposal may complete a tag recovery); a retired instance has
        its decision and keeps nothing.
        """
        if self.proposals is not None:
            self.proposals[round_number] = value

    def record_ack(self, round_number: int, sender: int) -> bool:
        """Count *sender*'s ack of this process's own *round_number*
        proposal; ``False`` if there is nothing to count it towards.

        An ack answers a proposal, so one for a round this process never
        proposed in is stray (misrouted or hostile) and one that arrives
        after the decision was announced is late; neither is stored, on
        a retired instance or before.
        """
        if (
            self.decision_sent
            or not self.proposal_sent_rounds
            or round_number not in self.proposal_sent_rounds
        ):
            return False
        self.acks.setdefault(round_number, set()).add(sender)
        return True

    # -- estimates -------------------------------------------------------------

    def record_estimate(self, round_number: int, sender: int, ts: int, value: Batch) -> None:
        """Store an estimate received for *round_number*."""
        self.estimates.setdefault(round_number, {})[sender] = (ts, value)

    def best_estimate(self, round_number: int) -> Batch:
        """The estimate with the largest timestamp for *round_number*.

        For timestamps ≥ 1 all tied estimates carry the same value (at
        most one proposal exists per round), so tie-breaks cannot affect
        the decided value. Timestamp-0 ties are genuine initial values
        and are broken in favour of larger batches (so pending messages
        win over empty estimates — a liveness concern after the initial
        coordinator crashes), then by sender id for determinism.
        """
        received = self.estimates.get(round_number, {})
        if not received:
            raise ValueError(f"no estimates recorded for round {round_number}")
        __, __, best_sender = max(
            (ts_value[0], len(ts_value[1]), sender)
            for sender, ts_value in received.items()
        )
        return received[best_sender][1]
