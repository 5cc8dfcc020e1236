"""Good-run-optimized Chandra–Toueg consensus (paper §3.2, Fig. 3).

Three optimizations over the textbook algorithm, following [25] (Urbán):

1. **No estimate phase in round 1** — the first-round coordinator
   proposes its own initial value directly, saving n-1 messages and one
   communication step per instance.
2. **Lazy rounds** — round r+1 starts only when the coordinator of
   round r is suspected (implemented in the shared base, used by both
   variants).
3. **DECISION tag** — the decision is reliably broadcast as a small tag
   naming the deciding round; receivers look the value up in that
   round's proposal. If the coordinator crashes before everyone has the
   proposal, the explicit recovery path of the base class kicks in
   ("additional communication steps may be required if the coordinator
   crashes").

In good runs an instance therefore costs: proposal to n-1 processes,
n-1 acks back, and a tag rbcast of (n-1)·⌊(n+1)/2⌋ small messages —
exactly the message pattern the paper's §5.2.1 counts for the modular
stack.
"""

from __future__ import annotations

from repro.consensus.base import BaseConsensus
from repro.consensus.instance import InstanceState
from repro.consensus.messages import DecisionTag, Proposal
from repro.stack.actions import Action, SendToAll
from repro.stack.events import RbcastRequest


class OptimizedConsensus(BaseConsensus):
    """The consensus variant used by the paper's modular stack."""

    def _on_local_propose(self, state: InstanceState) -> list[Action]:
        if state.round != 1 or state.coordinator(1) != self.ctx.pid:
            return []  # non-coordinators just wait for the proposal
        if 1 in state.proposal_sent_rounds:
            return []
        assert state.estimate is not None
        value = state.estimate
        state.ts = 1
        state.proposals[1] = value
        state.proposal_sent_rounds.add(1)
        state.acks.setdefault(1, set()).add(self.ctx.pid)
        proposal = Proposal(state.instance, 1, value)
        return [SendToAll("PROPOSAL", proposal, proposal.wire_size)]

    def _decision_broadcast(
        self, state: InstanceState, round_number: int
    ) -> RbcastRequest:
        tag = DecisionTag(state.instance, round_number)
        return RbcastRequest(tag, tag.wire_size)
