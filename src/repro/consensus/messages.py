"""Wire payloads of the consensus protocol (§3.2).

Every payload carries the instance number ``k`` (the reduction runs a
sequence of consensus instances) and, where relevant, the round ``r``.
Decisions travel through the reliable broadcast module below consensus:
as a small :class:`DecisionTag` in the optimized variant (the paper's
"tag DECISION" optimization) or as the full :class:`DecisionValue` in
the textbook variant.
"""

from __future__ import annotations


from repro.net.wire import wire_payload
from repro.stack.events import batch_wire_size
from repro.types import Batch, frozen_record

#: Modelled bytes of consensus control information (instance, round, type).
CONTROL_OVERHEAD = 24


@wire_payload
@frozen_record
class JoinRound:
    """Bad-run hint, broadcast when a process advances its round: a
    round change is underway, so every correct process must catch up and
    contribute an estimate to the new coordinator — even processes that
    do not themselves suspect anyone. Without it, a single wrong
    suspicion can strand the group across two rounds with a majority in
    neither (the suspecter waits for estimates that never come while
    everyone else waits for a round the suspecter already left)."""

    instance: int
    round: int

    @property
    def wire_size(self) -> int:
        return 16


@wire_payload
@frozen_record
class Estimate:
    """Phase-1 message: a process's current estimate, sent to the round
    coordinator (only in rounds ≥ 2 for the optimized variant)."""

    instance: int
    round: int
    value: Batch
    ts: int

    @property
    def wire_size(self) -> int:
        return batch_wire_size(self.value) + CONTROL_OVERHEAD


@wire_payload
@frozen_record
class Proposal:
    """Phase-2 message: the coordinator's proposed value for a round."""

    instance: int
    round: int
    value: Batch

    @property
    def wire_size(self) -> int:
        return batch_wire_size(self.value) + CONTROL_OVERHEAD


@wire_payload
@frozen_record
class Ack:
    """Phase-3 message: acknowledgment of a round's proposal."""

    instance: int
    round: int

    @property
    def wire_size(self) -> int:
        return CONTROL_OVERHEAD


@wire_payload
@frozen_record
class DecisionTag:
    """Optimized decision: names the deciding round instead of carrying
    the value (receivers look the value up in the round's proposal)."""

    instance: int
    round: int

    @property
    def wire_size(self) -> int:
        return CONTROL_OVERHEAD


@wire_payload
@frozen_record
class DecisionValue:
    """Full decision value; used by the textbook variant and by the
    recovery path of the tag optimization."""

    instance: int
    value: Batch

    @property
    def wire_size(self) -> int:
        return batch_wire_size(self.value) + CONTROL_OVERHEAD


@wire_payload
@frozen_record
class RecoveryRequest:
    """Sent by a process that rdelivered a :class:`DecisionTag` without
    holding the corresponding round's proposal (possible only if the
    coordinator crashed; see §3.2 — "additional communication steps may
    be required if the coordinator crashes")."""

    instance: int
    round: int

    @property
    def wire_size(self) -> int:
        return CONTROL_OVERHEAD
