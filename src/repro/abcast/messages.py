"""Wire payloads specific to the monolithic stack (paper §4, Fig. 6).

The monolithic module merges atomic broadcast, consensus and reliable
broadcast, which lets it combine logically distinct messages into single
transmissions:

* :class:`CombinedProposal` — "proposal k + decision k-1" (§4.1),
* :class:`AckWithDiffusion` — "ack + diffusion" (§4.2),
* :class:`Forward` — abcast messages sent straight to the coordinator
  when no consensus is in flight to piggyback on,
* :class:`RbDecision` — the relay-emulated decision broadcast used only
  when the §4.3 optimization is ablated away.

:class:`~repro.consensus.messages.JoinRound` used to live here but is
now part of the shared consensus machinery (every variant broadcasts it
on a round change); it is re-exported for compatibility.
"""

from __future__ import annotations


from repro.consensus.messages import Ack, DecisionTag, JoinRound, Proposal
from repro.net.wire import wire_payload
from repro.stack.events import message_wire_size
from repro.types import AppMessage, frozen_record

__all__ = [
    "Ack",
    "AckWithDiffusion",
    "CombinedProposal",
    "DecisionTag",
    "Forward",
    "JoinRound",
    "Proposal",
    "RbDecision",
]


@wire_payload
@frozen_record
class CombinedProposal:
    """§4.1: the round-1 proposal of instance k, optionally carrying the
    decision of instance k-1 as a piggybacked tag."""

    proposal: Proposal
    decided: DecisionTag | None = None

    @property
    def wire_size(self) -> int:
        size = self.proposal.wire_size
        if self.decided is not None:
            size += 16  # the piggybacked (instance, round) tag
        return size


@wire_payload
@frozen_record
class AckWithDiffusion:
    """§4.2: an ack carrying the sender's pending abcast messages."""

    ack: Ack
    messages: tuple[AppMessage, ...] = ()

    @property
    def wire_size(self) -> int:
        return self.ack.wire_size + sum(message_wire_size(m) for m in self.messages)


@wire_payload
@frozen_record
class Forward:
    """Pending abcast messages sent to the coordinator outside any ack
    (used when the group is idle, so there is no ack to ride)."""

    messages: tuple[AppMessage, ...]

    @property
    def wire_size(self) -> int:
        return 8 + sum(message_wire_size(m) for m in self.messages)


@wire_payload
@frozen_record
class RbDecision:
    """Decision tag wrapped for the relay-emulated reliable broadcast
    (ablation of §4.3 only)."""

    tag: DecisionTag
    origin: int

    @property
    def wire_size(self) -> int:
        return self.tag.wire_size + 8
