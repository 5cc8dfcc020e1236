"""Indirect consensus: ordering message *identifiers*, not payloads.

The paper's related work highlights Ekwall & Schiper's "Solving atomic
broadcast with indirect consensus" (DSN 2006, the paper's [12]) as the
technique that significantly reduced data on the wire while keeping the
modular reduction: consensus agrees on a batch of message *ids*; the
message *content* travels only once, in the diffusion step.

Per consensus this cuts the modular stack's data volume roughly in half
— from ``2(n-1)·M·l`` (diffusion + full proposal) to ``(n-1)·M·l``
(diffusion only; the proposal shrinks to ~16 bytes per id) — at the cost
of a new failure mode: a process can learn the decided *order* before it
holds the *content*. The reduction stays correct through an explicit
fetch protocol: delivery stalls at the gap, missing ids are requested
from all processes (every process keeps a bounded cache of recently
delivered payloads), and a retry timer covers races and crashes.

This module is an extension beyond the reproduced paper;
``tests/integration/test_paper_claims.py`` checks what [12]'s idea buys
inside our calibrated model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.abcast.modular import ModularAtomicBroadcast
from repro.net.message import NetMessage
from repro.net.wire import wire_payload
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
    AdeliverIndication,
    ProposeRequest,
    message_wire_size,
)
from repro.stack.module import ModuleContext
from repro.types import AppMessage, Batch, MessageId

#: Modelled bytes per message identifier on the wire.
ID_WIRE_SIZE = 16

#: Delay between retries of a content fetch.
FETCH_RETRY_DELAY = 0.2

#: How many delivered payloads each process keeps for fetch requests.
CONTENT_CACHE_SIZE = 4096


@wire_payload
@dataclass(frozen=True, slots=True)
class IdBatch:
    """A consensus value carrying message ids only.

    Duck-types the parts of :class:`~repro.types.Batch` the consensus
    machinery touches (``instance``, ``len``, ``size_bytes``), so the
    consensus module orders it without knowing payloads exist.
    """

    instance: int
    ids: tuple[MessageId, ...] = ()

    @property
    def size_bytes(self) -> int:
        # Ids are metadata; batch_wire_size adds PER_MESSAGE_OVERHEAD per
        # entry, which models the id list itself.
        return 0

    def __len__(self) -> int:
        return len(self.ids)


def decided_ids(value: Any) -> tuple[MessageId, ...]:
    """Ids of a decided value, whether indirect or a plain batch.

    Round changes can decide an empty placeholder :class:`Batch` (a
    never-proposed participant's estimate), so both shapes occur.
    """
    if isinstance(value, IdBatch):
        return value.ids
    if isinstance(value, Batch):
        return tuple(m.msg_id for m in value.messages)
    raise TypeError(f"unexpected consensus value {value!r}")


class IndirectModularAtomicBroadcast(ModularAtomicBroadcast):
    """The modular stack's abcast module, in indirect-consensus mode."""

    name = "abcast"

    def __init__(
        self,
        ctx: ModuleContext,
        guard_timeout: float = 0.5,
        max_batch: int | None = None,
    ) -> None:
        super().__init__(ctx, guard_timeout=guard_timeout, max_batch=max_batch)
        #: Recently delivered payloads, kept to answer fetch requests.
        self._content_cache: dict[MessageId, AppMessage] = {}
        self._cache_order: deque[MessageId] = deque()
        #: Ids currently being fetched (waiting for content).
        self._fetching: set[MessageId] = set()

    # -- proposing ids instead of payloads --------------------------------

    def _maybe_propose(self) -> list[Action]:
        if self._consensus_running or not self._unordered:
            return []
        self._consensus_running = True
        instance = self._next_decide
        ids = tuple(self._unordered.keys())
        if self.max_batch is not None:
            ids = ids[: self.max_batch]
        return [EmitDown(ProposeRequest(instance, IdBatch(instance, ids)))]

    # -- delivery with content fetching --------------------------------------

    def _on_decide(self, instance: int, batch: Any) -> list[Action]:
        if instance < self._next_decide:
            return []
        self._pending_decisions[instance] = batch
        return self._drain()

    def _drain(self) -> list[Action]:
        actions: list[Action] = []
        while self._next_decide in self._pending_decisions:
            value = self._pending_decisions[self._next_decide]
            missing = [
                mid
                for mid in decided_ids(value)
                if mid not in self._adelivered and mid not in self._unordered
            ]
            if missing and isinstance(value, Batch):
                # A plain batch carries its own payloads; admit them.
                for message in value.messages:
                    if message.msg_id not in self._adelivered:
                        self._unordered.setdefault(message.msg_id, message)
                        self._arrival_generation.setdefault(
                            message.msg_id, self._guard_generation
                        )
                missing = []
            if missing:
                # Total order forbids skipping: stall here and fetch.
                actions.extend(self._request_content(missing))
                break
            del self._pending_decisions[self._next_decide]
            for mid in sorted(decided_ids(value)):
                if mid in self._adelivered:
                    continue
                message = self._unordered.pop(mid)
                self._arrival_generation.pop(mid, None)
                self._adelivered.add(mid)
                self._remember_content(message)
                actions.append(EmitUp(AdeliverIndication(message)))
            self._next_decide += 1
            self._consensus_running = False
            if self._fetching:
                self._fetching.clear()
                actions.append(CancelTimer("fetch"))
        actions.extend(self._maybe_propose())
        actions.extend(self._manage_guard())
        return actions

    def _request_content(self, missing: list[MessageId]) -> list[Action]:
        new = [mid for mid in missing if mid not in self._fetching]
        self._fetching.update(missing)
        if not new:
            return []
        payload = tuple(missing)
        size = ID_WIRE_SIZE * len(missing) + 8
        actions: list[Action] = [SendToAll("FETCH", payload, size)]
        actions.append(StartTimer("fetch", FETCH_RETRY_DELAY, payload))
        return actions

    def _remember_content(self, message: AppMessage) -> None:
        if message.msg_id in self._content_cache:
            return
        self._content_cache[message.msg_id] = message
        self._cache_order.append(message.msg_id)
        while len(self._cache_order) > CONTENT_CACHE_SIZE:
            evicted = self._cache_order.popleft()
            self._content_cache.pop(evicted, None)

    # -- stimuli ---------------------------------------------------------------

    def handle_message(self, message: NetMessage) -> list[Action]:
        if message.kind == "FETCH":
            return self._on_fetch(message.src, message.payload)
        if message.kind == "CONTENT":
            return self._on_content(message.payload)
        return super().handle_message(message)

    def handle_timer(self, name: str, payload: Any) -> list[Action]:
        if name == "fetch":
            if not self._fetching:
                return []
            wanted = list(self._fetching)
            self._fetching.clear()
            return self._request_content(wanted)
        return super().handle_timer(name, payload)

    def _on_fetch(self, sender: int, wanted: tuple[MessageId, ...]) -> list[Action]:
        known = []
        for mid in wanted:
            message = self._unordered.get(mid) or self._content_cache.get(mid)
            if message is not None:
                known.append(message)
        if not known:
            return []
        size = sum(message_wire_size(m) for m in known) + 8
        return [Send(sender, "CONTENT", tuple(known), size)]

    def _on_content(self, messages: tuple[AppMessage, ...]) -> list[Action]:
        for message in messages:
            if message.msg_id in self._adelivered:
                continue
            self._unordered.setdefault(message.msg_id, message)
            self._arrival_generation.setdefault(
                message.msg_id, self._guard_generation
            )
        return self._drain()
