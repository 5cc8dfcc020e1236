"""Synchronous test harness for protocol state machines.

Because every protocol module is a pure ``handle(event) -> [actions]``
state machine, tests can drive whole groups of them without the
simulation kernel: the :class:`ModulePump` keeps an in-memory message
queue, routes module actions, and lets tests control delivery order,
drop messages, crash processes and script suspicions — which is exactly
what the consensus/abcast property tests need to explore adversarial
schedules cheaply.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.abcast.monolithic import MonolithicAtomicBroadcast
from repro.abcast.ringpaxos import RingAcceptor
from repro.consensus.base import BaseConsensus
from repro.consensus.chandra_toueg import TextbookConsensus
from repro.consensus.instance import InstanceState
from repro.consensus.optimized import OptimizedConsensus
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
from repro.stack.events import Event, RbcastRequest, RdeliverIndication
from repro.stack.module import Microprotocol, ModuleContext


@dataclass
class PendingMessage:
    """A message queued in the pump, not yet delivered."""

    message: NetMessage
    seq: int = field(default=0)


class ModulePump:
    """Drives one module per process, synchronously.

    Args:
        module_factory: Called with each process's :class:`ModuleContext`
            to build its module.
        n: Group size.
        bridge_rbcast: If True, ``EmitDown(RbcastRequest)`` from a module
            is emulated as a perfect reliable broadcast: the payload is
            rdelivered synchronously at the emitter and enqueued as a
            pump-internal delivery for everyone else. Used to test the
            consensus module in isolation from the real rbcast module.
    """

    def __init__(
        self,
        module_factory: Callable[[ModuleContext], Microprotocol],
        n: int,
        *,
        bridge_rbcast: bool = False,
    ) -> None:
        self.n = n
        self.bridge_rbcast = bridge_rbcast
        self.suspect_sets: list[set[int]] = [set() for __ in range(n)]
        self.modules: list[Microprotocol] = []
        self.queue: deque[PendingMessage] = deque()
        #: Events each module emitted up (e.g. DecideIndication).
        self.up_events: list[list[Event]] = [[] for __ in range(n)]
        #: Events each module emitted down (when not bridged).
        self.down_events: list[list[Event]] = [[] for __ in range(n)]
        #: Live timers: (pid, timer name) -> payload.
        self.timers: dict[tuple[int, str], Any] = {}
        self.crashed: set[int] = set()
        self._seq = 0
        for pid in range(n):
            ctx = ModuleContext(
                pid=pid,
                n=n,
                suspects=lambda p=pid: frozenset(self.suspect_sets[p]),
            )
            self.modules.append(module_factory(ctx))
        for pid, module in enumerate(self.modules):
            self._execute(pid, module.on_start())

    # -- driving ---------------------------------------------------------

    def inject(self, pid: int, event: Event) -> None:
        """Deliver an application/upper-layer event to one module."""
        if pid in self.crashed:
            return
        self._execute(pid, self.modules[pid].handle_event(event))

    def crash(self, pid: int) -> None:
        """Crash a process: it stops handling anything from now on."""
        self.crashed.add(pid)

    def suspect(self, observer: int, suspected: int) -> None:
        """Make *observer*'s FD suspect *suspected*."""
        self.suspect_sets[observer].add(suspected)
        self._notify_suspicion(observer)

    def unsuspect(self, observer: int, suspected: int) -> None:
        """Clear a suspicion at *observer*."""
        self.suspect_sets[observer].discard(suspected)
        self._notify_suspicion(observer)

    def suspect_everywhere(self, suspected: int) -> None:
        """Every live process suspects *suspected*."""
        for observer in range(self.n):
            if observer not in self.crashed and observer != suspected:
                self.suspect(observer, suspected)

    def fire_timer(self, pid: int, name: str) -> None:
        """Fire a live timer on a module."""
        payload = self.timers.pop((pid, name))
        if pid in self.crashed:
            return
        self._execute(pid, self.modules[pid].handle_timer(name, payload))

    def deliver_next(self, index: int = 0) -> NetMessage | None:
        """Deliver the index-th queued message (default: FIFO head).

        Messages already in the queue arrive even if their sender has
        crashed since (they were on the wire). Messages to crashed
        destinations are silently discarded.
        """
        if not self.queue:
            return None
        pending = self.queue[index]
        del self.queue[index]
        message = pending.message
        if message.dst in self.crashed:
            return message
        if message.kind == "__RB_BRIDGE__":
            # Emulated reliable broadcast: arrives as an rdeliver event.
            self._execute(
                message.dst, self.modules[message.dst].handle_event(message.payload)
            )
        else:
            self._execute(
                message.dst, self.modules[message.dst].handle_message(message)
            )
        return message

    def drop_next(self, index: int = 0) -> NetMessage:
        """Drop one queued message (models sender crash mid-broadcast)."""
        pending = self.queue[index]
        del self.queue[index]
        return pending.message

    def run(
        self,
        *,
        max_steps: int = 100_000,
        pick: Callable[[int], int] | None = None,
    ) -> int:
        """Deliver queued messages until the queue drains.

        Args:
            max_steps: Safety bound on deliveries.
            pick: Optional chooser of the next message index (e.g. a
                ``random.Random(...).randrange`` for shuffled schedules).

        Returns:
            The number of messages delivered.
        """
        steps = 0
        while self.queue:
            if steps >= max_steps:
                raise AssertionError(f"pump did not quiesce in {max_steps} steps")
            index = pick(len(self.queue)) if pick is not None else 0
            self.deliver_next(index)
            steps += 1
        return steps

    # -- internals ----------------------------------------------------------

    def _notify_suspicion(self, observer: int) -> None:
        if observer in self.crashed:
            return
        module = self.modules[observer]
        self._execute(
            observer,
            module.handle_suspicion(frozenset(self.suspect_sets[observer])),
        )

    def _execute(self, pid: int, actions: list[Action]) -> None:
        for action in actions:
            if pid in self.crashed:
                return
            if isinstance(action, Send):
                self._enqueue(pid, action.dst, action.kind, action.payload, action.payload_size)
            elif isinstance(action, SendToAll):
                for dst in range(self.n):
                    if dst != pid:
                        self._enqueue(pid, dst, action.kind, action.payload, action.payload_size)
            elif isinstance(action, EmitUp):
                self.up_events[pid].append(action.event)
            elif isinstance(action, EmitDown):
                if self.bridge_rbcast and isinstance(action.event, RbcastRequest):
                    self._bridge_rbcast(pid, action.event)
                else:
                    self.down_events[pid].append(action.event)
            elif isinstance(action, StartTimer):
                self.timers[(pid, action.name)] = action.payload
            elif isinstance(action, CancelTimer):
                self.timers.pop((pid, action.name), None)
            else:  # pragma: no cover - new action types must be handled
                raise AssertionError(f"unknown action {action!r}")

    def _bridge_rbcast(self, origin: int, request: RbcastRequest) -> None:
        indication = RdeliverIndication(request.payload, request.payload_size, origin)
        # Local self-delivery is synchronous, as in the real module.
        self._execute(origin, self.modules[origin].handle_event(indication))
        for dst in range(self.n):
            if dst != origin:
                self._enqueue(origin, dst, "__RB_BRIDGE__", indication, request.payload_size)

    def _enqueue(self, src: int, dst: int, kind: str, payload: Any, size: int) -> None:
        if kind == "__RB_BRIDGE__":
            message = NetMessage(
                kind=kind, module="__bridge__", src=src, dst=dst,
                payload=payload, payload_size=size, header_size=0,
            )
        else:
            message = NetMessage(
                kind=kind,
                module=getattr(self.modules[src], "name", "test"),
                src=src,
                dst=dst,
                payload=payload,
                payload_size=size,
                header_size=0,
            )
        self._seq += 1
        self.queue.append(PendingMessage(message, self._seq))

    def deliverable(self) -> list[NetMessage]:
        """Snapshot of the queued messages (for assertions)."""
        return [p.message for p in self.queue]


#: The four modules that run the shared consensus machinery — and so
#: retire their instances — with whether a pump has to emulate the
#: rbcast module below them. The monolithic one is driven by abcasts,
#: the others by one propose per instance.
RETIRING_MODULES: dict[str, tuple[type[BaseConsensus], bool]] = {
    "optimized": (OptimizedConsensus, True),
    "textbook": (TextbookConsensus, True),
    "monolithic": (MonolithicAtomicBroadcast, False),
    "ringacceptor": (RingAcceptor, False),
}


class RoundStateKept(InstanceState):
    """Reference instance: the retirement step does nothing, so a decided
    instance keeps its proposals, acks and estimates for good — the
    representation every handler was written against."""

    def retire(self) -> None:
        pass


def never_retiring(module_class: type[BaseConsensus]) -> type[BaseConsensus]:
    """*module_class* over :class:`RoundStateKept` instances.

    Retirement must be unobservable: whatever schedule drives a module
    and this reference of it, both return the same actions.
    """

    class Reference(module_class):
        def instance(self, k: int) -> InstanceState:
            state = self._instances.get(k)
            if state is None:
                state = self._instances[k] = RoundStateKept(instance=k, n=self.ctx.n)
            return state

    Reference.__name__ = f"NeverRetiring{module_class.__name__}"
    return Reference


def crash_after_sends(sim: Any, pid: int, count: int) -> None:
    """Crash process *pid* of a :class:`~repro.experiments.runner.Simulation`
    right after its next *count* protocol sends — halfway through a
    broadcast, the scenario behind the paper's §3.3 guard timer.

    A spy on ``sim.network.transmit`` counts *pid*'s sends; failure
    detector traffic (``module == "fd"``) is not counted.
    """
    transmit = sim.network.transmit
    remaining = count

    def spy(message: NetMessage, depart_time: float) -> None:
        nonlocal remaining
        transmit(message, depart_time)
        if message.src == pid and message.module != "fd":
            remaining -= 1
            if remaining == 0:
                sim.runtimes[pid].crash()

    sim.network.transmit = spy


#: A wire frame's envelope fields in frame order (PROTOCOLS.md, "Wire
#: format"), written out here so the tests pin the layout.
ENVELOPE = (
    "v", "kind", "module", "src", "dst", "payload", "payload_size", "header_size", "uid",
)


def envelope(frame: bytes) -> dict[str, Any]:
    """The fields of one encoded message, by name."""
    document = json.loads(frame)
    assert isinstance(document, list) and len(document) == len(ENVELOPE), document
    return dict(zip(ENVELOPE, document))


def frame_of(fields: dict[str, Any]) -> bytes:
    """The frame of *fields* in envelope order; a missing field is left
    out, so the frame is one shorter (the inverse of :func:`envelope`)."""
    return json.dumps([fields[name] for name in ENVELOPE if name in fields]).encode()


def payload_span(frame: bytes) -> slice:
    """Where the payload's JSON text lies in an encoded message: between
    the compact text of the fields before it and of those after it."""
    fields = envelope(frame)
    compact = {"separators": (",", ":")}
    head = json.dumps([fields[name] for name in ENVELOPE[:5]], **compact)[:-1] + ","
    tail = "," + json.dumps([fields[name] for name in ENVELOPE[6:]], **compact)[1:]
    assert frame.startswith(head.encode()) and frame.endswith(tail.encode()), frame
    return slice(len(head), len(frame) - len(tail))
