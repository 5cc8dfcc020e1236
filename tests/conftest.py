"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools

import pytest

from repro.config import RunConfig, StackConfig, StackKind, WorkloadConfig
from repro.net.message import NetMessage
from repro.stack.actions import Action, EmitDown, EmitUp, Send, SendToAll
from repro.stack.events import Event
from repro.stack.module import Microprotocol, ModuleContext
from repro.types import AppMessage, Batch, MessageId

_uid = itertools.count()


def make_ctx(pid: int = 0, n: int = 3, suspects: set[int] | None = None) -> ModuleContext:
    """A ModuleContext with a mutable suspect set (mutate via .add/.discard)."""
    suspect_set = suspects if suspects is not None else set()
    return ModuleContext(pid=pid, n=n, suspects=lambda: frozenset(suspect_set))


def app_message(sender: int = 0, seq: int | None = None, size: int = 100) -> AppMessage:
    """A fresh application message with a unique sequence number."""
    if seq is None:
        seq = next(_uid)
    return AppMessage(msg_id=MessageId(sender, seq), size=size, abcast_time=0.0)


def batch(instance: int, *messages: AppMessage) -> Batch:
    """A Batch literal."""
    return Batch(instance, tuple(messages))


def net_message(
    kind: str,
    src: int,
    dst: int,
    payload: object = None,
    *,
    module: str = "test",
    payload_size: int = 10,
) -> NetMessage:
    """A NetMessage literal for driving handle_message directly."""
    return NetMessage(
        kind=kind,
        module=module,
        src=src,
        dst=dst,
        payload=payload,
        payload_size=payload_size,
        header_size=0,
    )


class Probe(Event):
    """A typed event used to ping modules up/down a test stack."""

    __slots__ = ("tag",)

    def __init__(self, tag: str) -> None:
        self.tag = tag


class Recorder(Microprotocol):
    """A scriptable module that records stimuli and replays actions.

    Every handler logs its stimulus and returns (then clears)
    ``next_actions``, so a test scripts one step ahead of each stimulus.
    """

    name = "recorder"

    def __init__(self, ctx: ModuleContext, name: str | None = None) -> None:
        super().__init__(ctx)
        if name:
            self.name = name
        self.log: list[tuple] = []
        self.next_actions: list[Action] = []

    def _pop_actions(self) -> list[Action]:
        actions, self.next_actions = self.next_actions, []
        return actions

    def handle_event(self, event):
        self.log.append(("event", event))
        return self._pop_actions()

    def handle_message(self, message):
        self.log.append(("message", message.kind, message.src))
        return self._pop_actions()

    def handle_timer(self, name, payload):
        self.log.append(("timer", name, payload))
        return self._pop_actions()

    def handle_suspicion(self, suspects):
        self.log.append(("suspicion", suspects))
        return self._pop_actions()


class FakeTransport:
    """Stands in for the live TCP transport: captures sends."""

    def __init__(self) -> None:
        self.sent: list[NetMessage] = []

    def send(self, message: NetMessage) -> None:
        self.sent.append(message)


def sends(actions: list[Action]) -> list[Send]:
    """All Send actions (SendToAll not expanded)."""
    return [a for a in actions if isinstance(a, Send)]


def sends_to_all(actions: list[Action]) -> list[SendToAll]:
    """All SendToAll actions."""
    return [a for a in actions if isinstance(a, SendToAll)]


def emitted_up(actions: list[Action], event_type: type | None = None) -> list:
    """Events emitted up, optionally filtered by type."""
    events = [a.event for a in actions if isinstance(a, EmitUp)]
    if event_type is not None:
        events = [e for e in events if isinstance(e, event_type)]
    return events


def emitted_down(actions: list[Action], event_type: type | None = None) -> list:
    """Events emitted down, optionally filtered by type."""
    events = [a.event for a in actions if isinstance(a, EmitDown)]
    if event_type is not None:
        events = [e for e in events if isinstance(e, event_type)]
    return events


@pytest.fixture
def quick_config() -> RunConfig:
    """A small, fast end-to-end run configuration (modular stack)."""
    return RunConfig(
        n=3,
        stack=StackConfig(kind=StackKind.MODULAR),
        workload=WorkloadConfig(offered_load=300.0, message_size=512),
        duration=0.5,
        warmup=0.2,
    )


@pytest.fixture
def quick_mono_config(quick_config: RunConfig) -> RunConfig:
    """The monolithic twin of ``quick_config``."""
    return quick_config.with_changes(stack=StackConfig(kind=StackKind.MONOLITHIC))
