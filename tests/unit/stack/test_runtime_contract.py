"""One contract, two backends: what every stack runtime must do.

`ProcessRuntime` (simulated) and `LiveRuntime` (wall clock) are backends
of one interpreter, `StackRuntime`. Every test here runs against both
through a small harness that hides only the substrate: how sends are
observed, how time advances, how a crash is provoked mid-broadcast.
Backend-specific behaviour (modelled cost and attribution, epochs,
`on_crash`) is tested in `test_runtime.py` / `test_live_runtime.py`.
"""

import asyncio

import pytest

from repro.abcast.factory import build_process
from repro.config import CpuCosts, NetworkConfig, stack_from_label
from repro.errors import NetworkError, ProtocolError
from repro.fd.base import FailureDetector
from repro.live.runtime import LiveRuntime
from repro.net.network import Network
from repro.sim.kernel import Kernel
from repro.sim.tracing import TraceRecorder
from repro.stack.actions import (
    CancelTimer,
    EmitDown,
    EmitUp,
    Send,
    SendToAll,
    StartTimer,
)
from repro.stack.events import AdeliverIndication
from repro.stack.runtime import ProcessRuntime, StackRuntime

from tests.conftest import (
    FakeTransport,
    Probe,
    Recorder,
    app_message,
    make_ctx,
    net_message,
)

NET = NetworkConfig(bandwidth=1e12, propagation=1e-6)
COSTS = CpuCosts()


class SimHarness:
    """Process 0 of an n-process group on one Kernel + Network."""

    #: Modelled time: span times and durations repeat to the bit.
    timed = True

    def __init__(self):
        self.kernel = Kernel()
        self.sent = []
        self.network = None
        self.trace = None

    def host(self, pid, n, modules):
        if self.network is None:
            self.network = Network(self.kernel, n, NET)
            transmit = self.network.transmit

            def spy(message, depart):
                self.sent.append(message)
                transmit(message, depart)

            self.network.transmit = spy
        return ProcessRuntime(
            pid, modules, kernel=self.kernel, network=self.network,
            costs=COSTS, net_config=NET, trace=self.trace,
        )

    def build(self, n=3, depth=1):
        runtimes = [
            self.host(
                pid, n,
                [Recorder(make_ctx(pid, n), name=f"m{d}") for d in range(depth)],
            )
            for pid in range(n)
        ]
        return runtimes[0]

    def crash_after_sends(self, runtime, count):
        transmit = self.network.transmit

        def crashing_transmit(message, depart):
            transmit(message, depart)
            if len(self.sent) == count:
                runtime.crash()

        self.network.transmit = crashing_transmit

    def run(self):
        self.kernel.run()

    def close(self):
        pass


class LiveHarness:
    """Process 0 on a private event loop, sending into a FakeTransport."""

    #: Host clock: span times and durations differ from run to run.
    timed = False

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.transport = FakeTransport()
        self.sent = self.transport.sent
        self.trace = None

    def host(self, pid, n, modules):
        return LiveRuntime(
            pid, n, modules, self.transport, net_config=NET, loop=self.loop,
            on_crash=lambda: None, trace=self.trace,
        )

    def build(self, n=3, depth=1):
        return self.host(
            0, n, [Recorder(make_ctx(0, n), name=f"m{d}") for d in range(depth)]
        )

    def crash_after_sends(self, runtime, count):
        send = self.transport.send

        def crashing_send(message):
            send(message)
            if len(self.sent) == count:
                runtime.crash()

        self.transport.send = crashing_send

    def run(self):
        # Longer than every timer delay the tests arm (<= 20 ms).
        self.loop.run_until_complete(asyncio.sleep(0.08))

    def close(self):
        self.loop.close()


@pytest.fixture(params=[SimHarness, LiveHarness], ids=["sim", "live"])
def backend(request):
    harness = request.param()
    yield harness
    harness.close()


def arrival(module="m0", kind="ping"):
    return net_message(kind, 1, 0, module=module)


def timers_fired(module):
    return [entry for entry in module.log if entry[0] == "timer"]


# -- one interpreter ---------------------------------------------------------


def test_both_backends_are_the_one_interpreter(backend):
    runtime = backend.build()
    assert isinstance(runtime, StackRuntime)
    assert type(runtime)._execute_actions is StackRuntime._execute_actions
    assert runtime.n == 3 and runtime.pid == 0 and runtime.alive
    assert runtime.now >= 0.0
    assert runtime.module("m0") is runtime.modules[0]


def test_empty_and_duplicate_stacks_are_rejected(backend):
    with pytest.raises(ProtocolError):
        backend.host(0, 2, [])
    ctx = make_ctx(0, 2)
    with pytest.raises(ProtocolError):
        backend.host(0, 2, [Recorder(ctx, name="dup"), Recorder(ctx, name="dup")])


# -- action execution --------------------------------------------------------


def test_actions_run_in_order_and_depth_first(backend):
    runtime = backend.build(depth=2)
    top, bottom = runtime.modules
    probe = Probe("down")
    top.next_actions = [Send(1, "A", None, 0), EmitDown(probe), Send(2, "B", None, 0)]
    bottom.next_actions = [Send(1, "C", None, 0)]
    runtime.inject(Probe("go"))
    # The neighbour's actions complete before the emitter's next action.
    assert [(m.kind, m.module) for m in backend.sent] == [
        ("A", "m0"), ("C", "m1"), ("B", "m0"),
    ]
    assert ("event", probe) in bottom.log
    assert runtime.boundary_crossings >= 1


def test_send_to_all_addresses_every_other_process(backend):
    runtime = backend.build(n=4)
    runtime.modules[0].next_actions = [SendToAll("PING", "x", 8)]
    runtime.inject(Probe("go"))
    assert [(m.src, m.dst) for m in backend.sent] == [(0, 1), (0, 2), (0, 3)]
    assert all(m.payload == "x" and m.payload_size == 8 for m in backend.sent)


def test_crash_mid_broadcast_stops_the_remaining_sends(backend):
    runtime = backend.build(n=4)
    backend.crash_after_sends(runtime, 2)
    runtime.modules[0].next_actions = [
        SendToAll("PING", None, 1), Send(1, "AFTER", None, 1),
    ]
    runtime.inject(Probe("go"))
    assert [m.dst for m in backend.sent] == [1, 2]  # third send never happened
    assert not runtime.alive


# -- fan-out: a SendToAll is its n-1 Sends, to the last bit -------------------

PAYLOAD = ("shared", "payload")


def broadcasts(others, spell):
    """Three broadcasts — a shared payload, None (never a repeat copy),
    the shared payload again — each spelled by *spell*."""
    return [
        action
        for kind, payload, size in (("A", PAYLOAD, 100), ("B", None, 7), ("C", PAYLOAD, 100))
        for action in spell(others, kind, payload, size)
    ]


def one_send_to_all(others, kind, payload, size):
    return [SendToAll(kind, payload, size)]


def one_send_each(others, kind, payload, size):
    return [Send(dst, kind, payload, size) for dst in others]


def observe_fan_out(harness_cls, spell, crash_after=None):
    """Everything a script of broadcasts from the top of a two-module
    stack (height 1, so sends cross a boundary) leaves behind."""
    harness = harness_cls()
    harness.trace = TraceRecorder()
    try:
        runtime = harness.build(n=4, depth=2)
        if crash_after is not None:
            harness.crash_after_sends(runtime, crash_after)
        top = runtime.modules[0]
        top.next_actions = broadcasts(top.ctx.others, spell)
        runtime.inject(Probe("go"))
        uids = [m.uid for m in harness.sent]
        spans = [
            (r.time, r.process, r.detail) if harness.timed
            else (r.process, r.detail[0], r.detail[2:])
            for r in harness.trace.select("span.send")
        ]
        return {
            "messages": [
                (m.kind, m.module, m.src, m.dst, m.payload, m.payload_size,
                 m.header_size, m.wire_size)
                for m in harness.sent
            ],
            "uids_consecutive": uids == list(range(uids[0], uids[0] + len(uids))),
            "spans": spans,
            "layer_busy": getattr(runtime, "layer_busy", None),
            "boundary_busy": getattr(runtime, "boundary_busy", None),
            "boundary_crossings": runtime.boundary_crossings,
            "alive": runtime.alive,
        }
    finally:
        harness.close()


def test_send_to_all_is_its_sends_in_messages_spans_and_attribution(backend):
    fanned = observe_fan_out(type(backend), one_send_to_all)
    looped = observe_fan_out(type(backend), one_send_each)
    assert fanned == looped  # floats included: bit-equal, not approximately
    assert [m[3] for m in fanned["messages"]] == [1, 2, 3] * 3
    assert fanned["uids_consecutive"] and len(fanned["spans"]) == 9
    if backend.timed:
        # Serialization is paid by the first copy of a payload object
        # and by every copy of None, on either spelling.
        costs = [detail[1] for __, __, detail in fanned["spans"]]
        assert costs[0] > costs[1] == costs[2]
        assert costs[3] == costs[4] == costs[5]
        assert fanned["boundary_crossings"] == 9  # one per copy at height 1


def test_crash_after_two_copies_stops_either_spelling_alike(backend):
    fanned = observe_fan_out(type(backend), one_send_to_all, crash_after=2)
    looped = observe_fan_out(type(backend), one_send_each, crash_after=2)
    assert fanned == looped
    assert [m[3] for m in fanned["messages"]] == [1, 2] and not fanned["alive"]


@pytest.mark.parametrize(
    "hostile",
    [SendToAll("K", None, -1), Send(1, "K", None, -1), Send(0, "K", None, 1)],
    ids=["fan-out-negative-size", "send-negative-size", "send-to-self"],
)
def test_hostile_message_still_raises_from_the_send_hook(backend, hostile):
    runtime = backend.build(n=4)
    runtime.modules[0].next_actions = [hostile]
    with pytest.raises(NetworkError):
        runtime.inject(Probe("go"))
    assert backend.sent == []


def headers_by_module(harness):
    runtime = harness.build(depth=3)
    top, middle, bottom = runtime.modules
    top.next_actions = [Send(1, "HI", None, 0), EmitDown(Probe("a"))]
    middle.next_actions = [Send(1, "MID", None, 0), EmitDown(Probe("b"))]
    bottom.next_actions = [Send(1, "LO", None, 0)]
    runtime.inject(Probe("go"))
    return {m.module: m.header_size for m in harness.sent}


def test_headers_grow_with_module_height_equally_on_both_backends():
    sim, live = SimHarness(), LiveHarness()
    try:
        sim_headers, live_headers = headers_by_module(sim), headers_by_module(live)
    finally:
        live.close()
    base, per_module = NET.base_header, NET.per_module_header
    assert sim_headers == live_headers == {
        "m0": base + 3 * per_module,
        "m1": base + 2 * per_module,
        "m2": base + per_module,
    }


def test_emit_up_from_the_top_reaches_the_application(backend):
    runtime = backend.build()
    received = []
    runtime.set_adeliver_listener(lambda pid, m, t: received.append((pid, m, t)))
    message = app_message()
    runtime.modules[0].next_actions = [EmitUp(AdeliverIndication(message))]
    runtime.inject(Probe("go"))
    [(pid, delivered, when)] = received
    assert pid == 0 and delivered is message and when >= 0.0


def test_non_adeliver_event_to_the_application_is_a_protocol_error(backend):
    runtime = backend.build()
    runtime.modules[0].next_actions = [EmitUp(Probe("bad"))]
    with pytest.raises(ProtocolError, match="to the application"):
        runtime.inject(Probe("go"))


def test_emit_below_the_bottom_is_a_protocol_error(backend):
    runtime = backend.build()
    runtime.modules[0].next_actions = [EmitDown(Probe("oops"))]
    with pytest.raises(ProtocolError, match="below the bottom"):
        runtime.inject(Probe("go"))


def test_unknown_action_is_a_protocol_error(backend):
    runtime = backend.build()
    runtime.modules[0].next_actions = ["not an action"]
    with pytest.raises(ProtocolError, match="unknown action"):
        runtime.inject(Probe("go"))


# -- arrival routing ---------------------------------------------------------


def test_network_message_reaches_the_named_module(backend):
    runtime = backend.build(depth=2)
    runtime.on_network_message(arrival(module="m1"))
    backend.run()
    assert runtime.modules[1].log == [("message", "ping", 1)]
    assert runtime.modules[0].log == []


def test_message_for_an_unknown_module_is_a_protocol_error(backend):
    runtime = backend.build()
    with pytest.raises(ProtocolError, match="no module 'nonexistent'"):
        runtime.on_network_message(arrival(module="nonexistent"))


def test_fd_message_without_an_fd_is_a_protocol_error(backend):
    runtime = backend.build()
    with pytest.raises(ProtocolError, match="without an FD"):
        runtime.on_network_message(arrival(module="fd", kind="HEARTBEAT"))


# -- timers ------------------------------------------------------------------


def test_timer_fires_with_its_payload_and_runs_the_returned_actions(backend):
    runtime = backend.build()
    top = runtime.modules[0]
    top.next_actions = [StartTimer("tick", 0.01, payload="data")]
    runtime.inject(Probe("go"))
    top.next_actions = [Send(1, "FROM_TIMER", None, 0)]
    backend.run()
    assert timers_fired(top) == [("timer", "tick", "data")]
    assert [m.kind for m in backend.sent] == ["FROM_TIMER"]


def test_timer_rearm_supersedes_the_earlier_timer(backend):
    runtime = backend.build()
    top = runtime.modules[0]
    top.next_actions = [StartTimer("tick", 0.01, payload="old")]
    runtime.inject(Probe("go"))
    top.next_actions = [StartTimer("tick", 0.02, payload="new")]
    runtime.inject(Probe("again"))
    backend.run()
    assert timers_fired(top) == [("timer", "tick", "new")]


def test_cancelled_timer_never_fires_and_unknown_cancel_is_a_noop(backend):
    runtime = backend.build()
    top = runtime.modules[0]
    top.next_actions = [StartTimer("tick", 0.01)]
    runtime.inject(Probe("go"))
    top.next_actions = [CancelTimer("tick"), CancelTimer("ghost")]
    runtime.inject(Probe("again"))
    backend.run()
    assert timers_fired(top) == []


def test_timers_of_two_modules_with_one_name_are_independent(backend):
    runtime = backend.build(depth=2)
    top, bottom = runtime.modules
    top.next_actions = [StartTimer("tick", 0.01, payload="top"), EmitDown(Probe("d"))]
    bottom.next_actions = [StartTimer("tick", 0.01, payload="bottom")]
    runtime.inject(Probe("go"))
    backend.run()
    assert timers_fired(top) == [("timer", "tick", "top")]
    assert timers_fired(bottom) == [("timer", "tick", "bottom")]


# -- crash -------------------------------------------------------------------


def test_no_timer_fires_after_a_crash(backend):
    runtime = backend.build()
    top = runtime.modules[0]
    top.next_actions = [StartTimer("tick", 0.01)]
    runtime.inject(Probe("go"))
    runtime.crash()
    backend.run()
    assert timers_fired(top) == []


def test_crashed_process_ignores_every_stimulus(backend):
    runtime = backend.build()
    runtime.crash()
    runtime.crash()  # idempotent
    assert not runtime.alive
    runtime.inject(Probe("go"))
    runtime.on_network_message(arrival())
    runtime.on_suspicion_change(frozenset({1}))
    backend.run()
    assert runtime.modules[0].log == []


# -- failure detector plumbing -----------------------------------------------


class StubDetector(FailureDetector):
    def __init__(self):
        super().__init__()
        self.heard = []

    def handle_message(self, message):
        self.heard.append((message.kind, message.src))


def test_suspects_is_empty_without_an_fd(backend):
    assert backend.build().suspects() == frozenset()


def test_fd_traffic_is_routed_to_the_attached_detector(backend):
    runtime = backend.build()
    detector = StubDetector()
    runtime.attach_failure_detector(detector)
    assert detector.runtime is runtime
    runtime.on_network_message(arrival(module="fd", kind="HEARTBEAT"))
    backend.run()
    assert detector.heard == [("HEARTBEAT", 1)]
    runtime.fd_send(2, "HEARTBEAT", None, 4)
    [beat] = backend.sent
    assert (beat.module, beat.src, beat.dst) == ("fd", 0, 2)
    assert beat.header_size == NET.base_header + NET.per_module_header


def test_suspicion_change_reaches_every_module_top_to_bottom(backend):
    runtime = backend.build(depth=2)
    top, bottom = runtime.modules
    top.next_actions = [Send(1, "TOP", None, 0)]
    bottom.next_actions = [Send(1, "BOTTOM", None, 0)]
    runtime.on_suspicion_change(frozenset({2}))
    assert top.log == bottom.log == [("suspicion", frozenset({2}))]
    assert [m.kind for m in backend.sent] == ["TOP", "BOTTOM"]


def test_fd_callbacks_fire_while_alive_and_never_after_a_crash(backend):
    runtime = backend.build()
    fired = []
    runtime.fd_schedule(0.01, lambda: fired.append("first"))
    backend.run()
    assert fired == ["first"]
    runtime.fd_schedule(0.01, lambda: fired.append("late"))
    runtime.crash()
    runtime.fd_send(1, "HEARTBEAT", None, 4)
    backend.run()
    assert fired == ["first"] and backend.sent == []


# -- crash recovery ----------------------------------------------------------


@pytest.mark.parametrize("label", ["modular", "monolithic", "ringpaxos"])
def test_recoverable_stacks_resume_at_the_given_instance(backend, label):
    runtime = build_process(
        stack_from_label(label), 0, 3, lambda modules: backend.host(0, 3, modules)
    )
    runtime.resume_at(7, {app_message().msg_id})
    assert runtime.modules[0].next_instance == 7


@pytest.mark.parametrize("label", ["sequencer", "batched-sequencer"])
def test_good_run_only_stacks_refuse_recovery_before_touching_any_layer(backend, label):
    runtime = build_process(
        stack_from_label(label), 0, 3, lambda modules: backend.host(0, 3, modules)
    )
    top = runtime.modules[0]
    before = top.next_instance
    with pytest.raises(ProtocolError, match="'seq' does not support crash recovery"):
        runtime.resume_at(7, set())
    assert top.next_instance == before
