"""The simulated backend: modelled cost, attribution and the network.

What `ProcessRuntime` shares with the live backend (routing, action
execution, timers, crash, FD plumbing) is in `test_runtime_contract.py`.
"""

import pytest

from repro.config import CpuCosts, NetworkConfig
from repro.net.network import Network
from repro.sim.kernel import Kernel
from repro.stack.actions import EmitDown, EmitUp, Send, StartTimer
from repro.stack.events import AdeliverIndication
from repro.stack.runtime import ProcessRuntime

from tests.conftest import Probe, Recorder, app_message, make_ctx

FAST_NET = NetworkConfig(bandwidth=1e12, propagation=1e-6)

SIMPLE_COSTS = CpuCosts(
    dispatch=1e-6,
    boundary_crossing=10e-6,
    send_fixed=100e-6,
    recv_fixed=100e-6,
    serialize_per_byte=0.0,
    send_per_byte=0.0,
    recv_per_byte=0.0,
    adeliver=1e-6,
)


def build_pair(n=2, modules_per_stack=1, costs=SIMPLE_COSTS):
    """Two (or n) single/multi-module stacks on one kernel+network."""
    kernel = Kernel()
    network = Network(kernel, n, FAST_NET)
    runtimes = []
    for pid in range(n):
        ctx = make_ctx(pid=pid, n=n)
        modules = [
            Recorder(ctx, name=f"m{depth}") for depth in range(modules_per_stack)
        ]
        runtimes.append(
            ProcessRuntime(
                pid, modules, kernel=kernel, network=network,
                costs=costs, net_config=FAST_NET,
            )
        )
    return kernel, network, runtimes


def top(runtime) -> Recorder:
    return runtime.modules[0]


def bottom(runtime) -> Recorder:
    return runtime.modules[-1]


def test_send_is_routed_to_same_named_module():
    kernel, network, (a, b) = build_pair()
    top(a).next_actions = [Send(1, "PING", "hello", 10)]
    a.inject(Probe("go"))
    kernel.run()
    assert ("message", "PING", 0) in top(b).log


def test_send_charges_cpu_before_transmit():
    kernel, network, (a, b) = build_pair()
    top(a).next_actions = [Send(1, "PING", None, 0)]
    a.inject(Probe("go"))
    kernel.run()
    # dispatch (1µs) + send_fixed (100µs) before the wire, then recv at
    # arrival costs another 100µs + dispatch.
    arrival_handling = [e for e in top(b).log if e[0] == "message"]
    assert arrival_handling
    assert kernel.now == pytest.approx(1e-6 + 100e-6 + 1e-6 + 100e-6 + 1e-6, rel=0.1)


def test_every_charge_is_attributed_to_a_layer():
    kernel, network, (a, b) = build_pair(modules_per_stack=2)
    a.set_adeliver_listener(lambda pid, m, t: None)
    top(a).next_actions = [EmitDown(Probe("down"))]
    bottom(a).next_actions = [Send(1, "PING", None, 0)]
    a.inject(Probe("go"))
    top(a).next_actions = [EmitUp(AdeliverIndication(app_message()))]
    a.inject(Probe("again"))
    # m0: two injects; m1: one dispatch + one send at height 0;
    # boundary: the one EmitDown; app: the one adeliver.
    assert a.layer_busy == pytest.approx(
        {"m0": 2e-6, "m1": 1e-6 + 100e-6, "fd": 0.0, "app": 1e-6}
    )
    assert a.boundary_busy == pytest.approx(10e-6)
    assert a.boundary_crossings == 1
    assert a.cpu.busy_time == pytest.approx(
        sum(a.layer_busy.values()) + a.boundary_busy
    )
    kernel.run()
    # The arrival at height 0 of the peer crosses nothing.
    assert b.layer_busy["m1"] == pytest.approx(100e-6 + 1e-6)
    assert b.boundary_crossings == 0


def test_timer_starts_when_the_arming_handlers_work_ends():
    kernel, network, (a, b) = build_pair()
    top(a).next_actions = [Send(1, "PING", None, 0), StartTimer("tick", 0.5)]
    a.inject(Probe("go"))
    kernel.run()
    assert ("timer", "tick", None) in top(a).log
    # The handler is the run's last event: the inject dispatch and the
    # send precede the 0.5 s, one dispatch follows it.
    assert kernel.now == pytest.approx(1e-6 + 100e-6 + 0.5 + 1e-6, abs=1e-9)


def test_crashed_destination_does_not_receive():
    kernel, network, (a, b) = build_pair()
    b.crash()
    assert b.crashed_at == 0.0
    top(a).next_actions = [Send(1, "PING", None, 1)]
    a.inject(Probe("go"))
    kernel.run()
    assert top(b).log == []


def test_crash_between_arrival_and_execution_drops_the_message():
    kernel, network, (a, b) = build_pair()
    top(a).next_actions = [Send(1, "PING", None, 0)]
    a.inject(Probe("go"))
    # The frame arrives just after 101 µs and p1 handles it 101 µs of
    # CPU later; crash p1 in between.
    kernel.schedule(150e-6, b.crash)
    kernel.run()
    assert top(b).log == []


def test_serialize_once_for_broadcasts():
    costs = CpuCosts(
        dispatch=0.0, boundary_crossing=0.0,
        send_fixed=0.0, recv_fixed=0.0,
        serialize_per_byte=1e-6, send_per_byte=0.0, recv_per_byte=0.0,
    )
    kernel, network, runtimes = build_pair(n=3, costs=costs)
    a = runtimes[0]
    payload = {"big": True}
    top(a).next_actions = [
        Send(1, "PING", payload, 1000),
        Send(2, "PING", payload, 1000),
    ]
    a.inject(Probe("go"))
    # Only the first copy pays serialization: ~1000µs once, not twice.
    wire = 1000 + FAST_NET.base_header + FAST_NET.per_module_header
    assert a.cpu.busy_time == pytest.approx(wire * 1e-6, rel=1e-6)
