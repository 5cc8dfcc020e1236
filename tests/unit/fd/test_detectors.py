"""Unit tests for the failure detector implementations."""

import pytest

from repro.config import (
    CpuCosts,
    FailureDetectorConfig,
    FailureDetectorKind,
    FaultloadConfig,
    NetworkConfig,
    RunConfig,
    WorkloadConfig,
    WrongSuspicion,
)
from repro.errors import ProtocolError
from repro.experiments.runner import Simulation
from repro.fd.base import FailureDetector
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.fd.oracle import OracleFailureDetector
from repro.net.network import Network
from repro.sim.kernel import Kernel
from repro.stack.module import Microprotocol
from repro.stack.runtime import ProcessRuntime

from tests.conftest import make_ctx, net_message

FAST_NET = NetworkConfig(bandwidth=1e12, propagation=1e-6)
TINY_COSTS = CpuCosts(
    dispatch=0.0, boundary_crossing=0.0, send_fixed=0.0, recv_fixed=0.0,
    serialize_per_byte=0.0, send_per_byte=0.0, recv_per_byte=0.0, adeliver=0.0,
)


class SuspicionSpy(Microprotocol):
    name = "spy"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.changes = []

    def handle_suspicion(self, suspects):
        self.changes.append(suspects)
        return []


def build_group(n, detector_factory):
    kernel = Kernel()
    network = Network(kernel, n, FAST_NET)
    runtimes, detectors, spies = [], [], []
    for pid in range(n):
        ctx = make_ctx(pid=pid, n=n)
        spy = SuspicionSpy(ctx)
        runtime = ProcessRuntime(
            pid, [spy], kernel=kernel, network=network,
            costs=TINY_COSTS, net_config=FAST_NET,
        )
        detector = detector_factory()
        runtime.attach_failure_detector(detector)
        runtimes.append(runtime)
        detectors.append(detector)
        spies.append(spy)
    for runtime in runtimes:
        runtime.start()
    return kernel, runtimes, detectors, spies


def test_unattached_detector_rejects_use():
    with pytest.raises(ProtocolError):
        FailureDetector().runtime


def test_base_detector_rejects_unknown_messages():
    kernel, runtimes, detectors, spies = build_group(2, FailureDetector)
    with pytest.raises(ProtocolError):
        detectors[0].handle_message(net_message("WAT", 1, 0, module="fd"))


# -- oracle ----------------------------------------------------------------


def test_oracle_suspects_after_detection_delay():
    kernel, runtimes, detectors, spies = build_group(
        3, lambda: OracleFailureDetector(detection_delay=0.2)
    )
    detectors[0].observe_crash(2)
    kernel.run(until=0.1)
    assert detectors[0].suspects() == frozenset()
    kernel.run(until=0.3)
    assert detectors[0].suspects() == frozenset({2})
    assert spies[0].changes == [frozenset({2})]


def test_oracle_rejects_negative_delay():
    with pytest.raises(ValueError):
        OracleFailureDetector(-1.0)


def test_oracle_never_suspects_spontaneously():
    kernel, runtimes, detectors, spies = build_group(
        3, lambda: OracleFailureDetector(0.1)
    )
    kernel.schedule(5.0, lambda: None)
    kernel.run()
    assert all(d.suspects() == frozenset() for d in detectors)


# -- scripted -----------------------------------------------------------------


def test_scripted_group_suspects_only_its_faultload_window():
    """SCRIPTED is the base detector: it suspects nothing on its own, and
    only the faultload's wrong suspicions move it."""
    suspicion = WrongSuspicion(time=1.0, observer=0, suspect=2, duration=1.0)
    config = RunConfig(
        n=3,
        workload=WorkloadConfig(offered_load=50.0, message_size=64),
        failure_detector=FailureDetectorConfig(kind=FailureDetectorKind.SCRIPTED),
        faultload=FaultloadConfig(wrong_suspicions=(suspicion,)),
        duration=2.5,
        warmup=0.1,
    )
    sim = Simulation(config, seed=1)
    assert all(type(d) is FailureDetector for d in sim.detectors)
    sim.start()

    def suspects_at(time):
        sim.kernel.run(until=time)
        return [d.suspects() for d in sim.detectors]

    nobody = frozenset()
    assert suspects_at(0.99) == [nobody] * 3
    assert suspects_at(1.01) == [frozenset({2}), nobody, nobody]
    assert suspects_at(1.99) == [frozenset({2}), nobody, nobody]
    assert suspects_at(2.01) == [nobody] * 3
    assert all(runtime.alive for runtime in sim.runtimes)
    assert sim.stats.messages_by_kind["HEARTBEAT"] == 0


# -- heartbeat -----------------------------------------------------------------


def test_heartbeat_quiet_group_never_suspects():
    kernel, runtimes, detectors, spies = build_group(
        3, lambda: HeartbeatFailureDetector(0.05, 0.2)
    )
    kernel.run(until=2.0)
    assert all(d.suspects() == frozenset() for d in detectors)


def test_heartbeat_detects_a_crash():
    kernel, runtimes, detectors, spies = build_group(
        3, lambda: HeartbeatFailureDetector(0.05, 0.2)
    )
    kernel.schedule(1.0, runtimes[2].crash)
    kernel.run(until=2.0)
    assert detectors[0].suspects() == frozenset({2})
    assert detectors[1].suspects() == frozenset({2})


def test_heartbeat_unsuspects_after_delayed_messages_resume():
    kernel, runtimes, detectors, spies = build_group(
        3, lambda: HeartbeatFailureDetector(0.05, 0.2)
    )
    # Delay heartbeats from p2 between t=0.5 and t=1.0 by routing through
    # a filter window: drop them during that interval.
    network = runtimes[0].network
    network.faults.add_filter(
        lambda m: None
        if m.src == 2 and m.module == "fd" and 0.5 <= kernel.now <= 1.0
        else 0.0
    )
    kernel.run(until=0.95)
    assert 2 in detectors[0].suspects()
    kernel.run(until=2.0)
    assert 2 not in detectors[0].suspects()


def test_heartbeat_validation():
    with pytest.raises(ValueError):
        HeartbeatFailureDetector(0.0, 1.0)
    with pytest.raises(ValueError):
        HeartbeatFailureDetector(0.1, 0.1)


def test_heartbeats_cost_network_messages():
    kernel, runtimes, detectors, spies = build_group(
        2, lambda: HeartbeatFailureDetector(0.05, 0.2)
    )
    kernel.run(until=1.0)
    assert runtimes[0].network.stats.messages_by_kind["HEARTBEAT"] > 10


def test_heartbeat_rejects_non_heartbeat_without_counting_it_as_liveness():
    """Regression: the non-HEARTBEAT branch must not fall through into
    the aliveness bookkeeping (updating _last_heard / un-suspecting)."""
    kernel, runtimes, detectors, spies = build_group(
        3, lambda: HeartbeatFailureDetector(0.05, 0.2)
    )
    detector = detectors[0]
    detector.force_suspect(2)
    assert 2 in detector.suspects()
    heard_before = dict(detector._last_heard)
    with pytest.raises(ProtocolError):
        detector.handle_message(net_message("WAT", 2, 0, module="fd"))
    assert detector._last_heard == heard_before
    assert 2 in detector.suspects()


def test_force_suspect_and_retract_are_published_to_the_stack():
    kernel, runtimes, detectors, spies = build_group(
        3, lambda: OracleFailureDetector(0.1)
    )
    detectors[0].force_suspect(1)
    assert detectors[0].suspects() == frozenset({1})
    detectors[0].retract_suspicion(1)
    assert detectors[0].suspects() == frozenset()
    assert spies[0].changes == [frozenset({1}), frozenset()]
