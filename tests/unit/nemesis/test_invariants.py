"""Unit tests for the online invariant monitor."""

import pytest

from repro.config import CrashEvent, FaultloadConfig, RunConfig
from repro.errors import LivenessViolation, OrderingViolation
from repro.nemesis.invariants import InvariantMonitor
from repro.nemesis.steps import compile_faultload
from repro.net.faults import FaultInjector
from repro.sim.kernel import Kernel
from repro.types import AppMessage, MessageId


def _message(sender, seq):
    return AppMessage(
        msg_id=MessageId(sender=sender, seq=seq), size=10, abcast_time=0.0
    )


def _abcast(monitor, *messages):
    for message in messages:
        monitor.on_abcast(message)


class _StubSimulation:
    """Just enough Simulation surface for InvariantMonitor.attach()."""

    def __init__(self, config, kernel=None):
        self.config = config
        self.kernel = kernel or Kernel(seed=1)
        self.faults = FaultInjector()
        self.fault_steps = compile_faultload(config.faultload)
        self.accept_listeners = []
        self.adeliver_listeners = []

    def add_accept_listener(self, listener):
        self.accept_listeners.append(listener)

    def add_adeliver_listener(self, listener):
        self.adeliver_listeners.append(listener)


# -- online safety checks ---------------------------------------------------


def test_identical_prefixes_pass():
    monitor = InvariantMonitor(3)
    m1, m2 = _message(0, 1), _message(1, 1)
    _abcast(monitor, m1, m2)
    for pid in range(3):
        monitor.on_adeliver(pid, m1, 0.1)
    monitor.on_adeliver(0, m2, 0.2)  # p0 ahead is fine (prefix form)
    assert monitor.passed
    assert monitor.delivery_count == 4
    assert monitor.finalize(expect_all_delivered=False) == []


def test_duplicate_delivery_is_a_uniform_integrity_violation():
    monitor = InvariantMonitor(2)
    m1 = _message(0, 1)
    _abcast(monitor, m1)
    monitor.on_adeliver(0, m1, 0.1)
    monitor.on_adeliver(0, m1, 0.2)
    assert [v.invariant for v in monitor.violations] == ["uniform-integrity"]
    assert "twice" in monitor.violations[0].description


def test_never_abcast_delivery_is_a_uniform_integrity_violation():
    monitor = InvariantMonitor(2)
    monitor.on_adeliver(0, _message(0, 99), 0.1)
    assert [v.invariant for v in monitor.violations] == ["uniform-integrity"]
    assert "never-abcast" in monitor.violations[0].description


def test_order_divergence_is_flagged_at_the_forking_delivery():
    monitor = InvariantMonitor(2)
    m1, m2 = _message(0, 1), _message(1, 1)
    _abcast(monitor, m1, m2)
    monitor.on_adeliver(0, m1, 0.1)
    monitor.on_adeliver(0, m2, 0.2)
    monitor.on_adeliver(1, m2, 0.3)  # diverges at position 0
    violation = monitor.violations[0]
    assert violation.invariant == "total-order"
    assert violation.time == 0.3
    assert "position 0" in violation.description
    # The trace slice covers the deliveries leading up to the fork.
    assert (0.1, "p0", "abcast", f"adeliver {m1.msg_id}") in violation.trace_slice
    # ...and ends at the delivery that forked.
    assert violation.trace_slice[-1] == (0.3, "p1", "abcast", f"adeliver {m2.msg_id}")


def test_raise_on_violation_raises_at_the_offending_delivery():
    monitor = InvariantMonitor(2, raise_on_violation=True)
    m1 = _message(0, 1)
    _abcast(monitor, m1)
    monitor.on_adeliver(0, m1, 0.1)
    with pytest.raises(OrderingViolation, match="twice"):
        monitor.on_adeliver(0, m1, 0.2)


# -- end-of-run checks ------------------------------------------------------


def test_finalize_flags_agreement_and_validity_gaps():
    monitor = InvariantMonitor(3)
    m1, m2 = _message(0, 1), _message(1, 1)
    _abcast(monitor, m1, m2)
    monitor.on_adeliver(0, m1, 0.1)  # m1 delivered only at p0; m2 nowhere
    violations = monitor.finalize()
    kinds = {v.invariant for v in violations}
    assert kinds == {"uniform-agreement", "validity"}
    # p1 and p2 are each missing m1 (agreement); everyone misses m2
    # (validity); p0's validity gap is m2 only.
    agreement = [v for v in violations if v.invariant == "uniform-agreement"]
    assert len(agreement) == 2


def test_finalize_is_idempotent():
    monitor = InvariantMonitor(2)
    m1 = _message(0, 1)
    _abcast(monitor, m1)
    monitor.on_adeliver(0, m1, 0.1)
    first = list(monitor.finalize())
    assert monitor.finalize() == first


# -- liveness watchdog ------------------------------------------------------


def _config(**kwargs):
    return RunConfig(n=3, warmup=0.1, duration=0.5, **kwargs)


def test_watchdog_flags_a_stalled_run():
    simulation = _StubSimulation(_config())
    monitor = InvariantMonitor(3, liveness_bound=0.2).attach(simulation)
    m1 = _message(0, 1)
    _abcast(monitor, m1)  # abcast by a correct process, never delivered
    simulation.kernel.schedule_at(2.0, lambda: None)
    simulation.kernel.run(until=2.0)
    assert [v.invariant for v in monitor.violations] == ["liveness"]
    assert "outstanding" in monitor.violations[0].description


def test_watchdog_stays_quiet_while_progress_continues():
    simulation = _StubSimulation(_config())
    monitor = InvariantMonitor(3, liveness_bound=0.2).attach(simulation)
    messages = [_message(0, seq) for seq in range(1, 8)]
    _abcast(monitor, *messages)
    # Deliver one message (to everyone) every 0.15 s — always something
    # outstanding at check time, but never two silent checks in a row.
    for index, message in enumerate(messages):
        when = 0.1 + 0.15 * index
        for pid in range(3):
            simulation.kernel.schedule_at(
                when, lambda m=message, p=pid, t=when: monitor.on_adeliver(p, m, t)
            )
    simulation.kernel.run(until=1.3)
    assert monitor.passed


def test_watchdog_excuses_messages_owed_only_by_crashed_processes():
    faultload = FaultloadConfig(crashes=(CrashEvent(0.2, 2),))
    simulation = _StubSimulation(_config(faultload=faultload))
    monitor = InvariantMonitor(3, liveness_bound=0.2).attach(simulation)
    m1 = _message(0, 1)
    _abcast(monitor, m1)
    simulation.faults.mark_crashed(2)
    monitor.on_adeliver(0, m1, 0.3)
    monitor.on_adeliver(1, m1, 0.3)  # p2 is dead; nobody owes it delivery
    simulation.kernel.schedule_at(2.0, lambda: None)
    simulation.kernel.run(until=2.0)
    assert monitor.passed


def test_watchdog_disarms_for_drop_mode_faultloads():
    from repro.config import LinkFaultMode, PartitionEvent

    faultload = FaultloadConfig(
        partitions=(
            PartitionEvent(
                start=0.2, heal=0.4, groups=((0,), (1, 2)),
                mode=LinkFaultMode.DROP,
            ),
        )
    )
    simulation = _StubSimulation(_config(faultload=faultload))
    monitor = InvariantMonitor(3, liveness_bound=0.2).attach(simulation)
    _abcast(monitor, _message(0, 1))  # never delivered anywhere
    simulation.kernel.schedule_at(2.0, lambda: None)
    simulation.kernel.run(until=2.0)
    assert monitor.passed  # no watchdog: liveness not guaranteed
    assert monitor.finalize() == []  # agreement/validity skipped too
