"""End-to-end tests of the indirect-consensus modular stack (extension).

The interesting failure mode is ordering-before-content: a process can
decide an id batch whose payloads it never received (sender crashed
mid-diffusion). The fetch protocol must fill the gap without breaking
total order.
"""

import pytest

from repro.config import (
    ConsensusVariant,
    CrashEvent,
    FailureDetectorConfig,
    FailureDetectorKind,
    FaultloadConfig,
    RunConfig,
    StackConfig,
    StackKind,
    WorkloadConfig,
)
from repro.experiments.runner import Simulation, run_simulation
from repro.metrics.ordering import OrderingChecker

from tests.harness import crash_after_sends


def indirect_config(**overrides):
    fields = dict(
        n=3,
        stack=StackConfig(
            kind=StackKind.MODULAR, consensus=ConsensusVariant.INDIRECT
        ),
        workload=WorkloadConfig(offered_load=300.0, message_size=1024),
        duration=0.8,
        warmup=0.2,
    )
    fields.update(overrides)
    return RunConfig(**fields)


def run_checked(config, seed=1, drain=2.0):
    sim = Simulation(config, seed=seed)
    checker = OrderingChecker(config.n)
    sim.add_accept_listener(checker.on_abcast)
    sim.add_adeliver_listener(checker.on_adeliver)
    result = sim.run(drain=drain)
    correct = set(range(config.n)) - config.faultload.crashed_processes()
    checker.verify(correct=correct, expect_all_delivered=True)
    return sim, result, checker


@pytest.mark.parametrize("n", [3, 5, 7])
def test_good_runs_satisfy_the_contract(n):
    __, result, checker = run_checked(indirect_config(n=n))
    assert result.metrics.throughput == pytest.approx(300.0, rel=0.1)
    assert len(checker.sequence(0)) > 100


def test_halves_modular_data_volume():
    indirect = run_simulation(
        indirect_config(
            workload=WorkloadConfig(offered_load=4000.0, message_size=8192),
            duration=0.6,
            warmup=0.3,
        ),
        seed=1,
    )
    direct = run_simulation(
        indirect_config(
            stack=StackConfig(kind=StackKind.MODULAR),
            workload=WorkloadConfig(offered_load=4000.0, message_size=8192),
            duration=0.6,
            warmup=0.3,
        ),
        seed=1,
    )
    ratio = indirect.payload_bytes_per_consensus / direct.payload_bytes_per_consensus
    assert 0.4 < ratio < 0.6


@pytest.mark.filterwarnings("ignore::repro.errors.StationarityWarning")
def test_coordinator_crash_is_tolerated():
    config = indirect_config(
        failure_detector=FailureDetectorConfig(
            kind=FailureDetectorKind.ORACLE, detection_delay=0.1
        ),
        faultload=FaultloadConfig(crashes=(CrashEvent(0.5, 0),)),
        duration=1.5,
    )
    __, __, checker = run_checked(config)
    assert checker.sequence(1) == checker.sequence(2)
    post_crash = [m for m in checker.sequence(1) if m.sender != 0 and m.seq > 80]
    assert post_crash


def test_sender_crash_mid_diffusion_exercises_fetch():
    """Crash a sender after one diffusion copy: the other processes can
    decide ids they lack, and must fetch the content."""
    config = indirect_config(
        failure_detector=FailureDetectorConfig(
            kind=FailureDetectorKind.ORACLE, detection_delay=0.1
        ),
        workload=WorkloadConfig(offered_load=60.0, message_size=512),
        duration=1.5,
    )
    sim = Simulation(config, seed=5)
    checker = OrderingChecker(3)
    sim.add_accept_listener(checker.on_abcast)
    sim.add_adeliver_listener(checker.on_adeliver)
    sim.kernel.schedule_at(0.6, lambda: crash_after_sends(sim, 1, 1))

    def notify_oracle():
        if not sim.runtimes[1].alive:
            for runtime, detector in zip(sim.runtimes, sim.detectors):
                if runtime.alive:
                    detector.observe_crash(1)

    sim.kernel.schedule_at(0.9, notify_oracle)
    sim.run(drain=2.5)
    checker.verify(correct={0, 2}, expect_all_delivered=True)
    assert checker.sequence(0) == checker.sequence(2)


def test_deterministic_under_indirect_mode():
    a = run_simulation(indirect_config(), seed=9)
    b = run_simulation(indirect_config(), seed=9)
    assert a.metrics.latency_mean == b.metrics.latency_mean
    assert a.network == b.network
