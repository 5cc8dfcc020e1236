"""Determinism: a run is a pure function of (config, seed)."""

import pytest

from repro.config import (
    CrashEvent,
    FaultloadConfig,
    RunConfig,
    StackConfig,
    StackKind,
    WorkloadConfig,
)
from repro.experiments.runner import Simulation, run_simulation
from repro.metrics.ordering import OrderingChecker

STACKS = (StackKind.MODULAR, StackKind.MONOLITHIC)


def config_for(kind):
    return RunConfig(
        n=3,
        stack=StackConfig(kind=kind),
        workload=WorkloadConfig(offered_load=500.0, message_size=1024),
        duration=0.6,
        warmup=0.2,
    )


@pytest.mark.parametrize("kind", STACKS)
def test_same_seed_same_numbers(kind):
    a = run_simulation(config_for(kind), seed=11)
    b = run_simulation(config_for(kind), seed=11)
    assert a.metrics.latency_mean == b.metrics.latency_mean
    assert a.metrics.throughput == b.metrics.throughput
    assert a.network == b.network
    assert a.events_executed == b.events_executed


@pytest.mark.parametrize("kind", STACKS)
def test_same_seed_same_delivery_sequence(kind):
    sequences = []
    for __ in range(2):
        sim = Simulation(config_for(kind), seed=11)
        checker = OrderingChecker(3)
        sim.add_accept_listener(checker.on_abcast)
        sim.add_adeliver_listener(checker.on_adeliver)
        sim.run()
        sequences.append(checker.sequence(0))
    assert sequences[0] == sequences[1]


@pytest.mark.parametrize("kind", STACKS)
def test_different_seeds_differ(kind):
    a = run_simulation(config_for(kind), seed=1)
    b = run_simulation(config_for(kind), seed=2)
    # Workload phases differ, so latency profiles should not be equal.
    assert a.metrics.latency_mean != b.metrics.latency_mean


@pytest.mark.filterwarnings("ignore::repro.errors.StationarityWarning")
def test_determinism_holds_under_faults():
    config = config_for(StackKind.MODULAR).with_changes(
        faultload=FaultloadConfig(crashes=(CrashEvent(0.3, 0),)),
        duration=1.0,
    )
    a = run_simulation(config, seed=5)
    b = run_simulation(config, seed=5)
    assert a.metrics.throughput == b.metrics.throughput
    assert a.network == b.network
