"""Every ablation variant of the monolithic stack must stay correct
under faults — the §4 optimizations are good-run-only for performance,
never for safety, and that must hold for each subset of them."""

import itertools

import pytest

from repro.config import (
    CrashEvent,
    FailureDetectorConfig,
    FailureDetectorKind,
    FaultloadConfig,
    MonolithicOptimizations,
    RunConfig,
    WorkloadConfig,
    monolithic_stack,
)
from repro.experiments.runner import Simulation
from repro.metrics.ordering import OrderingChecker

ALL_COMBINATIONS = list(itertools.product((False, True), repeat=3))


@pytest.mark.filterwarnings("ignore::repro.errors.StationarityWarning")
@pytest.mark.parametrize("combine,piggyback,cheap", ALL_COMBINATIONS)
def test_every_optimization_subset_survives_coordinator_crash(
    combine, piggyback, cheap
):
    opts = MonolithicOptimizations(
        combine_decision_with_proposal=combine,
        piggyback_on_ack=piggyback,
        cheap_decision_broadcast=cheap,
    )
    config = RunConfig(
        n=3,
        stack=monolithic_stack(opts),
        workload=WorkloadConfig(offered_load=200.0, message_size=256),
        failure_detector=FailureDetectorConfig(
            kind=FailureDetectorKind.ORACLE, detection_delay=0.1
        ),
        faultload=FaultloadConfig(crashes=(CrashEvent(0.6, 0),)),
        duration=1.5,
        warmup=0.2,
    )
    sim = Simulation(config, seed=3)
    checker = OrderingChecker(3)
    sim.add_accept_listener(checker.on_abcast)
    sim.add_adeliver_listener(checker.on_adeliver)
    sim.run(drain=2.0)
    checker.verify(correct={1, 2}, expect_all_delivered=True)
    assert checker.sequence(1) == checker.sequence(2)
    # Progress after the crash: survivors' later messages got through.
    later = [m for m in checker.sequence(1) if m.sender in (1, 2) and m.seq > 80]
    assert later


@pytest.mark.parametrize("combine,piggyback,cheap", ALL_COMBINATIONS)
def test_every_optimization_subset_is_correct_in_good_runs(
    combine, piggyback, cheap
):
    opts = MonolithicOptimizations(
        combine_decision_with_proposal=combine,
        piggyback_on_ack=piggyback,
        cheap_decision_broadcast=cheap,
    )
    config = RunConfig(
        n=5,
        stack=monolithic_stack(opts),
        workload=WorkloadConfig(offered_load=400.0, message_size=512),
        duration=0.6,
        warmup=0.2,
    )
    sim = Simulation(config, seed=1)
    checker = OrderingChecker(5)
    sim.add_accept_listener(checker.on_abcast)
    sim.add_adeliver_listener(checker.on_adeliver)
    sim.run(drain=1.0)
    checker.verify(expect_all_delivered=True)
