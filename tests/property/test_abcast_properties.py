"""Property-based, adversarial-schedule tests of full atomic broadcast.

The monolithic module is a self-contained state machine, so the pump can
drive whole groups of it through randomly interleaved schedules with
crashes; the modular stack is exercised end-to-end through short kernel
simulations with randomized workloads and crash times. Both must satisfy
the abcast contract under every generated scenario.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abcast.monolithic import MonolithicAtomicBroadcast
from repro.config import (
    CrashEvent,
    FailureDetectorConfig,
    FailureDetectorKind,
    FaultloadConfig,
    RunConfig,
    StackConfig,
    StackKind,
    WorkloadConfig,
)
from repro.experiments.runner import Simulation
from repro.metrics.ordering import OrderingChecker
from repro.stack.events import AbcastRequest, AdeliverIndication
from repro.types import AppMessage, MessageId

from tests.harness import ModulePump


def adelivered(pump, pid):
    return [
        e.message.msg_id
        for e in pump.up_events[pid]
        if isinstance(e, AdeliverIndication)
    ]


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([3, 5]),
    seed=st.integers(min_value=0, max_value=2**20),
    per_process=st.integers(min_value=1, max_value=5),
    crash_coordinator=st.booleans(),
    crash_point=st.integers(min_value=0, max_value=25),
)
def test_monolithic_contract_under_random_schedules(
    n, seed, per_process, crash_coordinator, crash_point
):
    rng = random.Random(seed)
    pump = ModulePump(lambda ctx: MonolithicAtomicBroadcast(ctx), n)
    sent = []
    for pid in range(n):
        for seq in range(per_process):
            m = AppMessage(MessageId(pid, seq), size=64, abcast_time=0.0)
            sent.append(m)
            pump.inject(pid, AbcastRequest(m))
    steps = 0
    crashed = set()
    while pump.queue:
        pump.deliver_next(rng.randrange(len(pump.queue)))
        steps += 1
        if crash_coordinator and steps == crash_point and not crashed:
            pump.crash(0)
            crashed.add(0)
            pump.suspect_everywhere(0)
    # ◇S eventual completeness: one more full round of suspicion + drain.
    for pid in crashed:
        pump.suspect_everywhere(pid)
    pump.run(pick=lambda size: rng.randrange(size))
    # Fire any pending recovery timers until quiescence.
    for __ in range(5):
        for (pid, name) in list(pump.timers):
            if name.startswith("recover-") and pid not in crashed:
                pump.fire_timer(pid, name)
        pump.run(pick=lambda size: rng.randrange(size))

    correct = [pid for pid in range(n) if pid not in crashed]
    sequences = {pid: adelivered(pump, pid) for pid in correct}
    reference = sequences[correct[0]]

    # Total order + uniform agreement among correct processes.
    for pid in correct:
        assert sequences[pid] == reference, f"p{pid} diverged"
        assert len(set(sequences[pid])) == len(sequences[pid])  # integrity

    # Validity: messages from correct processes are all delivered.
    must_deliver = {m.msg_id for m in sent if m.msg_id.sender in correct}
    assert must_deliver <= set(reference)


@pytest.mark.filterwarnings("ignore::repro.errors.StationarityWarning")
@settings(max_examples=10, deadline=None)
@given(
    kind=st.sampled_from([StackKind.MODULAR, StackKind.MONOLITHIC]),
    seed=st.integers(min_value=0, max_value=2**10),
    load=st.sampled_from([100.0, 400.0]),
    crash_time=st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.4)),
    victim=st.sampled_from([0, 2]),
)
def test_full_stack_contract_under_random_workloads(
    kind, seed, load, crash_time, victim
):
    crashes = () if crash_time is None else (CrashEvent(crash_time, victim),)
    config = RunConfig(
        n=3,
        stack=StackConfig(kind=kind),
        workload=WorkloadConfig(offered_load=load, message_size=256),
        failure_detector=FailureDetectorConfig(
            kind=FailureDetectorKind.ORACLE, detection_delay=0.05
        ),
        faultload=FaultloadConfig(crashes=crashes),
        duration=0.4,
        warmup=0.1,
    )
    sim = Simulation(config, seed=seed)
    checker = OrderingChecker(3)
    sim.add_accept_listener(checker.on_abcast)
    sim.add_adeliver_listener(checker.on_adeliver)
    sim.run(drain=1.5)
    correct = set(range(3)) - config.faultload.crashed_processes()
    checker.verify(correct=correct, expect_all_delivered=True)
