"""Property-based total-order tests across all four protocol stacks.

The defining guarantee of atomic broadcast is *total order*: any two
processes deliver the messages they both deliver in the same order.
These tests state it directly on the delivery sequences recorded by the
:class:`~repro.nemesis.invariants.InvariantMonitor` — for randomized
workloads (load, message size, arrival process, seed) over the modular,
monolithic, indirect and sequencer stacks, both fault-free and (for the
fault-tolerant stacks) under generated fault schedules.

This duplicates some ground the monitor's own checks cover on purpose:
the prefix property below is an independent, self-contained statement of
total order, so a bug in the monitor's bookkeeping cannot silently
weaken the oracle.
"""

from __future__ import annotations

import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import ArrivalProcess, RunConfig, WorkloadConfig
from repro.errors import StationarityWarning
from repro.experiments.runner import Simulation
from repro.nemesis.invariants import InvariantMonitor
from repro.nemesis.swarm import STACKS, build_config, generate_case

#: All four stacks of the paper's evaluation plus the high-throughput
#: extension stacks (and none of the fixtures).
ALL_STACKS = (
    "modular",
    "monolithic",
    "indirect",
    "sequencer",
    "ringpaxos",
    "batched-sequencer",
)

#: Short run shape: enough traffic for real batching, fast enough for CI.
RUN_WARMUP = 0.1
RUN_DURATION = 0.5

#: Quiet simulated time every run gets after its arrivals stop, and how
#: a backlog that outlasts it is waited for (see ``_sequences``).
DRAIN = 1.0
DRAIN_STEP = 0.25
MAX_DRAIN = 4.0

SEEDS = st.integers(min_value=0, max_value=2**16)


def _sequences(stack: str, seed: int, n: int, workload: WorkloadConfig):
    """Run one fault-free configuration; return (monitor, violations)."""
    config = RunConfig(
        n=n,
        stack=STACKS[stack].config,
        workload=workload,
        warmup=RUN_WARMUP,
        duration=RUN_DURATION,
    )
    simulation = Simulation(config, seed=seed)
    monitor = InvariantMonitor(n)
    monitor.attach(simulation)
    accepted: list = []
    simulation.add_accept_listener(accepted.append)
    simulation.start()
    # The generated grid reaches saturating loads (n=7 at 900 msg/s),
    # where the default drain cannot flush the flow-control windows;
    # finalize would then flag agreement/validity on messages that are
    # merely still in flight. DRAIN empties the backlog at every grid
    # point but one: ringpaxos at n=7 with 8 KiB messages admits all
    # ≈ 540 messages offered in the 0.6 s and delivers ≈ 340 msg/s, so
    # its last adeliver lands at 540 / 340 ≈ 1.59 s — 1.596–1.604 s
    # by seed, against a run that ends at 0.6 + 1.0 s. So a backlog is
    # waited for, a stall is not: step on while some process still owes
    # a delivery, stop at the first step that delivers nothing (finalize
    # then reports what is missing), and never wait past MAX_DRAIN.
    drain = DRAIN
    simulation.kernel.run(until=config.total_time + drain)
    while drain < MAX_DRAIN and monitor.delivery_count < n * len(accepted):
        delivered = monitor.delivery_count
        drain += DRAIN_STEP
        simulation.kernel.run(until=config.total_time + drain)
        if monitor.delivery_count == delivered:
            break
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StationarityWarning)
        simulation.run(drain=drain)
    violations = monitor.finalize()
    return monitor, violations


def assert_total_order(monitor: InvariantMonitor, pids) -> None:
    """The prefix property: any two sequences agree on their overlap."""
    sequences = [monitor.sequence(pid) for pid in pids]
    for i, a in enumerate(sequences):
        for b in sequences[i + 1 :]:
            shared = min(len(a), len(b))
            assert a[:shared] == b[:shared], (
                f"delivery orders diverge within their common prefix: "
                f"{a[:shared]} != {b[:shared]}"
            )


def assert_no_duplicates(monitor: InvariantMonitor, pids) -> None:
    for pid in pids:
        sequence = monitor.sequence(pid)
        assert len(sequence) == len(set(sequence)), (
            f"process {pid} delivered a message twice"
        )


@settings(max_examples=10, deadline=None)
@given(
    stack=st.sampled_from(ALL_STACKS),
    seed=SEEDS,
    n=st.sampled_from([3, 5, 7]),
    load=st.sampled_from([60.0, 240.0, 900.0]),
    size=st.sampled_from([64, 1024, 8192]),
    arrival=st.sampled_from(list(ArrivalProcess)),
)
# The grid's slowest cell: its backlog ends at the edge of DRAIN (above).
@example(
    stack="ringpaxos",
    seed=0,
    n=7,
    load=900.0,
    size=8192,
    arrival=ArrivalProcess.UNIFORM,
)
def test_total_order_holds_fault_free(stack, seed, n, load, size, arrival):
    """All four stacks totally order randomized fault-free workloads."""
    workload = WorkloadConfig(
        offered_load=load, message_size=size, arrival=arrival
    )
    monitor, violations = _sequences(stack, seed, n, workload)
    assert not violations, "\n".join(str(v) for v in violations)
    assert monitor.delivery_count > 0
    assert_total_order(monitor, range(n))
    assert_no_duplicates(monitor, range(n))


@settings(max_examples=10, deadline=None)
@given(
    stack=st.sampled_from(("modular", "monolithic", "indirect", "ringpaxos")),
    seed=SEEDS,
)
def test_total_order_holds_under_fault_schedules(stack, seed):
    """Fault-tolerant stacks keep total order under generated faultloads.

    Only the *correct* (never-crashed) processes are compared: a crashed
    process legitimately stops mid-sequence, which the prefix property
    tolerates, but restricting to survivors also pins the stronger claim
    that all of them keep delivering in lockstep order.
    """
    case = generate_case(stack, seed)
    config = build_config(case)
    simulation = Simulation(config, seed=case.seed)
    monitor = InvariantMonitor(case.n)
    monitor.attach(simulation)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StationarityWarning)
        simulation.run(drain=1.0)
    violations = monitor.finalize()
    assert not violations, "\n".join(str(v) for v in violations)
    crashed = case.faultload.crashed_processes()
    correct = [pid for pid in range(case.n) if pid not in crashed]
    assert_total_order(monitor, range(case.n))
    assert_no_duplicates(monitor, range(case.n))
    # Survivors must have delivered everything that any survivor did.
    lengths = {len(monitor.sequence(pid)) for pid in correct}
    assert len(lengths) == 1, "correct processes ended with different logs"


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([3, 5]))
def test_validity_every_accepted_message_is_delivered(seed, n):
    """Fault-free validity: accepted messages reach every process."""
    workload = WorkloadConfig(offered_load=120.0, message_size=256)
    monitor, violations = _sequences("modular", seed, n, workload)
    assert not violations, "\n".join(str(v) for v in violations)
    reference = monitor.sequence(0)
    for pid in range(1, n):
        assert monitor.sequence(pid) == reference
