"""What a run keeps once the work is done.

Atomic broadcast runs about a thousand consensus instances a second per
process, so whatever a *decided* instance keeps is what a figure point,
a soak or a live worker keeps: resident memory that grows with the
length of the run, and GC-tracked containers every full collection
walks again. The rule (``InstanceState.retire``, PROTOCOLS.md "Life
cycle of a consensus instance") is that a decided instance keeps its
decision and nothing else — once the decided prefix reaches it, one
slot of a list that holds the decision — and that the metrics collector
forgets a message at its first delivery. Like ``test_import_budget.py``
this is structural and untimed: it counts objects, not seconds or bytes.
"""

import gc
import types
import warnings
from collections import Counter

import pytest

from repro.config import (
    ArrivalProcess,
    CrashEvent,
    FailureDetectorConfig,
    FailureDetectorKind,
    FaultloadConfig,
    RunConfig,
    StackConfig,
    StackKind,
    WorkloadConfig,
)
from repro.consensus.base import BaseConsensus
from repro.errors import StationarityWarning
from repro.experiments.runner import Simulation
from repro.types import Batch


def monolithic_good_run(duration):
    """The benchmark's memory workload (``sim_monolithic_n3_small``), short."""
    return RunConfig(
        n=3,
        stack=StackConfig(kind=StackKind.MONOLITHIC),
        workload=WorkloadConfig(offered_load=2000.0, message_size=64),
        duration=duration,
        warmup=0.0,
    )


def modular_crash_run(duration):
    """``sim_modular_n7_crash``, short: the first coordinator dies a third
    of the way in, the rest of the run is on the round-change path."""
    return RunConfig(
        n=7,
        stack=StackConfig(kind=StackKind.MODULAR),
        workload=WorkloadConfig(
            offered_load=2000.0, message_size=16384, arrival=ArrivalProcess.POISSON
        ),
        failure_detector=FailureDetectorConfig(kind=FailureDetectorKind.HEARTBEAT),
        faultload=FaultloadConfig(crashes=(CrashEvent(process=0, time=duration / 3),)),
        duration=duration,
        warmup=0.0,
    )


def run(config, joined=None):
    """Run *config*; returns the simulation and the ids anyone adelivered.

    If *joined* is a set, it collects every instance whose round changed
    anywhere in the group: each round change announces itself with a
    ``JOIN`` to everyone.
    """
    simulation = Simulation(config, seed=1)
    delivered = set()
    simulation.add_adeliver_listener(
        lambda pid, message, time: delivered.add(message.msg_id)
    )
    if joined is not None:
        transmit = simulation.network.transmit

        def spy(message, depart_time):
            if message.kind == "JOIN":
                joined.add(message.payload.instance)
            transmit(message, depart_time)

        simulation.network.transmit = spy
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StationarityWarning)
        simulation.run()
    return simulation, delivered


def consensus_modules(simulation):
    """The consensus module of every process that is still up."""
    return [
        next(m for m in runtime.modules if isinstance(m, BaseConsensus))
        for runtime in simulation.runtimes
        if runtime.alive
    ]


#: Where a walk of one module's state stops: code and classes are shared
#: by the whole process, not kept by the module.
NOT_STATE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.MethodType,
    types.BuiltinFunctionType,
)


def containers_reachable_from(module):
    """How many ``dict`` and ``set`` objects *module*'s state holds,
    every instance it ever ran included (``ctx`` leads to the runtime
    and from there to everything, so the walk does not enter it)."""
    seen, stack, counts = {id(module.ctx)}, [module], Counter()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, NOT_STATE):
            continue
        seen.add(id(obj))
        if type(obj) in (dict, set):
            counts[type(obj).__name__] += 1
        stack.extend(gc.get_referents(obj))
    return counts


def tracked_besides_decisions(module):
    """How many GC-tracked objects *module*'s state holds other than
    its decided batches and what they carry (the decision is what a
    decided instance is for; everything else is residue)."""
    seen, stack, count = {id(module.ctx)}, [module], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (Batch, *NOT_STATE)):
            continue
        seen.add(id(obj))
        count += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return count


def decided_count(module):
    """Instances *module* has decided: the prefix, and any beyond it."""
    log = module._decided
    return len(log) + sum(
        state.decided is not None and state.instance >= len(log)
        for state in module._instances.values()
    )


@pytest.mark.parametrize(
    "config", [monolithic_good_run(2.0), modular_crash_run(2.0)], ids=["good", "crash"]
)
def test_every_decided_instance_is_retired_unless_its_own_round_is_open(config):
    joined = set()
    simulation, __ = run(config, joined)
    crashes = bool(config.faultload.crashes)
    assert bool(joined) == crashes
    for module in consensus_modules(simulation):
        log = module._decided
        assert decided_count(module) > 100, "the run is long enough to mean something"
        kept = [
            state for state in module._instances.values()
            if state.decided is not None and not state.retired
        ]
        # Only a coordinator that decided through someone else's round
        # keeps its state, so only an instance that changed round.
        assert {state.instance for state in kept} <= joined
        for state in kept:
            assert state.proposal_sent_rounds and not state.decision_sent
        # The prefix owns no InstanceState: its slots hold decisions,
        # and a kept-whole instance alone is both a slot and an entry.
        assert [k for k, slot in enumerate(log) if slot is None] == sorted(
            state.instance for state in kept if state.instance < len(log)
        )
        for state in module._instances.values():
            retired = state.decided is not None and state.retired
            assert not retired or state.instance > len(log), "decided out of order"


@pytest.mark.parametrize(
    "config", [monolithic_good_run(2.0), modular_crash_run(2.0)], ids=["good", "crash"]
)
def test_collector_holds_no_accept_time_of_a_delivered_message(config):
    simulation, delivered = run(config)
    assert len(delivered) > 100
    still_held = set(simulation.metrics._abcast_times)
    assert not still_held & delivered
    if not config.faultload.crashes:
        assert not still_held  # everything accepted was delivered


def test_containers_kept_do_not_grow_with_the_length_of_a_good_run():
    short, __ = run(monolithic_good_run(1.0))
    long, __ = run(monolithic_good_run(3.0))
    for brief, lengthy in zip(consensus_modules(short), consensus_modules(long)):
        decided = decided_count(lengthy) - decided_count(brief)
        assert decided > 1.5 * decided_count(brief)
        # Open instances are those in flight, however long the run.
        assert len(lengthy._instances) <= len(brief._instances) + 1
        # No decided instance adds a dict or a set (before retirement
        # each added 3 dicts and 2 sets).
        assert containers_reachable_from(lengthy) == containers_reachable_from(brief)
        # What grows is one list slot per decided instance, which refers
        # to the decision: next to that, not one object per hundred
        # decided instances (the InstanceState shell was one each).
        residue = tracked_besides_decisions(lengthy) - tracked_besides_decisions(brief)
        assert residue <= decided / 100
