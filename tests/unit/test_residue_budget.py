"""What a run keeps once the work is done.

Atomic broadcast runs about a thousand consensus instances a second per
process, so whatever a *decided* instance keeps is what a figure point,
a soak or a live worker keeps: resident memory that grows with the
length of the run, and GC-tracked containers every full collection
walks again. The rule (``InstanceState.retire``, PROTOCOLS.md "Life
cycle of a consensus instance") is that a decided instance keeps its
decision and nothing else, and that the metrics collector forgets a
message at its first delivery. Like ``test_import_budget.py`` this is
structural and untimed: it counts objects, not seconds or bytes.
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


def run(config):
    """Run *config*; returns the simulation and the ids anyone adelivered."""
    simulation = Simulation(config, seed=1)
    delivered = set()
    simulation.add_adeliver_listener(
        lambda pid, message, time: delivered.add(message.msg_id)
    )
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


@pytest.mark.parametrize(
    "config", [monolithic_good_run(2.0), modular_crash_run(2.0)], ids=["good", "crash"]
)
def test_every_decided_instance_is_retired_unless_its_own_round_is_open(config):
    simulation, __ = run(config)
    crashes = bool(config.faultload.crashes)
    for module in consensus_modules(simulation):
        states = list(module._instances.values())
        decided = [state for state in states if state.decided is not None]
        assert len(decided) > 100, "the run is long enough to mean something"
        kept = [state for state in decided if not state.retired]
        # Only a coordinator that decided through someone else's round
        # keeps its state, so no more instances than changed round.
        round_changes = sum(state.round > 1 for state in states)
        assert bool(round_changes) == crashes
        assert len(kept) <= round_changes
        for state in kept:
            assert state.proposal_sent_rounds and not state.decision_sent


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
        assert len(lengthy._instances) > 2.5 * len(brief._instances)
        # The one container that grows is the map of instances itself;
        # before retirement each decided instance added 3 dicts and 2 sets.
        assert containers_reachable_from(lengthy) == containers_reachable_from(brief)
