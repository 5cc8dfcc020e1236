"""Unit tests for the stack factory."""

import pytest

from repro.abcast.factory import build_stack
from repro.abcast.modular import ModularAtomicBroadcast
from repro.abcast.monolithic import MonolithicAtomicBroadcast
from repro.broadcast.reliable import ReliableBroadcast
from repro.config import (
    ConsensusVariant,
    ReliableBroadcastVariant,
    STACK_REGISTRY,
    StackConfig,
    StackKind,
    modular_stack,
    monolithic_stack,
)
from repro.consensus.chandra_toueg import TextbookConsensus
from repro.consensus.optimized import OptimizedConsensus

from tests.conftest import make_ctx


def test_modular_stack_has_three_modules_in_order():
    modules = build_stack(modular_stack(), make_ctx())
    assert [type(m) for m in modules] == [
        ModularAtomicBroadcast,
        OptimizedConsensus,
        ReliableBroadcast,
    ]
    assert [m.name for m in modules] == ["abcast", "consensus", "rbcast"]


def test_monolithic_stack_is_a_single_module():
    modules = build_stack(monolithic_stack(), make_ctx())
    assert len(modules) == 1
    assert isinstance(modules[0], MonolithicAtomicBroadcast)
    assert modules[0].name == "mono"


@pytest.mark.parametrize("label", sorted(STACK_REGISTRY))
def test_every_top_module_answers_the_live_probes(label):
    top = build_stack(STACK_REGISTRY[label], make_ctx())[0]
    assert (top.unordered_count, top.next_instance) == (0, 0)


def test_textbook_consensus_variant():
    config = StackConfig(kind=StackKind.MODULAR, consensus=ConsensusVariant.TEXTBOOK)
    modules = build_stack(config, make_ctx())
    assert isinstance(modules[1], TextbookConsensus)


def test_rbcast_variant_is_propagated():
    config = StackConfig(rbcast=ReliableBroadcastVariant.CLASSICAL)
    modules = build_stack(config, make_ctx())
    assert modules[2].variant is ReliableBroadcastVariant.CLASSICAL


def test_max_batch_reaches_both_stacks():
    modular = build_stack(modular_stack(), make_ctx(), max_batch=7)
    mono = build_stack(monolithic_stack(), make_ctx(), max_batch=7)
    assert modular[0].max_batch == 7
    assert mono[0].max_batch == 7


def test_guard_timeout_propagated():
    config = StackConfig(guard_timeout=1.25)
    modules = build_stack(config, make_ctx())
    assert modules[0].guard_timeout == 1.25


def test_optimization_flags_propagated():
    from repro.config import MonolithicOptimizations

    opts = MonolithicOptimizations(False, True, False)
    modules = build_stack(monolithic_stack(opts), make_ctx())
    assert modules[0].opts is opts


def test_ringpaxos_stack_has_the_three_paxos_roles_in_order():
    from repro.abcast.ringpaxos import RingAcceptor, RingLearner, RingProposer

    config = StackConfig(kind=StackKind.RINGPAXOS, guard_timeout=0.75)
    modules = build_stack(config, make_ctx(), max_batch=11)
    assert [type(m) for m in modules] == [RingLearner, RingProposer, RingAcceptor]
    assert modules[1].guard_timeout == 0.75
    assert modules[1].max_batch == 11


def test_batched_sequencer_is_distillation_over_the_sequencer():
    from repro.abcast.batching import DistillationLayer
    from repro.abcast.sequencer import SequencerAtomicBroadcast
    from repro.config import BatchingConfig

    config = StackConfig(kind=StackKind.BATCHED_SEQUENCER)
    modules = build_stack(config, make_ctx())
    assert [type(m) for m in modules] == [
        DistillationLayer,
        SequencerAtomicBroadcast,
    ]
    assert modules[0].config == BatchingConfig()  # default knobs implied


def test_explicit_batching_knobs_reach_the_layer():
    from repro.abcast.batching import DistillationLayer
    from repro.config import BatchingConfig

    knobs = BatchingConfig(max_messages=8, flush_interval=0.001)
    config = StackConfig(kind=StackKind.BATCHED_SEQUENCER, batching=knobs)
    modules = build_stack(config, make_ctx())
    assert isinstance(modules[0], DistillationLayer)
    assert modules[0].config is knobs


def test_batching_composes_over_any_stack():
    from repro.abcast.batching import DistillationLayer
    from repro.config import BatchingConfig

    config = StackConfig(kind=StackKind.MODULAR, batching=BatchingConfig())
    modules = build_stack(config, make_ctx())
    assert isinstance(modules[0], DistillationLayer)
    assert len(modules) == 4  # distill over the full modular stack


def test_unknown_stack_kind_lists_the_registry():
    from dataclasses import replace

    import pytest

    from repro.errors import ConfigurationError

    class Bogus:
        value = "bogus"

    broken = replace(StackConfig(), kind=Bogus())
    with pytest.raises(ConfigurationError, match="registered stacks"):
        build_stack(broken, make_ctx())
