"""Builds the module list of any stack from a :class:`StackConfig`.

Two entry points:

* :func:`build_stack` — the module list alone, for callers that manage
  their own :class:`~repro.stack.module.ModuleContext` (unit tests, the
  nemesis broken-stack fixtures);
* :func:`build_process` — modules plus a hosting runtime, built against
  the :class:`~repro.stack.runtime.StackRuntime` interpreter so the
  same wiring serves the simulator's
  :class:`~repro.stack.runtime.ProcessRuntime` and the live
  :class:`~repro.live.runtime.LiveRuntime`.

Registration is table-driven: :data:`_STACK_BUILDERS` maps each
:class:`~repro.config.StackKind` to its module-list builder, so adding a
stack means adding one row here plus a label in
:data:`repro.config.STACK_REGISTRY` — CLI ``--help``, sweeps, and
nemesis label validation pick it up automatically.
"""

from __future__ import annotations

from typing import Callable

from repro.abcast.batching import DistillationLayer
from repro.abcast.indirect import IndirectModularAtomicBroadcast
from repro.abcast.modular import ModularAtomicBroadcast
from repro.abcast.monolithic import MonolithicAtomicBroadcast
from repro.abcast.ringpaxos import ring_stack
from repro.abcast.sequencer import SequencerAtomicBroadcast
from repro.broadcast.reliable import ReliableBroadcast
from repro.config import ConsensusVariant, StackConfig, StackKind
from repro.consensus.chandra_toueg import TextbookConsensus
from repro.consensus.optimized import OptimizedConsensus
from repro.errors import ConfigurationError
from repro.stack.module import Microprotocol, ModuleContext
from repro.stack.runtime import StackRuntime

#: Builds a runtime around a finished module list. The factory runs
#: after the modules exist because every runtime implementation takes
#: its stack at construction time.
RuntimeFactory = Callable[[list[Microprotocol]], StackRuntime]

#: Signature of :func:`build_stack`, for pluggable replacements.
StackFactory = Callable[..., "list[Microprotocol]"]

#: Module-list builder for one stack kind: (config, ctx, max_batch).
StackBuilder = Callable[
    [StackConfig, ModuleContext, "int | None"], "list[Microprotocol]"
]


def _build_monolithic(
    config: StackConfig, ctx: ModuleContext, max_batch: int | None
) -> list[Microprotocol]:
    return [MonolithicAtomicBroadcast(ctx, config.optimizations, max_batch=max_batch)]


def _build_sequencer(
    config: StackConfig, ctx: ModuleContext, max_batch: int | None
) -> list[Microprotocol]:
    return [SequencerAtomicBroadcast(ctx)]


def _build_modular(
    config: StackConfig, ctx: ModuleContext, max_batch: int | None
) -> list[Microprotocol]:
    if config.consensus is ConsensusVariant.TEXTBOOK:
        consensus: Microprotocol = TextbookConsensus(ctx)
    else:
        consensus = OptimizedConsensus(ctx)
    if config.consensus is ConsensusVariant.INDIRECT:
        abcast: Microprotocol = IndirectModularAtomicBroadcast(
            ctx, guard_timeout=config.guard_timeout, max_batch=max_batch
        )
    else:
        abcast = ModularAtomicBroadcast(
            ctx, guard_timeout=config.guard_timeout, max_batch=max_batch
        )
    return [
        abcast,
        consensus,
        ReliableBroadcast(ctx, variant=config.rbcast),
    ]


def _build_ringpaxos(
    config: StackConfig, ctx: ModuleContext, max_batch: int | None
) -> list[Microprotocol]:
    return ring_stack(ctx, guard_timeout=config.guard_timeout, max_batch=max_batch)


#: The registration table. ``BATCHED_SEQUENCER`` reuses the sequencer
#: builder — the batching layer is prepended by :func:`build_stack`.
_STACK_BUILDERS: dict[StackKind, StackBuilder] = {
    StackKind.MONOLITHIC: _build_monolithic,
    StackKind.SEQUENCER: _build_sequencer,
    StackKind.MODULAR: _build_modular,
    StackKind.RINGPAXOS: _build_ringpaxos,
    StackKind.BATCHED_SEQUENCER: _build_sequencer,
}


def build_stack(
    config: StackConfig,
    ctx: ModuleContext,
    *,
    max_batch: int | None = None,
) -> list[Microprotocol]:
    """Instantiate the protocol modules of one process, top to bottom.

    The modular stack is the paper's Fig. 1 (left): abcast over consensus
    over reliable broadcast, three separately composed modules. The
    monolithic stack (Fig. 1, right) is a single merged module. The
    post-2007 additions (ring dissemination, distillation) register in
    :data:`_STACK_BUILDERS` alongside them.

    Args:
        config: Which stack and which protocol variants to build.
        ctx: The process's module context.
        max_batch: Flow-control cap on messages ordered per consensus
            (see :class:`~repro.config.FlowControlConfig`).
    """
    builder = _STACK_BUILDERS.get(config.kind)
    if builder is None:
        registered = ", ".join(sorted(kind.value for kind in _STACK_BUILDERS))
        raise ConfigurationError(
            f"unknown stack kind {config.kind!r} (registered stacks: {registered})"
        )
    modules = builder(config, ctx, max_batch)
    batching = config.batching
    if batching is None and config.kind is StackKind.BATCHED_SEQUENCER:
        batching = config.batching_or_default()
    if batching is not None:
        modules.insert(0, DistillationLayer(ctx, batching))
    return modules


def build_process(
    config: StackConfig,
    pid: int,
    n: int,
    runtime_factory: RuntimeFactory,
    *,
    max_batch: int | None = None,
    stack_factory: StackFactory | None = None,
) -> StackRuntime:
    """Build one process: its module stack hosted on a runtime.

    The module context's ``suspects`` query must reach the runtime's
    failure detector, but the runtime cannot exist before its modules do
    — this helper closes that cycle (via a late-bound reference) so that
    neither the simulator nor the live deployment has to.

    Args:
        config: Which stack and which protocol variants to build.
        pid: This process's identifier.
        n: Group size.
        runtime_factory: Builds the hosting runtime from the finished
            module list (e.g. a ``ProcessRuntime`` or ``LiveRuntime``
            constructor closure).
        max_batch: Flow-control cap on messages ordered per consensus.
        stack_factory: Optional :func:`build_stack` replacement with the
            same signature (the nemesis swarm injects deliberately broken
            stacks through this).
    """
    make_stack = stack_factory if stack_factory is not None else build_stack
    holder: list[StackRuntime] = []

    def suspects() -> frozenset[int]:
        return holder[0].suspects() if holder else frozenset()

    ctx = ModuleContext(pid=pid, n=n, suspects=suspects)
    modules = make_stack(config, ctx, max_batch=max_batch)
    runtime = runtime_factory(modules)
    holder.append(runtime)
    return runtime
