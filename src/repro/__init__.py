"""repro — a reproduction of "On the Cost of Modularity in Atomic Broadcast".

Rütti, Mena, Ekwall, Schiper; DSN 2007.

The library implements both of the paper's atomic broadcast stacks — a
modular composition (abcast / consensus / reliable broadcast) and a
monolithic merged protocol with the paper's three cross-module
optimizations — on top of a deterministic discrete-event simulation of
the paper's testbed (CPU cost model, Gigabit-Ethernet-like network,
failure detectors, flow control), plus the full benchmark harness that
regenerates the paper's figures and analytical tables.

Quickstart::

    from repro import RunConfig, StackConfig, StackKind, run_simulation

    config = RunConfig(n=3, stack=StackConfig(kind=StackKind.MONOLITHIC))
    result = run_simulation(config, seed=1)
    print(result.metrics.latency_mean, result.metrics.throughput)
"""

from repro.analysis import predict_gap as analytical_compare
from repro.config import (
    ArrivalProcess,
    ConsensusVariant,
    CpuCosts,
    CrashEvent,
    DelaySpike,
    FailureDetectorConfig,
    FailureDetectorKind,
    FaultloadConfig,
    FlowControlConfig,
    LinkFaultMode,
    LossBurst,
    MonolithicOptimizations,
    NetworkConfig,
    PartitionEvent,
    ReliableBroadcastVariant,
    RunConfig,
    StackConfig,
    StackKind,
    WorkloadConfig,
    WrongSuspicion,
    modular_stack,
    monolithic_stack,
)
from repro.errors import (
    ConfigurationError,
    OrderingViolation,
    ProtocolError,
    ReproError,
    SimulationError,
)
from repro.experiments.runner import RunResult, Simulation, run_simulation
from repro.metrics.ordering import OrderingChecker
from repro.types import AppMessage, Batch, MessageId

__version__ = "1.0.0"

__all__ = [
    "AppMessage",
    "ArrivalProcess",
    "Batch",
    "ConfigurationError",
    "ConsensusVariant",
    "CpuCosts",
    "CrashEvent",
    "DelaySpike",
    "FailureDetectorConfig",
    "FailureDetectorKind",
    "FaultloadConfig",
    "FlowControlConfig",
    "LinkFaultMode",
    "LossBurst",
    "MessageId",
    "MonolithicOptimizations",
    "NetworkConfig",
    "OrderingChecker",
    "OrderingViolation",
    "PartitionEvent",
    "ProtocolError",
    "ReliableBroadcastVariant",
    "ReproError",
    "RunConfig",
    "RunResult",
    "Simulation",
    "SimulationError",
    "StackConfig",
    "StackKind",
    "WorkloadConfig",
    "WrongSuspicion",
    "analytical_compare",
    "modular_stack",
    "monolithic_stack",
    "run_simulation",
    "__version__",
]
