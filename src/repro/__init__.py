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

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Every name below loads its submodule on first use: ``import repro``
# alone imports nothing else, and a simulated run never loads the
# analytical model or the live runtime it does not use.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".analysis": ("predict_gap as analytical_compare",),
        ".config": (
            "ArrivalProcess",
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
            "MonolithicOptimizations",
            "NetworkConfig",
            "PartitionEvent",
            "ReliableBroadcastVariant",
            "RunConfig",
            "StackConfig",
            "StackKind",
            "WorkloadConfig",
            "WrongSuspicion",
            "modular_stack",
            "monolithic_stack",
        ),
        ".errors": (
            "ConfigurationError",
            "OrderingViolation",
            "ProtocolError",
            "ReproError",
            "SimulationError",
        ),
        ".experiments.runner": ("RunResult", "Simulation", "run_simulation"),
        ".metrics.ordering": ("OrderingChecker",),
        ".types": ("AppMessage", "Batch", "MessageId"),
    },
)
__all__ += ["__version__"]
