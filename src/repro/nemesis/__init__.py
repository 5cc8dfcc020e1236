"""Adversarial testing for the atomic broadcast stacks.

The nemesis subsystem has three layers:

1. **Faultload schedules** (:mod:`~repro.nemesis.schedule`) — named
   scenarios, seeded random generation and a JSON round-trip for the
   declarative :class:`~repro.config.FaultloadConfig` DSL.
   :mod:`~repro.nemesis.steps` compiles a faultload, once, into the
   timed steps that the simulator, the invariant monitor and the live
   runner all execute.
2. **Online invariants** (:mod:`~repro.nemesis.invariants`) — the four
   atomic-broadcast properties checked as every delivery happens, plus
   a liveness watchdog.
3. **The swarm** (:mod:`~repro.nemesis.swarm`,
   :mod:`~repro.nemesis.shrink`) — sweeps randomized schedules across
   stacks and shrinks any failure to a minimal, replayable
   counterexample.

This ``__init__`` exports only the data/compile layers. The swarm
imports :mod:`repro.experiments.runner`, which itself imports the
compile layer — import :mod:`repro.nemesis.swarm` explicitly to keep
that edge one-directional.
"""

from repro._lazy import lazy_exports

# A name loads its submodule on first use: the simulator imports the
# compile layer (``steps``) for every run, the rest only when used.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".invariants": ("InvariantMonitor", "Violation"),
        ".steps": ("install_link_faults",),
        ".schedule": (
            "SCENARIOS",
            "dump_faultload",
            "faultload_from_dict",
            "faultload_to_dict",
            "generate_faultload",
            "load_faultload",
            "named_scenario",
            "resolve_faultload",
        ),
    },
)
