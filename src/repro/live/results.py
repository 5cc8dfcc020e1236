"""One result schema for simulated and live runs.

The simulator returns a :class:`~repro.experiments.runner.RunResult`;
the live orchestrator measures the same quantities and builds one too,
for the :class:`~repro.config.RunConfig` its
:class:`~repro.config.LiveSpec` maps to. Both reduce to the same plain
dictionary here, the live one tagged ``"mode": "live"``, so downstream
tooling — JSON output, the sim-vs-live comparison report — never
branches on where a number came from:

``mode``
    ``"sim"`` or ``"live"``.
``config``
    The run's knobs: ``n``, ``stack``, ``load``, ``message_size``,
    ``duration``, ``warmup``.
``metrics``
    A :class:`~repro.metrics.collector.RunMetrics` as a dict.
``network``
    Counters over the measurement window. Both modes report
    ``messages_sent`` / ``bytes_sent`` / ``payload_bytes_sent``; each
    mode may add counters only it can know (the simulator's queueing
    stats, the transport's ``reconnects``).
``cpu_utilization``
    Per-process busy fraction over the window — modelled CPU cost in
    the simulator, OS-reported process time live.
``instances_decided`` / ``events_executed``
    Consensus instances decided in the window; kernel events executed
    (diagnostics; always 0 live, where there is no kernel).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.runner import RunResult

#: The stack label used for a modular stack with indirect consensus.
_INDIRECT_LABEL = "indirect"


def sim_result_to_dict(result: "RunResult") -> dict:
    """Reduce a simulator :class:`RunResult` to the shared schema."""
    from repro.config import ConsensusVariant, StackKind

    stack = result.config.stack
    if stack.kind is StackKind.MODULAR and stack.consensus is ConsensusVariant.INDIRECT:
        label = _INDIRECT_LABEL
    else:
        label = stack.kind.value
    return {
        "mode": "sim",
        "config": {
            "n": result.config.n,
            "stack": label,
            "load": result.config.workload.offered_load,
            "message_size": result.config.workload.message_size,
            "duration": result.config.duration,
            "warmup": result.config.warmup,
        },
        "seed": result.seed,
        "metrics": asdict(result.metrics),
        "network": dict(result.network),
        "cpu_utilization": list(result.cpu_utilization),
        "instances_decided": result.instances_decided,
        "events_executed": result.events_executed,
    }
