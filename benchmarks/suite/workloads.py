"""The four workloads, at the size one repetition runs them.

Names are fixed: ``BENCHMARK.json``, the result files and later issues
cite them; the reason each one exists is its ``why`` in
``BENCHMARK.json`` and the table in the README. Sizes were chosen on a
2-core sandbox so that a repetition of a simulated workload costs about 1.5 s
of CPU and a 25 s run fits eight or nine of them. ``scale`` shrinks the
durations and exists for ``--smoke`` only: every reported number is
taken at ``scale=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
from repro.live.deploy import LiveSpec


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``build(scale)``: a RunConfig for the simulator or, for a live
    #: workload, a LiveSpec.
    build: Callable[[float], RunConfig | LiveSpec]
    #: Repetitions a run never goes below, whatever ``--seconds`` says.
    min_reps: int
    #: Deploys real worker processes instead of running the simulator.
    live: bool = False
    #: The crash makes the latency series drift by design, so the
    #: simulator's StationarityWarning is expected and silenced.
    stationary: bool = True


def _saturated(scale: float) -> RunConfig:
    return RunConfig(
        n=3,
        stack=StackConfig(kind=StackKind.MODULAR),
        workload=WorkloadConfig(offered_load=7000.0, message_size=16384),
        duration=22.0 * scale,
    )


def _small(scale: float) -> RunConfig:
    return RunConfig(
        n=3,
        stack=StackConfig(kind=StackKind.MONOLITHIC),
        workload=WorkloadConfig(offered_load=2000.0, message_size=64),
        duration=12.0 * scale,
    )


def _crash(scale: float) -> RunConfig:
    duration = 18.0 * scale
    return RunConfig(
        n=7,
        stack=StackConfig(kind=StackKind.MODULAR),
        workload=WorkloadConfig(
            offered_load=2000.0,
            message_size=16384,
            arrival=ArrivalProcess.POISSON,
        ),
        failure_detector=FailureDetectorConfig(kind=FailureDetectorKind.HEARTBEAT),
        # The first coordinator dies a third of the way in: the rest of
        # the run is on the round-change path.
        faultload=FaultloadConfig(
            crashes=(CrashEvent(process=0, time=duration / 3),)
        ),
        duration=duration,
    )


def _live(scale: float) -> LiveSpec:
    return LiveSpec(
        n=3,
        stack="modular",
        # Open loop paced at about a third of the group's capacity on the
        # sandbox: what is measured is what an abcast costs, not how many
        # fit (see SATURATED_LOAD).
        load=1000.0,
        size=1024,
        duration=4.0 * scale,
        warmup=min(1.0, 6.0 * scale),
        window=3,
        max_batch=4,
        fd="heartbeat",
    )


#: Offered load far above capacity: every process's window of 3 stays
#: full, which closes the loop with 9 abcasts in flight. Saturation
#: throughput swings by a quarter with the host's mood on a shared 2-core
#: VM, so it is a per-layer diagnostic, not an end-to-end metric.
SATURATED_LOAD = 20000.0

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sim_modular_n3_saturated", _saturated, min_reps=5),
        Workload("sim_monolithic_n3_small", _small, min_reps=5),
        Workload("sim_modular_n7_crash", _crash, min_reps=5, stationary=False),
        Workload("live_modular_n3", _live, min_reps=3, live=True),
    )
}
