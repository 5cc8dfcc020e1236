"""The nemesis swarm: randomized fault schedules swept across stacks.

One *case* is (stack, seed, n, failure detector, faultload schedule).
The swarm generates the schedule and the detector choice from the seed
via named RNG streams, runs the case under the online
:class:`~repro.nemesis.invariants.InvariantMonitor`, and — when a case
fails — shrinks its schedule to a 1-minimal counterexample
(:mod:`~repro.nemesis.shrink`) and packages it as a JSON file plus the
one command that replays it.

Because the whole simulator is deterministic in (config, seed), a case
is its own repro: re-running the same case dict reproduces the same
execution bit for bit, held messages, suspicions and all.

Import this module explicitly (``repro.nemesis.swarm``); the package
``__init__`` stays clear of it to keep the import edge
``experiments.runner -> nemesis.steps`` one-directional.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.config import (
    STACK_REGISTRY,
    FailureDetectorConfig,
    FailureDetectorKind,
    FaultloadConfig,
    RunConfig,
    StackConfig,
    StackKind,
    WorkloadConfig,
    plain,
    read_fields,
)
from repro.errors import ConfigurationError, ReproError, StationarityWarning
from repro.experiments.parallel import run_tasks
from repro.experiments.runner import Simulation
from repro.nemesis.broken import broken_stack_factory
from repro.nemesis.invariants import (
    DEFAULT_LIVENESS_BOUND,
    InvariantMonitor,
    Violation,
)
from repro.nemesis.schedule import (
    generate_faultload,
    read_json,
    write_json,
)
from repro.nemesis.shrink import shrink_faultload
from repro.nemesis.steps import compile_faultload, last_disruption_time
from repro.sim.rng import RngRegistry

#: Run shape of every nemesis case. Short on purpose: a sweep runs
#: hundreds of cases, and the generator window (0.25 s – 1.0 s) is when
#: faults land, so little happens after ~1.2 s but recovery.
NEMESIS_WARMUP = 0.2
NEMESIS_DURATION = 1.0

#: Light workload so fault handling, not queueing, dominates the run.
NEMESIS_LOAD = 120.0
NEMESIS_MESSAGE_SIZE = 128

#: Fraction of cases that use the heartbeat detector instead of the
#: oracle — real FD traffic reacts to partitions and delay spikes, which
#: the omniscient oracle never does.
HEARTBEAT_FRACTION = 0.35


@dataclass(frozen=True, slots=True)
class StackSpec:
    """One sweepable stack: its config plus nemesis-specific caveats."""

    label: str
    config: StackConfig
    #: Restrict generated schedules to delay spikes only (the sequencer
    #: is good-run-only by design: no tolerance for crashes/suspicions).
    benign_only: bool = False
    #: Optional :func:`~repro.abcast.factory.build_stack` replacement;
    #: the ``broken`` fixture injects its bug through this.
    factory: Callable | None = None


#: Stacks whose generated schedules are restricted to delay spikes: the
#: sequencer family is good-run-only by design (no tolerance for
#: crashes or suspicions), with or without a batching layer on top.
BENIGN_ONLY_LABELS = frozenset({"sequencer", "batched-sequencer"})

#: Every stack the swarm knows how to drive — one row per registered
#: stack label (see :data:`repro.config.STACK_REGISTRY`, so a newly
#: registered stack joins the swarm automatically), plus the ``broken``
#: test fixture with a seeded total-order bug; the fixture is never part
#: of the default sweep (see repro.nemesis.broken).
STACKS: dict[str, StackSpec] = {
    label: StackSpec(label, config, benign_only=label in BENIGN_ONLY_LABELS)
    for label, config in STACK_REGISTRY.items()
}
STACKS["broken"] = StackSpec(
    "broken", StackConfig(kind=StackKind.MONOLITHIC), factory=broken_stack_factory
)

#: The fault-tolerant stacks every sweep covers by default (everything
#: registered except the benign-only sequencer family and the fixture).
DEFAULT_STACKS = tuple(
    label
    for label, spec in STACKS.items()
    if not spec.benign_only and spec.factory is None
)


#: ``NemesisCase.fd`` → the failure detector the case runs under.
CASE_DETECTORS = {
    "oracle": FailureDetectorConfig(kind=FailureDetectorKind.ORACLE),
    "heartbeat": FailureDetectorConfig(kind=FailureDetectorKind.HEARTBEAT),
}


@dataclass(frozen=True, slots=True)
class NemesisCase:
    """One fully determined adversarial run (its own repro recipe)."""

    stack: str
    seed: int
    n: int
    #: A key of :data:`CASE_DETECTORS`.
    fd: str = "oracle"
    faultload: FaultloadConfig = field(default_factory=FaultloadConfig)

    def __post_init__(self) -> None:
        if self.fd not in CASE_DETECTORS:
            raise ConfigurationError(
                f"NemesisCase.fd must be one of {', '.join(CASE_DETECTORS)}: "
                f"{self.fd!r}"
            )

    def describe(self) -> str:
        events = self.faultload.events()
        return (
            f"{self.stack} seed={self.seed} n={self.n} fd={self.fd} "
            f"({len(events)} fault event(s))"
        )


@dataclass(frozen=True, slots=True)
class CaseResult:
    """Outcome of one nemesis case."""

    case: NemesisCase
    violations: tuple[Violation, ...]
    deliveries: int
    events_executed: int

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True, slots=True)
class Counterexample:
    """A failing case together with its shrunk, replayable core."""

    original: CaseResult
    minimal: CaseResult

    @property
    def dropped_events(self) -> int:
        return len(self.original.case.faultload.events()) - len(
            self.minimal.case.faultload.events()
        )


@dataclass(slots=True)
class SwarmReport:
    """Everything a sweep produced."""

    results: list[CaseResult] = field(default_factory=list)
    counterexamples: list[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def cases_run(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> list[CaseResult]:
        return [result for result in self.results if not result.passed]

    def summary(self) -> str:
        deliveries = sum(result.deliveries for result in self.results)
        lines = [
            f"nemesis: {self.cases_run} case(s), "
            f"{len(self.failures)} failing, {deliveries} deliveries checked"
        ]
        for ce in self.counterexamples:
            case = ce.minimal.case
            worst = ce.minimal.violations[0]
            lines.append(
                f"  FAIL {case.describe()} -> {worst} "
                f"[shrunk away {ce.dropped_events} event(s)]"
            )
        return "\n".join(lines)


# -- case construction ------------------------------------------------------


def generate_case(stack: str, seed: int, n: int = 3) -> NemesisCase:
    """Derive the case for (stack, seed, n) — pure function of its args.

    The schedule and the detector choice come from a named RNG stream
    keyed by the stack label, so different stacks see *different*
    schedules for the same seed (more coverage per sweep) while any
    (stack, seed) pair regenerates identically forever.
    """
    spec = _spec(stack)
    rng = RngRegistry(seed).stream(f"nemesis.schedule.{stack}")
    faultload = generate_faultload(rng, n, benign_only=spec.benign_only)
    fd = "heartbeat" if rng.random() < HEARTBEAT_FRACTION else "oracle"
    return NemesisCase(stack=stack, seed=seed, n=n, fd=fd, faultload=faultload)


def build_config(case: NemesisCase) -> RunConfig:
    """The :class:`~repro.config.RunConfig` a case runs under."""
    return RunConfig(
        n=case.n,
        stack=_spec(case.stack).config,
        workload=WorkloadConfig(
            offered_load=NEMESIS_LOAD, message_size=NEMESIS_MESSAGE_SIZE
        ),
        failure_detector=CASE_DETECTORS[case.fd],
        faultload=case.faultload,
        warmup=NEMESIS_WARMUP,
        duration=NEMESIS_DURATION,
    )


def _spec(stack: str) -> StackSpec:
    try:
        return STACKS[stack]
    except KeyError:
        raise ConfigurationError(
            f"unknown nemesis stack {stack!r}; choose from {', '.join(STACKS)}"
        ) from None


def _drain_for(config: RunConfig, liveness_bound: float) -> float:
    """Simulated drain long enough for two post-heal watchdog checks."""
    steps = compile_faultload(config.faultload)
    quiet = max(last_disruption_time(steps), config.warmup)
    horizon = quiet + 2.0 * liveness_bound + 0.2
    return max(0.5, horizon - config.total_time)


# -- execution --------------------------------------------------------------


def run_case(
    case: NemesisCase, *, liveness_bound: float = DEFAULT_LIVENESS_BOUND
) -> CaseResult:
    """Run one case to completion under the invariant monitor.

    A :class:`~repro.errors.ReproError` escaping the simulation (e.g. a
    ``ProtocolError`` from a confused stack) is converted into an
    ``exception`` violation rather than propagated: to the swarm, a
    crash of the system under test is just another way to fail.
    """
    spec = _spec(case.stack)
    config = build_config(case)
    simulation = Simulation(config, seed=case.seed, stack_factory=spec.factory)
    monitor = InvariantMonitor(case.n, liveness_bound=liveness_bound)
    monitor.attach(simulation)
    with warnings.catch_warnings():
        # Faulty runs are rarely stationary; that is not a finding.
        warnings.simplefilter("ignore", StationarityWarning)
        try:
            simulation.run(drain=_drain_for(config, liveness_bound))
        except ReproError as exc:
            monitor.violations.append(
                Violation(
                    invariant="exception",
                    time=simulation.kernel.now,
                    description=f"{type(exc).__name__}: {exc}",
                    trace_slice=monitor.trace_slice,
                )
            )
    violations = monitor.finalize()
    return CaseResult(
        case=case,
        violations=tuple(violations),
        deliveries=monitor.delivery_count,
        events_executed=simulation.kernel.events_executed,
    )


def _case_task(task: tuple[NemesisCase, float]) -> CaseResult:
    """Picklable per-case worker for :func:`run_cases`."""
    case, liveness_bound = task
    return run_case(case, liveness_bound=liveness_bound)


def run_cases(
    cases: Sequence[NemesisCase],
    *,
    liveness_bound: float = DEFAULT_LIVENESS_BOUND,
    jobs: int = 1,
    progress: Callable[[CaseResult], None] | None = None,
) -> list[CaseResult]:
    """Run a batch of cases, fanning out over *jobs* worker processes.

    Results come back in case order regardless of *jobs* (cases are pure
    functions of their fields, and the parallel map merges by submission
    index), so a sweep report is identical for any job count.
    """
    tasks = [(case, liveness_bound) for case in cases]
    results = run_tasks(_case_task, tasks, jobs=jobs)
    if progress is not None:
        for result in results:
            progress(result)
    return results


def shrink_case(
    failing: NemesisCase, *, liveness_bound: float = DEFAULT_LIVENESS_BOUND
) -> CaseResult:
    """Shrink a failing case's schedule and return the minimal failure.

    If shrinking removes every removable event the original case is
    returned re-run; the result is always a *failing* CaseResult.
    """

    def still_fails(faultload: FaultloadConfig) -> bool:
        candidate = replace(failing, faultload=faultload)
        return not run_case(candidate, liveness_bound=liveness_bound).passed

    minimal_faultload = shrink_faultload(failing.faultload, still_fails)
    minimal = replace(failing, faultload=minimal_faultload)
    return run_case(minimal, liveness_bound=liveness_bound)


def sweep_cases(
    cases: Sequence[NemesisCase],
    *,
    shrink: bool = True,
    liveness_bound: float = DEFAULT_LIVENESS_BOUND,
    jobs: int = 1,
    progress: Callable[[CaseResult], None] | None = None,
) -> SwarmReport:
    """Run prepared *cases*; shrink any failures afterwards.

    Cases fan out over *jobs* worker processes; shrinking stays serial
    (it is a sequential search, and failures are the rare case).
    """
    report = SwarmReport()
    results = run_cases(
        cases, liveness_bound=liveness_bound, jobs=jobs, progress=progress
    )
    report.results.extend(results)
    for result in results:
        if not result.passed:
            minimal = (
                shrink_case(result.case, liveness_bound=liveness_bound)
                if shrink
                else result
            )
            report.counterexamples.append(
                Counterexample(original=result, minimal=minimal)
            )
    return report


def sweep(
    seeds: Iterable[int],
    stacks: Sequence[str] = DEFAULT_STACKS,
    n: int = 3,
    **options: Any,
) -> SwarmReport:
    """:func:`sweep_cases` over the generated case of every (seed, stack)."""
    return sweep_cases(
        [generate_case(stack, seed, n) for seed in seeds for stack in stacks],
        **options,
    )


# -- replay / persistence ---------------------------------------------------


def case_to_dict(case: NemesisCase) -> dict[str, Any]:
    """Plain-dict form of a case, suitable for ``json.dump``."""
    return plain(case)


def case_from_dict(data: dict[str, Any]) -> NemesisCase:
    """Inverse of :func:`case_to_dict`, read off :class:`NemesisCase`'s fields.

    A missing ``fd`` or ``faultload`` takes the dataclass default; schema
    violations raise :class:`~repro.errors.ConfigurationError` naming the
    offending field — these dicts come from user-supplied ``--replay``
    files.
    """
    return read_fields(NemesisCase, data)


def save_case(case: NemesisCase, path: str | Path) -> None:
    """Write a case to a JSON file a ``--replay`` can consume."""
    write_json(case_to_dict(case), path)


def load_case(path: str | Path) -> NemesisCase:
    """Read a case back from :func:`save_case` output.

    Raises:
        ConfigurationError: The file is not valid JSON or does not match
            the case schema; the message names the problem.
    """
    return case_from_dict(read_json(path))


def repro_command(path: str | Path) -> str:
    """The one command that replays a saved counterexample."""
    return f"python -m repro nemesis --replay {path}"
