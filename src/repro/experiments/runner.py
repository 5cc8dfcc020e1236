"""Assembles and runs one simulated execution of either stack.

:class:`Simulation` wires together the whole system for a
:class:`~repro.config.RunConfig`: kernel, network, one protocol stack +
failure detector + flow-controlled sender per process, the metrics
collector and the faultload. :func:`run_simulation` is the one-call
convenience used by the benchmarks; examples and tests instantiate
:class:`Simulation` directly when they need to inject their own traffic
or faults.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.abcast.factory import build_process, build_stack
from repro.config import FailureDetectorKind, RunConfig
from repro.errors import ConfigurationError, StationarityWarning
from repro.fd.base import FailureDetector
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.fd.oracle import OracleFailureDetector
from repro.flowcontrol.window import BacklogWindow
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.nemesis.steps import compile_faultload, install_link_faults
from repro.net.faults import FaultInjector
from repro.net.network import Network
from repro.net.stats import NetworkStats
from repro.obs.attribution import EMPTY_ATTRIBUTION, LayerAttribution, delta_layers
from repro.sim.kernel import Kernel
from repro.sim.tracing import TraceRecorder
from repro.stack.runtime import AdeliverListener, ProcessRuntime
from repro.types import AppMessage, SimTime
from repro.workload.generator import ArrivalSchedule, FlowControlledSender

if TYPE_CHECKING:  # pragma: no cover - loaded with a configured population
    from repro.workload.population import ClientPopulation

#: Simulated seconds the kernel keeps running after the measurement
#: window closes, so in-flight messages finish delivering.
DEFAULT_DRAIN = 0.3


@dataclass(frozen=True, slots=True)
class RunResult:
    """Everything measured in one simulation run."""

    config: RunConfig
    seed: int
    metrics: RunMetrics
    #: Network counters accumulated during the measurement window.
    network: dict
    #: Per-process CPU utilization over the measurement window.
    cpu_utilization: tuple[float, ...]
    #: Consensus instances decided during the measurement window.
    instances_decided: int
    #: Kernel events executed over the whole run (diagnostics).
    events_executed: int

    @property
    def latency_p50(self) -> float:
        """Median delivery latency over the measurement window."""
        return self.metrics.latency_p50

    @property
    def latency_p99(self) -> float:
        """99th-percentile delivery latency over the measurement window
        (the tail a batching layer trades against throughput)."""
        return self.metrics.latency_p99

    @property
    def messages_per_consensus(self) -> float | None:
        """Mean network messages per consensus in the window (§5.2.1)."""
        if self.instances_decided == 0:
            return None
        return self.network["messages_sent"] / self.instances_decided

    @property
    def payload_bytes_per_consensus(self) -> float | None:
        """Mean payload bytes per consensus in the window (§5.2.2)."""
        if self.instances_decided == 0:
            return None
        return self.network["payload_bytes_sent"] / self.instances_decided

    @property
    def delivered_per_consensus(self) -> float | None:
        """Measured M: messages adelivered per consensus execution."""
        if self.instances_decided == 0:
            return None
        window = self.config.duration
        return self.metrics.throughput * window / self.instances_decided


class Simulation:
    """One fully wired simulated group, ready to run."""

    def __init__(
        self,
        config: RunConfig,
        seed: int = 1,
        *,
        trace: TraceRecorder | None = None,
        with_workload: bool = True,
        stack_factory: Callable | None = None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.kernel = Kernel(seed=seed)
        self.trace = trace
        self.stats = NetworkStats()
        self.faults = FaultInjector()
        #: Optional override of :func:`~repro.abcast.factory.build_stack`
        #: with the same signature; the nemesis swarm uses it to inject
        #: deliberately-broken stacks as test fixtures.
        self._stack_factory = stack_factory if stack_factory is not None else build_stack
        #: The faultload as timed steps; link faults (partitions, loss,
        #: delay) filter messages from the first transmit on, so they are
        #: installed before any process is built.
        self.fault_steps = compile_faultload(config.faultload)
        install_link_faults(self.faults, self.fault_steps, self.kernel)
        self.network = Network(
            self.kernel,
            config.n,
            config.network,
            stats=self.stats,
            faults=self.faults,
            trace=trace,
        )
        self.metrics = MetricsCollector(
            config.n,
            window_start=config.warmup,
            window_end=config.total_time,
        )
        self._extra_listeners: list[AdeliverListener] = []
        self._accept_listeners: list[Callable[[AppMessage], None]] = []

        self.runtimes: list[ProcessRuntime] = []
        self.detectors: list[FailureDetector] = []
        for pid in range(config.n):
            runtime = self._build_process(pid)
            self.runtimes.append(runtime)

        #: Lazy client-population model, when one is configured.
        self.population: ClientPopulation | None = None
        if with_workload and config.workload.population is not None:
            from repro.workload.population import ClientPopulation

            self.population = ClientPopulation(
                config.workload.population, config.n, self.kernel.rng.stream
            )

        self.senders: list[FlowControlledSender] = []
        self.schedules: list[ArrivalSchedule] = []
        for pid in range(config.n):
            sender = FlowControlledSender(
                self.runtimes[pid],
                BacklogWindow(config.flow_control.window),
                config.workload.message_size,
                on_accept=self._on_accept,
                on_offer=self.metrics.on_offered,
            )
            self.senders.append(sender)
            if with_workload:
                self.schedules.append(
                    ArrivalSchedule(
                        self.kernel,
                        sender,
                        config.workload,
                        config.n,
                        stop_at=config.total_time,
                        rng_name=f"workload.p{pid}",
                        on_arrival=self.population.arrival_hook(pid)
                        if self.population is not None
                        else None,
                    )
                )

        #: Captured at the warm-up boundary / window end by callbacks.
        self._instances_at_warmup = 0
        self._instances_at_end = 0
        self._cpu_busy_at_warmup = [0.0] * config.n
        self._window_network: dict = {}
        self._cpu_utilization: tuple[float, ...] = ()
        self._layers_at_warmup: list[dict[str, float]] = [
            {} for __ in range(config.n)
        ]
        self._boundary_at_warmup: list[tuple[float, int]] = [
            (0.0, 0)
        ] * config.n
        self._attribution = EMPTY_ATTRIBUTION
        self._started = False

    # -- wiring -----------------------------------------------------------

    def _build_process(self, pid: int) -> ProcessRuntime:
        config = self.config

        def make_runtime(modules: list) -> ProcessRuntime:
            return ProcessRuntime(
                pid,
                modules,
                kernel=self.kernel,
                network=self.network,
                costs=config.cpu_costs,
                net_config=config.network,
                trace=self.trace,
            )

        runtime = build_process(
            config.stack,
            pid,
            config.n,
            make_runtime,
            max_batch=config.flow_control.max_batch,
            stack_factory=self._stack_factory,
        )
        assert isinstance(runtime, ProcessRuntime)
        runtime.attach_failure_detector(self._build_detector())
        runtime.set_adeliver_listener(self._on_adeliver)
        return runtime

    def _build_detector(self) -> FailureDetector:
        fd_config = self.config.failure_detector
        if fd_config.kind is FailureDetectorKind.ORACLE:
            detector: FailureDetector = OracleFailureDetector(
                fd_config.detection_delay
            )
        elif fd_config.kind is FailureDetectorKind.HEARTBEAT:
            detector = HeartbeatFailureDetector(
                fd_config.heartbeat_interval, fd_config.timeout
            )
        elif fd_config.kind is FailureDetectorKind.SCRIPTED:
            detector = FailureDetector()
        else:  # pragma: no cover - enum is exhaustive
            raise ConfigurationError(f"unknown FD kind {fd_config.kind!r}")
        self.detectors.append(detector)
        return detector

    # -- listeners ----------------------------------------------------------

    def add_adeliver_listener(self, listener: AdeliverListener) -> None:
        """Observe every adelivery (e.g. an :class:`OrderingChecker`)."""
        self._extra_listeners.append(listener)

    def add_accept_listener(self, listener: Callable[[AppMessage], None]) -> None:
        """Observe every message accepted into a stack."""
        self._accept_listeners.append(listener)

    def _on_accept(self, message: AppMessage) -> None:
        self.metrics.on_accept(message)
        for listener in self._accept_listeners:
            listener(message)

    def _on_adeliver(self, pid: int, message: AppMessage, time: SimTime) -> None:
        self.metrics.on_adeliver(pid, message, time)
        if message.msg_id.sender == pid:
            # Release the flow-control slot at the modelled delivery
            # completion time, not when the handler chain runs: a stack
            # that adelivers its own message within the abcast chain
            # (e.g. the sequencer at the sequencer process) must still
            # wait out its CPU backlog before reusing the slot.
            # The release is never cancelled and never in the past, so
            # it needs no handle and no check.
            self.kernel.post(
                max(self.kernel.now, time),
                partial(self.senders[pid].on_own_delivery, message),
            )
        for listener in self._extra_listeners:
            listener(pid, message, time)

    # -- fault injection ------------------------------------------------------

    def crash(self, pid: int) -> None:
        """Crash process *pid* now and inform the oracle detectors."""
        self.runtimes[pid].crash()
        for runtime, detector in zip(self.runtimes, self.detectors):
            if runtime.alive and isinstance(detector, OracleFailureDetector):
                detector.observe_crash(pid)

    def _schedule_faultload(self) -> None:
        """Schedule the crash and wrong-suspicion steps (the link steps
        are the filters installed at construction)."""
        for step in self.fault_steps:
            if step.kind == "crash":
                action = partial(self.crash, step.process)
            elif step.kind == "suspect":
                action = partial(self._suspect, step.process, step.suspect)
            elif step.kind == "retract":
                action = partial(self._retract, step.process, step.suspect)
            else:
                continue
            self.kernel.schedule_at(step.at, action)

    def _suspect(self, observer: int, suspect: int) -> None:
        """Make a live *observer* suspect *suspect*, who may be alive.

        ◇S permits detectors to be wrong for arbitrary finite periods;
        a heartbeat detector may retract earlier on its own when the
        suspect is next heard from, which is correct ◇S behaviour too.
        """
        if self.runtimes[observer].alive:
            self.detectors[observer].force_suspect(suspect)

    def _retract(self, observer: int, suspect: int) -> None:
        """End *observer*'s suspicion unless *suspect* really crashed:
        un-suspecting a dead coordinator would stall liveness."""
        if self.runtimes[observer].alive and not self.faults.is_crashed(suspect):
            self.detectors[observer].retract_suspicion(suspect)

    # -- measurement boundaries ------------------------------------------------

    def _decided_instances(self) -> int:
        return max(runtime.modules[0].next_instance for runtime in self.runtimes)

    def _at_warmup_end(self) -> None:
        self.stats.reset()
        self._instances_at_warmup = self._decided_instances()
        self._cpu_busy_at_warmup = [rt.cpu.busy_time for rt in self.runtimes]
        self._layers_at_warmup = [dict(rt.layer_busy) for rt in self.runtimes]
        self._boundary_at_warmup = [
            (rt.boundary_busy, rt.boundary_crossings) for rt in self.runtimes
        ]

    def _at_window_end(self) -> None:
        self._window_network = self.stats.snapshot()
        self._instances_at_end = self._decided_instances()
        duration = self.config.duration
        self._cpu_utilization = tuple(
            min(1.0, (rt.cpu.busy_time - busy0) / duration)
            for rt, busy0 in zip(self.runtimes, self._cpu_busy_at_warmup)
        )
        layers: dict[str, float] = {}
        boundary_time = 0.0
        crossings = 0
        for runtime, layers0, (busy0, crossings0) in zip(
            self.runtimes, self._layers_at_warmup, self._boundary_at_warmup
        ):
            for name, seconds in delta_layers(
                runtime.layer_busy, layers0
            ).items():
                layers[name] = layers.get(name, 0.0) + seconds
            boundary_time += runtime.boundary_busy - busy0
            crossings += runtime.boundary_crossings - crossings0
        self._attribution = LayerAttribution.from_totals(
            layers, boundary_time, crossings
        )

    # -- execution ----------------------------------------------------------------

    def start(self) -> None:
        """Start all stacks, workload schedules and the faultload."""
        if self._started:
            return
        self._started = True
        for runtime in self.runtimes:
            runtime.start()
        for schedule in self.schedules:
            schedule.start()
        self._schedule_faultload()
        self.kernel.schedule_at(self.config.warmup, self._at_warmup_end)
        self.kernel.schedule_at(self.config.total_time, self._at_window_end)

    def run(self, drain: SimTime = DEFAULT_DRAIN) -> RunResult:
        """Run to completion and reduce the measurements.

        Emits a :class:`~repro.errors.StationarityWarning` when the
        latency series drifts across the measurement window (the paper
        verifies "that the latencies of all processes stabilize over
        time"; a drifting run usually needs a longer warm-up).
        """
        self.start()
        self.kernel.run(until=self.config.total_time + drain)
        for schedule in self.schedules:
            schedule.finalize()
        blocked = sum(sender.window.total_blocked for sender in self.senders)
        metrics = self.metrics.finalize(
            blocked_attempts=blocked,
            active_clients=self.population.active_clients
            if self.population is not None
            else 0,
            attribution=self._attribution,
        )
        if not metrics.stationary:
            warnings.warn(
                f"run (n={self.config.n}, {self.config.stack.kind.value}, "
                f"load={self.config.workload.offered_load:g}) did not reach a "
                "stationary state; consider a longer warmup",
                StationarityWarning,
                stacklevel=2,
            )
        return RunResult(
            config=self.config,
            seed=self.seed,
            metrics=metrics,
            network=self._window_network,
            cpu_utilization=self._cpu_utilization,
            instances_decided=self._instances_at_end - self._instances_at_warmup,
            events_executed=self.kernel.events_executed,
        )


def run_simulation(
    config: RunConfig,
    seed: int = 1,
    *,
    trace: TraceRecorder | None = None,
    drain: SimTime = DEFAULT_DRAIN,
) -> RunResult:
    """Build, run and reduce one simulation in a single call."""
    return Simulation(config, seed, trace=trace).run(drain=drain)
