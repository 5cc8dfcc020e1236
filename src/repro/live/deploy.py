"""Live deployment: what one is, and what its measurement reduces to.

:func:`run_live` is the live counterpart of
:func:`~repro.experiments.runner.run_simulation`: it takes a
:class:`LiveSpec`, brings up ``n`` worker OS processes (each a
:mod:`repro.live.worker` hosting one unchanged protocol stack over TCP),
drives them through one measurement window and reduces their samples to
the same schema as the simulator's ``RunResult`` (see
:mod:`repro.live.results`).

Sequence:

1. reserve one data port per worker plus a control port (all on
   ``spec.host``, normally localhost);
2. spawn the workers with their spec as a JSON argv; each connects back
   to the control server and says ``ready`` once its listener is up;
3. when all are ready, broadcast ``start`` carrying a single
   ``time.monotonic()`` reading — the shared epoch that makes
   cross-process timestamps comparable (``CLOCK_MONOTONIC`` is
   system-wide on Linux, and the paper's testbed likewise relies on a
   common time base for the early-latency measurement);
4. workers stream ``samples`` batches (accepts, deliveries, offered
   counts) while the orchestrator just buffers them;
5. after warm-up + duration + drain, broadcast ``stop``; every worker
   answers with a ``done`` document of final counters and exits;
6. feed the buffered samples through the *same*
   :class:`~repro.metrics.collector.MetricsCollector` the simulator
   uses, and assemble the result dict.

The spec and each of those documents is a dataclass declared below,
with the one writer (:func:`control_frame`) and reader
(:func:`control_documents`) of the documents for both ends of the
channel, and the reduction of step 6. A link fault directive names one
:class:`LinkVerb` and switches it on or off. The steps that run a
deployment — the control server, the worker processes and their watch — are
:mod:`repro.live.orchestrator`, the one module of this pair that needs
asyncio; :func:`run_live` imports it when called.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, AsyncIterator

# The spec, its detectors, drain and simulator mapping live beside
# RunConfig; they are re-exported here, where the live API has always
# offered them.
from repro.config import (  # noqa: F401
    DEFAULT_DRAIN,
    LIVE_DETECTORS,
    LiveSpec,
    matched_run_config,
    plain,
    read_fields,
)
from repro.errors import ConfigurationError
from repro.experiments.runner import RunResult
from repro.live.framing import FrameDecoder, encode_frame
from repro.live.results import sim_result_to_dict
from repro.metrics.collector import MetricsCollector
from repro.metrics.ordering import OrderingChecker
from repro.obs.attribution import LayerAttribution
from repro.obs.telemetry import summarize_telemetry
from repro.types import AppMessage, MessageId

if TYPE_CHECKING:  # pragma: no cover - the orchestrator imports this module
    from asyncio import StreamReader

    from repro.live.orchestrator import _ControlServer


@dataclass(frozen=True, slots=True)
class WorkerSpec:
    """A worker's ``argv[1]``: the deployment, the worker's place in it,
    its write-ahead log (if any) and whether it is a restarted
    incarnation, which reloads that log and rejoins before taking load."""

    spec: LiveSpec
    pid: int
    addresses: dict[int, tuple[str, int]]
    control: tuple[str, int]
    wal: str | None
    recover: bool


@dataclass(frozen=True, slots=True)
class Ready:
    """Worker → orchestrator: the data-plane listener is up."""

    pid: int


@dataclass(frozen=True, slots=True)
class Start:
    """Orchestrator → worker: the shared time origin (``time.monotonic()``)."""

    epoch: float


class LinkVerb(enum.Enum):
    """What a link fault does to frames towards its peers while it is on:
    the verbs of :class:`~repro.nemesis.steps.LinkFault` that run live."""

    HOLD = "hold"
    DROP = "drop"
    DELAY = "delay"


@dataclass(frozen=True, slots=True)
class Fault:
    """Orchestrator → worker: switch the link fault *verb* on or off
    towards *peers*; under ``delay`` a link waits ``extra`` plus up to
    ``jitter`` seconds, then writes every frame queued meanwhile at once."""

    verb: LinkVerb
    on: bool
    peers: tuple[int, ...]
    extra: float = 0.0
    jitter: float = 0.0


@dataclass(frozen=True, slots=True)
class Samples:
    """Worker → orchestrator, every ~250 ms: ``(sender, seq, size, abcast
    time)`` of each accept, ``(sender, seq, time)`` of each adelivery and
    the arrivals offered since the previous batch."""

    pid: int
    accepts: list[tuple[int, int, int, float]]
    delivers: list[tuple[int, int, float]]
    offered: int


@dataclass(frozen=True, slots=True)
class Telemetry:
    """Worker → orchestrator, every ~250 ms: the gauges and flag as read
    now, then counters since the worker started (reduced by
    :func:`~repro.obs.telemetry.summarize_telemetry`)."""

    pid: int
    queue_depth: int
    unacked: int
    congested: bool
    backpressure_stalls: int
    reconnects: int
    wal_fsyncs: int


@dataclass(frozen=True, slots=True)
class Stop:
    """Orchestrator → worker: the measurement is over."""


@dataclass(frozen=True, slots=True)
class Recovered:
    """Worker → orchestrator: a restarted worker has caught up."""

    pid: int


@dataclass(frozen=True, slots=True)
class Done:
    """Worker → orchestrator, last: final counters, transport counters
    over the window and traced spans as ``(time, category, pid, detail)``."""

    pid: int
    network: dict[str, int]
    cpu_utilization: float
    instances_at_warmup: int
    instances_at_end: int
    blocked_attempts: int
    backpressure_stalls: int
    recovered: bool
    wal_truncated_bytes: int
    active_clients: int
    boundary_crossings: int
    spans: list[tuple[float, str, int, list]]
    trace_dropped: int


#: The control documents by the ``type`` their frames carry.
CONTROL_TYPES = {
    cls.__name__.lower(): cls
    for cls in (Ready, Start, Fault, Samples, Telemetry, Stop, Recovered, Done)
}


def worker_spec(
    spec: LiveSpec,
    pid: int,
    addresses: dict[int, tuple[str, int]],
    control_port: int,
    *,
    recover: bool = False,
) -> WorkerSpec:
    """The spec handed to one worker on its command line.

    With ``recover=True`` the worker is a restarted incarnation: it
    reloads its write-ahead log (same path as its predecessor) and runs
    the rejoin protocol before taking load.
    """
    wal = None
    if spec.wal_dir is not None:
        wal = os.path.join(spec.wal_dir, f"worker-{pid}.wal")
    control = (spec.host, control_port)
    return WorkerSpec(spec, pid, dict(addresses), control, wal, recover)


def control_frame(document: Any) -> bytes:
    """One control document as it travels: length-prefixed JSON."""
    body = {"type": type(document).__name__.lower(), **plain(document)}
    return encode_frame(json.dumps(body).encode("utf-8"))


async def control_documents(
    reader: StreamReader, decoder: FrameDecoder | None = None
) -> AsyncIterator[Any]:
    """The control documents arriving on *reader*, until it reaches EOF
    (:class:`~repro.errors.ConfigurationError` names a malformed one).
    *decoder* holds any partial frame, for the caller to inspect."""
    decoder = decoder if decoder is not None else FrameDecoder()
    while data := await reader.read(64 * 1024):
        for frame in decoder.feed(data):
            body = json.loads(frame.decode("utf-8"))
            kind = body.pop("type", None) if isinstance(body, dict) else None
            if not isinstance(kind, str) or kind not in CONTROL_TYPES:
                raise ConfigurationError(
                    f"unknown control message type {kind!r} "
                    f"(known: {', '.join(CONTROL_TYPES)})"
                )
            yield read_fields(CONTROL_TYPES[kind], body, kind)


def _reduce(
    spec: LiveSpec,
    control: _ControlServer,
    delivery_log: dict[int, list[MessageId]] | None = None,
    observability: dict | None = None,
    checker: OrderingChecker | None = None,
) -> dict:
    """Feed buffered samples through the simulator's collector.

    When *delivery_log* is given, it is filled with each process's full
    adelivery sequence, in that process's own delivery order (frames of
    one worker arrive FIFO, and batches preserve local order). The log
    stays out of the result dict so the shared sim/live result schema is
    unchanged. *observability*, likewise out of band, is filled with the
    run's telemetry summary and — when the spec traced — the merged
    wall-clock spans (``telemetry``, ``spans``, ``trace_dropped``).
    *checker*, when given, records every accept and every delivery in
    the order its worker reported it, for the caller to ``verify()``.
    """
    collector = MetricsCollector(
        spec.n, window_start=spec.warmup, window_end=spec.warmup + spec.duration
    )
    delivers: list[tuple[float, int, MessageId]] = []
    for batch in control.samples:
        pid = batch.pid
        collector.on_offered(batch.offered)
        for sender, seq, size, t0 in batch.accepts:
            message = AppMessage(MessageId(sender, seq), size=size, abcast_time=t0)
            collector.on_accept(message)
            if checker is not None:
                checker.on_abcast(message)
        for sender, seq, when in batch.delivers:
            msg_id = MessageId(sender, seq)
            delivers.append((when, pid, msg_id))
            if delivery_log is not None:
                delivery_log.setdefault(pid, []).append(msg_id)
            if checker is not None:
                checker.on_adeliver(
                    pid, AppMessage(msg_id, size=0, abcast_time=0.0), when
                )
    # Deliveries are replayed in timestamp order so "first delivery of
    # m" means the earliest across processes, regardless of how the
    # per-worker sample batches interleaved on the control channel.
    for when, pid, msg_id in sorted(delivers):
        collector.on_adeliver(pid, AppMessage(msg_id, size=0, abcast_time=0.0), when)

    metrics = collector.finalize(
        blocked_attempts=control.total("blocked_attempts"),
        backpressure_stalls=control.total("backpressure_stalls"),
        active_clients=control.total("active_clients"),
        # Live processes count crossings but have no modelled CPU, so
        # the attribution carries a crossing count and zero time.
        attribution=LayerAttribution.from_totals(
            {}, 0.0, control.total("boundary_crossings")
        ),
    )
    if observability is not None:
        observability["telemetry"] = summarize_telemetry(control.telemetry)
        spans: list[list] = []
        for done in control.done.values():
            spans.extend(done.spans)
        spans.sort(key=lambda row: (row[0], row[2]))
        observability["spans"] = spans
        observability["trace_dropped"] = control.total("trace_dropped")

    network: dict[str, int] = {}
    for done in control.done.values():
        for key, value in done.network.items():
            network[key] = network.get(key, 0) + value
    instances = max(d.instances_at_end for d in control.done.values()) - max(
        d.instances_at_warmup for d in control.done.values()
    )
    cpu = tuple(control.done[pid].cpu_utilization for pid in sorted(control.done))
    result = RunResult(
        matched_run_config(spec), spec.seed, metrics, network, cpu, instances, 0
    )
    return {**sim_result_to_dict(result), "mode": "live"}


def run_live(
    spec: LiveSpec,
    *,
    delivery_log: dict[int, list[MessageId]] | None = None,
    observability: dict | None = None,
) -> dict:
    """Deploy *spec* on localhost, run one measurement, return the result.

    Blocking convenience wrapper; roughly ``warmup + duration + drain``
    seconds of wall-clock time plus process start-up. Pass a dict as
    *delivery_log* to additionally capture every process's adelivery
    sequence (pid → ordered list of message ids) out of band; pass one
    as *observability* to capture the telemetry summary and (with
    ``trace_cap`` set) the merged wall-clock spans.

    Raises:
        ConfigurationError: For any spec error (:meth:`LiveSpec.validate`),
            before a worker is spawned.
        DeploymentError: When workers die, never become ready, or stop
            reporting.
        OrderingViolation: When the workers' delivery sequences break
            uniform integrity or total order
            (:class:`~repro.metrics.ordering.AbcastSpec`).
    """
    spec.validate()
    # The asyncio side of a deployment loads only when one runs: every
    # simulated run imports this module (for LiveSpec) and would
    # otherwise pay for asyncio, and ssl through it, at start-up.
    from repro.live.orchestrator import run_deployment

    return run_deployment(spec, delivery_log, observability)
