"""Live deployment orchestrator: spawn workers, measure, reduce.

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

The spec and each of those documents is a dataclass declared below.
"""

from __future__ import annotations

import asyncio
import contextlib
import enum
import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, AsyncIterator, Callable

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
from repro.errors import ConfigurationError, DeploymentError
from repro.experiments.runner import RunResult
from repro.live.transport import FrameDecoder, encode_frame
from repro.live.results import sim_result_to_dict
from repro.metrics.collector import MetricsCollector
from repro.metrics.ordering import OrderingChecker
from repro.obs.attribution import LayerAttribution
from repro.obs.telemetry import summarize_telemetry
from repro.types import AppMessage, MessageId

#: How long workers get to come up before the deployment is abandoned.
READY_TIMEOUT = 15.0


def reserve_ports(host: str, count: int) -> list[int]:
    """Pick *count* currently-free TCP ports on *host*.

    The ports are released again before the workers bind them, so this
    is best-effort — fine on a quiet localhost, which is the supported
    deployment target.
    """
    sockets: list[socket.socket] = []
    try:
        for __ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


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


class FaultOp(enum.Enum):
    """What a :class:`Fault` does to the links towards its peers."""

    HOLD = "hold"
    RELEASE = "release"
    DROP = "drop"
    UNDROP = "undrop"
    DELAY = "delay"
    CLEAR_DELAY = "clear_delay"


@dataclass(frozen=True, slots=True)
class Fault:
    """Orchestrator → worker: a link fault directive; ``delay`` waits
    ``extra`` plus up to ``jitter`` seconds before each frame."""

    op: FaultOp
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


async def control_documents(reader: asyncio.StreamReader) -> AsyncIterator[Any]:
    """The control documents arriving on *reader*, until it reaches EOF
    (:class:`~repro.errors.ConfigurationError` names a malformed one)."""
    decoder = FrameDecoder()
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


class _ControlServer:
    """Accepts worker control connections and buffers their reports."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.ready: dict[int, asyncio.StreamWriter] = {}
        self.samples: list[Samples] = []
        #: Buffered telemetry snapshots, in arrival order.
        self.telemetry: list[Telemetry] = []
        self.done: dict[int, Done] = {}
        self.all_ready = asyncio.Event()
        self.all_done = asyncio.Event()
        self._recovered_events: dict[int, asyncio.Event] = {}
        #: The start epoch, once broadcast. A worker restarted by the
        #: nemesis orchestrator re-sends ``ready`` mid-run and must get
        #: the same epoch immediately — all timestamps of one run share
        #: one time origin, first or second incarnation alike.
        self.epoch: float | None = None

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            async for document in control_documents(reader):
                self._dispatch(document, writer)
        except (ConnectionError, OSError):
            return
        except asyncio.CancelledError:
            # Loop teardown cancels handlers still waiting for EOF after
            # the run reduced; nothing is lost, exit quietly.
            return

    def _dispatch(self, document: Any, writer: asyncio.StreamWriter) -> None:
        if isinstance(document, Ready):
            self.ready[document.pid] = writer
            if len(self.ready) == self.n:
                self.all_ready.set()
            if self.epoch is not None:
                # Late (restarted) worker: the run already started.
                self.send_to(document.pid, Start(self.epoch))
        elif isinstance(document, Samples):
            self.samples.append(document)
        elif isinstance(document, Telemetry):
            self.telemetry.append(document)
        elif isinstance(document, Recovered):
            self.recovery_event(document.pid).set()
        elif isinstance(document, Done):
            self.done[document.pid] = document
            if len(self.done) == self.n:
                self.all_done.set()
        else:
            raise DeploymentError(f"unexpected control message {document!r}")

    def recovery_event(self, pid: int) -> asyncio.Event:
        """Set once worker *pid* reports WAL recovery complete.

        The nemesis orchestrator waits on it after a scheduled restart:
        fork/exec plus interpreter start-up is real wall-clock time, so
        the restart *instant* says nothing about when the worker is
        actually caught up again.
        """
        return self._recovered_events.setdefault(pid, asyncio.Event())

    def total(self, counter: str) -> int:
        """Sum of one counter over the workers' final reports."""
        return sum(getattr(done, counter) for done in self.done.values())

    def broadcast(self, document: Start | Stop) -> None:
        if isinstance(document, Start):
            self.epoch = document.epoch
        for pid in self.ready:
            self.send_to(pid, document)

    def send_to(self, pid: int, document: Any) -> None:
        """Send one directive to one worker (fault injection)."""
        writer = self.ready.get(pid)
        if writer is None:
            return
        # A killed worker leaves a dead writer behind until its restart
        # re-registers; writing into it must not take the run down.
        try:
            writer.write(control_frame(document))
        except (ConnectionError, OSError, RuntimeError):
            pass


def _spawn_worker(document: WorkerSpec) -> subprocess.Popen:
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(src_root) + os.pathsep + existing if existing else str(src_root)
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.live.worker", json.dumps(plain(document))],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
    )


def _worker_failure(
    workers: list[subprocess.Popen],
    expected_dead: frozenset[int] | set[int] = frozenset(),
) -> str | None:
    """A description of the first *unexpectedly* dead worker, if any.

    Workers in *expected_dead* were killed on purpose by the fault
    injector (``nemesis --live`` SIGKILLs them, so they show up with a
    negative signal status) and are not failures: their restart is
    already scheduled. Every other nonzero exit — including a scheduled
    victim dying with the wrong status, e.g. a crash *before* its
    SIGKILL landed — aborts the run immediately instead of hanging
    until a timeout.
    """
    for pid, worker in enumerate(workers):
        code = worker.poll()
        if code is None or code == 0:
            continue
        if pid in expected_dead and code == -signal.SIGKILL:
            continue  # fault-injected kill, restart pending
        stderr = b""
        if worker.stderr is not None:
            stderr = worker.stderr.read() or b""
        detail = stderr.decode("utf-8", "replace").strip()
        tail = detail.splitlines()[-8:]
        label = "scheduled-kill worker" if pid in expected_dead else "worker"
        return (
            f"{label} {pid} exited unexpectedly with status {code}"
            + (":\n" + "\n".join(tail) if tail else "")
        )
    return None


async def _watch(
    workers: list[subprocess.Popen],
    seconds: float,
    expected_dead: frozenset[int] | set[int] = frozenset(),
    event: asyncio.Event | None = None,
    what: str = "",
) -> None:
    """Let *seconds* pass — or wait at most that long for *event* (*what*
    names it) — watching the workers: an unexpected death aborts the run
    within one poll (0.1 s asleep, 0.2 s on an event) with the worker's
    stderr, not when a later report times out.
    """
    during = f"while waiting for {what}" if event else "during the measurement window"
    deadline = time.monotonic() + seconds
    while event is None or not event.is_set():
        failure = _worker_failure(workers, expected_dead)
        if failure is not None:
            raise DeploymentError(f"{during}: {failure}")
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            if event is None:
                return
            raise DeploymentError(f"timed out waiting for {what}")
        if event is None:
            await asyncio.sleep(min(0.1, remaining))
        else:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(event.wait(), min(0.2, remaining))


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


@contextlib.asynccontextmanager
async def _deployment(
    spec: LiveSpec, expected_dead: frozenset[int] | set[int] = frozenset()
) -> AsyncIterator[tuple[_ControlServer, list[subprocess.Popen], float, Callable]]:
    """Start-up and tear-down around the measured part of a run.

    Entering brings the group up and broadcasts ``start``; the body gets
    ``(control, workers, epoch, spawn)`` — ``spawn(pid, recover=True)``
    makes the next incarnation of a killed worker — and decides how long
    the run lasts. Leaving normally broadcasts ``stop`` and waits for
    every final report (tolerating *expected_dead* as it is then);
    leaving either way closes the server and reaps the workers.
    """
    ports = reserve_ports(spec.host, spec.n)
    addresses = {pid: (spec.host, ports[pid]) for pid in range(spec.n)}
    control = _ControlServer(spec.n)
    server = await asyncio.start_server(control.handle, spec.host, 0)
    control_port = server.sockets[0].getsockname()[1]

    def spawn(pid: int, recover: bool = False) -> subprocess.Popen:
        document = worker_spec(spec, pid, addresses, control_port, recover=recover)
        return _spawn_worker(document)

    workers: list[subprocess.Popen] = []
    try:
        workers.extend(spawn(pid) for pid in range(spec.n))
        await _watch(
            workers, READY_TIMEOUT, event=control.all_ready, what="workers ready"
        )
        epoch = time.monotonic()
        control.broadcast(Start(epoch))
        yield control, workers, epoch, spawn
        control.broadcast(Stop())
        await _watch(
            workers, READY_TIMEOUT, expected_dead,
            event=control.all_done, what="final worker reports",
        )
    finally:
        server.close()
        await server.wait_closed()
        for worker in workers:
            if worker.poll() is None:
                worker.terminate()
        for worker in workers:
            try:
                worker.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
            if worker.stderr is not None:
                worker.stderr.close()


async def _run_live_async(
    spec: LiveSpec,
    delivery_log: dict[int, list[MessageId]] | None = None,
    observability: dict | None = None,
) -> dict:
    async with _deployment(spec) as (control, workers, epoch, _):
        total = spec.warmup + spec.duration + spec.drain
        await _watch(workers, epoch + total - time.monotonic())
    # Every fault-free run is judged, whether or not the caller asked for
    # the log: all accepts first, then each worker's own delivery order.
    checker = OrderingChecker(spec.n)
    result = _reduce(spec, control, delivery_log, observability, checker)
    checker.verify()
    return result


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
    return asyncio.run(_run_live_async(spec, delivery_log, observability))
