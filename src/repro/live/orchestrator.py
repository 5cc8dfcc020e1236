"""Running a live deployment: the control server, the workers, the watch.

:mod:`repro.live.deploy` declares what a deployment is (the spec, the
control documents, the reduction of its samples); this module brings
one up over asyncio: it reserves the ports, serves the control channel,
spawns the worker processes, watches them for unexpected deaths and
tears everything down. Unlike :mod:`repro.live.deploy` it imports
asyncio, so :func:`~repro.live.deploy.run_live` imports it only when a
deployment runs.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, AsyncIterator, Callable

from repro.config import LiveSpec, plain
from repro.errors import ConfigurationError, DeploymentError, NetworkError
from repro.live.deploy import (
    Done,
    Ready,
    Recovered,
    Samples,
    Start,
    Stop,
    Telemetry,
    WorkerSpec,
    _reduce,
    control_documents,
    control_frame,
    worker_spec,
)
from repro.live.framing import FrameDecoder
from repro.metrics.ordering import OrderingChecker
from repro.types import MessageId

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


class _ControlServer:
    """Accepts worker control connections and buffers their reports."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.ready: dict[int, asyncio.StreamWriter] = {}
        self.samples: list[Samples] = []
        #: Buffered telemetry snapshots, in arrival order.
        self.telemetry: list[Telemetry] = []
        self.done: dict[int, Done] = {}
        #: Each worker's frame decoder, holding any partial frame.
        self.decoders: dict[int, FrameDecoder] = {}
        #: The first control document refused, naming its worker; the
        #: watch raises it.
        self.failure: DeploymentError | None = None
        self.all_ready = asyncio.Event()
        self.all_done = asyncio.Event()
        self._recovered_events: dict[int, asyncio.Event] = {}
        #: The start epoch, once broadcast. A worker restarted by the
        #: nemesis orchestrator re-sends ``ready`` mid-run and must get
        #: the same epoch immediately — all timestamps of one run share
        #: one time origin, first or second incarnation alike.
        self.epoch: float | None = None

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        decoder = FrameDecoder()
        pid: int | None = None
        try:
            async for document in control_documents(reader, decoder):
                if isinstance(document, Ready):
                    pid = document.pid
                    self.decoders[pid] = decoder
                self._dispatch(document, writer)
        except (ConnectionError, OSError):
            return
        except asyncio.CancelledError:
            # Loop teardown cancels handlers still waiting for EOF after
            # the run reduced; nothing is lost, exit quietly.
            return
        except (ConfigurationError, DeploymentError, NetworkError, ValueError) as error:
            # A document that does not read, or has no place in the
            # protocol: the run cannot be judged, so it fails now.
            who = "a worker not yet ready" if pid is None else f"worker {pid}"
            self.failure = self.failure or DeploymentError(
                f"control document from {who} refused: {error}"
            )
        finally:
            # The worker has hung up (after its ``done``) or died.
            writer.close()

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

    def unreported(self) -> str:
        """Each worker whose ``done`` has not arrived: whether its
        control connection is open, and the partial frame buffered."""
        return "; ".join(
            f"worker {pid} never said ready"
            if pid not in self.ready
            else f"worker {pid} sent no done (control connection "
            f"{'closed' if self.ready[pid].is_closing() else 'open'}, "
            f"{self.decoders[pid].pending_bytes} bytes of a partial frame buffered)"
            for pid in range(self.n)
            if pid not in self.done
        )

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
    control: _ControlServer | None = None,
) -> None:
    """Let *seconds* pass — or wait at most that long for *event* (*what*
    names it) — watching the workers and their *control* channel: an
    unexpected death, or a refused control document, aborts the run
    within one poll (0.1 s asleep, 0.2 s on an event), not when a later
    report times out. A timeout names the workers that never reported.
    """
    during = f"while waiting for {what}" if event else "during the measurement window"
    deadline = time.monotonic() + seconds
    while event is None or not event.is_set():
        failure = _worker_failure(workers, expected_dead)
        if failure is not None:
            raise DeploymentError(f"{during}: {failure}")
        if control is not None and control.failure is not None:
            raise control.failure
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            if event is None:
                return
            detail = control.unreported() if control is not None else ""
            raise DeploymentError(
                f"timed out waiting for {what}" + (f": {detail}" if detail else "")
            )
        if event is None:
            await asyncio.sleep(min(0.1, remaining))
        else:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(event.wait(), min(0.2, remaining))


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
            workers, READY_TIMEOUT, event=control.all_ready, what="workers ready",
            control=control,
        )
        epoch = time.monotonic()
        control.broadcast(Start(epoch))
        yield control, workers, epoch, spawn
        control.broadcast(Stop())
        await _watch(
            workers, READY_TIMEOUT, expected_dead,
            event=control.all_done, what="final worker reports", control=control,
        )
    finally:
        server.close()
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
        # Closed only now that every worker is gone, so none sees its
        # control channel close before it reported. Newer Pythons'
        # ``wait_closed`` also waits for these connections to close.
        for writer in control.ready.values():
            writer.close()
        await server.wait_closed()


async def _run_live_async(
    spec: LiveSpec,
    delivery_log: dict[int, list[MessageId]] | None = None,
    observability: dict | None = None,
) -> dict:
    async with _deployment(spec) as (control, workers, epoch, _):
        total = spec.warmup + spec.duration + spec.drain
        await _watch(workers, epoch + total - time.monotonic(), control=control)
    # Every fault-free run is judged, whether or not the caller asked for
    # the log: all accepts first, then each worker's own delivery order.
    checker = OrderingChecker(spec.n)
    result = _reduce(spec, control, delivery_log, observability, checker)
    checker.verify()
    return result


def run_deployment(
    spec: LiveSpec,
    delivery_log: dict[int, list[MessageId]] | None = None,
    observability: dict | None = None,
) -> dict:
    """Blocking: one fault-free deployment of a validated *spec*
    (:func:`~repro.live.deploy.run_live` documents the arguments)."""
    return asyncio.run(_run_live_async(spec, delivery_log, observability))
