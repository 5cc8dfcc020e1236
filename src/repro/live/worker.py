"""One live protocol process (``python -m repro.live.worker``).

A worker is one member of a live group: it hosts an unchanged protocol
stack on a :class:`~repro.live.runtime.LiveRuntime`, talks TCP to its
peers through a :class:`~repro.live.transport.Transport`, generates its
share of the open-loop workload behind the paper's flow-control window,
and streams measurement samples to the orchestrator over a control
connection (length-prefixed JSON frames, same framing as the data
plane).

Control protocol (worker perspective), one dataclass of
:mod:`repro.live.deploy` per document::

    -> Ready                  after the listener is up
    <- Start                  shared time origin
    <- Fault                  link fault directives (nemesis --live only)
    -> Samples, Telemetry     every ~250 ms
    -> Recovered              a restarted worker has caught up
    <- Stop                   measurement over
    -> Done                   final counters, then the process exits

The deployment's :class:`~repro.live.deploy.LiveSpec` and this worker's
place in it (pid, addresses, control port, WAL) arrive as one
:class:`~repro.live.deploy.WorkerSpec` in ``argv[1]`` —
:func:`~repro.live.deploy.worker_spec` writes it.

Crash recovery (see PROTOCOLS.md, "Crash recovery in the live
runtime"): with a ``wal`` in its spec the worker write-ahead-logs
accepted and delivered messages; with ``recover`` additionally set it
is a restarted incarnation: it reloads the log, resumes the transport
at the persisted resume points, state-transfers the deliveries it
missed from a live peer (``SYNC_REQ``/``SYNC_RESP`` on the reserved
``recovery`` module channel), fast-forwards the stack with
:meth:`~repro.live.runtime.LiveRuntime.resume_at`, and re-injects its
own accepted-but-undelivered messages before rejoining the workload.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
import time
from typing import Any

from repro.abcast.factory import build_process
from repro.config import FailureDetectorKind, read_fields
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.flowcontrol.window import BacklogWindow
from repro.live.deploy import (
    Done,
    Fault,
    FaultOp,
    Ready,
    Recovered,
    Samples,
    Start,
    Stop,
    Telemetry,
    WorkerSpec,
    control_frame,
    matched_run_config,
)
from repro.live.orchestrator import control_documents
from repro.live.runtime import LiveRuntime
from repro.live.transport import Transport, narrate
from repro.live.wal import WalState, WalWriter, load_wal_state
from repro.net.message import NetMessage
from repro.sim.tracing import NullTraceRecorder, TraceRecorder
from repro.stack.events import AbcastRequest
from repro.stack.module import Microprotocol
from repro.types import AppMessage, MessageId
from repro.workload.generator import FlowControlledSender, make_gap_sampler
from repro.workload.population import ClientPool

#: How often buffered samples are flushed to the orchestrator.
FLUSH_INTERVAL = 0.25

#: Exit code of a worker whose runtime crashed (fail-stop semantics).
CRASH_EXIT_CODE = 70

#: Module name reserved for the rejoin state-transfer messages; they
#: are handled by the worker itself, before stack routing.
RECOVERY_MODULE = "recovery"

#: How often an unanswered state-transfer request is re-sent (peers may
#: be partitioned away or recovering themselves; retry until one helps).
SYNC_RETRY_INTERVAL = 0.25


class Worker:
    """Wires one process: transport, runtime, workload, control client."""

    def __init__(self, document: WorkerSpec) -> None:
        self.spec = document.spec
        #: The spec in the simulator's terms: stack, window, detector,
        #: population — what ``repro live --compare`` simulates.
        self.config = matched_run_config(self.spec)
        self.pid = document.pid
        self.n = self.spec.n
        self.addresses = document.addresses
        self._control_address = document.control
        self._wal_path = document.wal
        self.runtime: LiveRuntime | None = None
        self.transport: Transport | None = None
        self.sender: FlowControlledSender | None = None
        self.wal: WalWriter | None = None
        self._accepts: list[tuple[int, int, int, float]] = []
        self._delivers: list[tuple[int, int, float]] = []
        self._offered_reported = 0
        self._cpu_at_warmup = 0.0
        self._instances_at_warmup = 0
        self._network_at_warmup: dict = {}
        #: Full local adelivery sequence as (sender, seq) pairs — the
        #: state served to recovering peers via SYNC_REQ.
        self._delivered_log: list[tuple[int, int]] = []
        self._delivered_ids: set[tuple[int, int]] = set()
        self._backpressure_stalls = 0
        self._unordered_cap: int | None = self.spec.unordered_cap or None
        #: Recovery state: while gating, inbound protocol traffic is
        #: buffered until catch-up completes.
        self._wal_state = WalState()
        self._wal_truncated = 0
        self._recovering = document.recover and bool(self._wal_path)
        self._gating = False
        self._gated: list[NetMessage] = []
        self._sync_retry: asyncio.TimerHandle | None = None
        self._recovered = False
        self._control_writer: asyncio.StreamWriter | None = None
        #: Client-fleet driver: the logical clients this worker fronts,
        #: multiplexed over its single connection (``None`` = plain
        #: symmetric load, the paper's workload).
        self._pool: ClientPool | None = None
        #: Wall-clock span trace (``trace_cap`` in the spec turns it
        #: on); spans ship to the orchestrator in the done document.
        self.trace: TraceRecorder = (
            TraceRecorder(cap=self.spec.trace_cap)
            if self.spec.trace_cap
            else NullTraceRecorder()
        )

    # -- assembly ----------------------------------------------------------

    def build(self) -> None:
        """Construct transport + runtime + workload source."""
        config = self.config
        if self._wal_path:
            if self._recovering:
                self._wal_state, self._wal_truncated = load_wal_state(self._wal_path)
                self._delivered_log = list(self._wal_state.delivered)
                self._delivered_ids = set(self._delivered_log)
            self.wal = WalWriter(self._wal_path)
        self._gating = self._recovering

        def on_message(message: Any) -> None:
            assert self.runtime is not None
            if message.module == RECOVERY_MODULE:
                self._on_recovery_message(message)
                return
            if self._gating:
                self._gated.append(message)
                return
            self.runtime.on_network_message(message)

        self.transport = Transport(
            self.pid,
            self.addresses,
            on_message,
            resume_points=self._wal_state.resume_counts,
            max_unacked=self.spec.max_unacked or None,
        )

        def make_runtime(modules: list[Microprotocol]) -> LiveRuntime:
            return LiveRuntime(
                self.pid,
                self.n,
                modules,
                self.transport,
                on_crash=lambda: os._exit(CRASH_EXIT_CODE),
                trace=self.trace if self.trace.enabled else None,
            )

        runtime = build_process(
            config.stack,
            self.pid,
            self.n,
            make_runtime,
            max_batch=config.flow_control.max_batch,
        )
        assert isinstance(runtime, LiveRuntime)
        self.runtime = runtime
        detector = config.failure_detector
        if detector.kind is FailureDetectorKind.HEARTBEAT:
            runtime.attach_failure_detector(
                HeartbeatFailureDetector(detector.heartbeat_interval, detector.timeout)
            )
        runtime.set_adeliver_listener(self._on_adeliver)
        self.sender = FlowControlledSender(
            runtime,
            BacklogWindow(config.flow_control.window),
            config.workload.message_size,
            on_accept=self._on_accept,
        )
        if self._recovering:
            # Own sequence numbers must never be reused across
            # incarnations: (sender, seq) is the message identity.
            self.sender.resume_from(self._wal_state.max_own_seq(self.pid) + 1)

    # -- measurement hooks -------------------------------------------------

    def _on_accept(self, message: Any) -> None:
        if self.wal is not None:
            # Write-ahead: the accept record must be durable before the
            # message can reach any peer, so the merged-log integrity
            # check never sees a delivered-but-never-accepted message.
            self.wal.append(
                {
                    "t": "accept",
                    "s": message.msg_id.sender,
                    "q": message.msg_id.seq,
                    "at": message.abcast_time,
                },
                sync=True,
            )
        self._accepts.append(
            (message.msg_id.sender, message.msg_id.seq, message.size, message.abcast_time)
        )

    def _on_adeliver(self, pid: int, message: Any, when: float) -> None:
        assert self.runtime is not None
        pair = (message.msg_id.sender, message.msg_id.seq)
        self._delivered_ids.add(pair)
        self._delivered_log.append(pair)
        if self.wal is not None:
            self.wal.append(
                {
                    "t": "deliver",
                    "s": pair[0],
                    "q": pair[1],
                    "at": when,
                    "i": self.runtime.modules[0].next_instance,
                }
            )
        self._delivers.append((pair[0], pair[1], when))
        if pair[0] == self.pid and self.sender is not None:
            self.sender.on_own_delivery(message)

    # -- crash recovery ----------------------------------------------------

    def _recovery_send(self, dst: int, kind: str, payload: dict, size: int) -> None:
        assert self.transport is not None
        self.transport.send(
            NetMessage(
                kind=kind,
                module=RECOVERY_MODULE,
                src=self.pid,
                dst=dst,
                payload=payload,
                payload_size=size,
                header_size=66,
            )
        )

    def _begin_recovery(self) -> None:
        """Start catch-up: ask live peers for the deliveries we missed."""
        assert self.runtime is not None
        loop = self.runtime.loop

        def request() -> None:
            if not self._gating:
                return
            # Re-arm before sending: a send raising must not silence
            # the retry loop (peers may simply not be reachable yet).
            self._sync_retry = loop.call_later(SYNC_RETRY_INTERVAL, request)
            narrate("worker", self.pid, f"SYNC_REQ from={len(self._delivered_log)}")
            for dst in range(self.n):
                if dst != self.pid:
                    self._recovery_send(
                        dst, "SYNC_REQ", {"from": len(self._delivered_log)}, 16
                    )

        request()

    def _on_recovery_message(self, message: NetMessage) -> None:
        narrate("worker", self.pid, f"recovery message {message.kind} from p{message.src}")
        if message.kind == "SYNC_REQ":
            self._serve_sync_request(message.src, message.payload)
        elif message.kind == "SYNC_RESP":
            self._apply_sync_response(message.payload)

    def _serve_sync_request(self, requester: int, payload: dict) -> None:
        """Answer a recovering peer with the deliveries it is missing."""
        assert self.runtime is not None
        if self._gating:
            return  # recovering ourselves; our log is not a frontier yet
        start = int(payload["from"])
        if start > len(self._delivered_log):
            narrate("worker", self.pid, f"refusing SYNC_REQ: behind requester ({start})")
            return  # we are behind the requester; let someone else help
        entries = [[s, q] for s, q in self._delivered_log[start:]]
        narrate("worker", self.pid, f"answering SYNC_REQ p{requester} with {len(entries)} entries")
        self._recovery_send(
            requester,
            "SYNC_RESP",
            {
                "from": start,
                "entries": entries,
                "next_instance": self.runtime.modules[0].next_instance,
            },
            16 + 12 * len(entries),
        )

    def _apply_sync_response(self, payload: dict) -> None:
        """First matching response wins: apply it and rejoin the stack."""
        assert self.runtime is not None
        if not self._gating:
            return
        if int(payload["from"]) != len(self._delivered_log):
            narrate("worker", self.pid, "stale SYNC_RESP ignored")
            return  # stale response to an earlier request
        next_instance = int(payload["next_instance"])
        now = self.runtime.now
        for sender, seq in payload["entries"]:
            pair = (int(sender), int(seq))
            if pair in self._delivered_ids:
                continue
            self._delivered_ids.add(pair)
            self._delivered_log.append(pair)
            if self.wal is not None:
                self.wal.append(
                    {"t": "deliver", "s": pair[0], "q": pair[1],
                     "at": now, "i": next_instance}
                )
            self._delivers.append((pair[0], pair[1], now))
        self._complete_recovery(next_instance)

    def _complete_recovery(self, next_instance: int) -> None:
        """Fast-forward the stack, replay gated traffic, rejoin."""
        assert self.runtime is not None
        if self._sync_retry is not None:
            self._sync_retry.cancel()
            self._sync_retry = None
        delivered = {MessageId(s, q) for s, q in self._delivered_ids}
        self.runtime.resume_at(next_instance, delivered)
        self._gating = False
        gated, self._gated = self._gated, []
        for message in gated:
            self.runtime.on_network_message(message)
        # Own messages accepted by the previous incarnation but still
        # undelivered re-enter the stack (the write-ahead accept made
        # them this incarnation's obligation); receivers dedup via
        # their _adelivered ledgers, so a message that did make it out
        # before the crash is ordered exactly once.
        for sender, seq, __ in self._wal_state.accepted:
            if sender == self.pid and (sender, seq) not in self._delivered_ids:
                self.runtime.inject(
                    AbcastRequest(
                        AppMessage(
                            msg_id=MessageId(sender, seq),
                            size=self.spec.size,
                            abcast_time=self.runtime.now,
                        )
                    )
                )
        if self.wal is not None:
            self.wal.flush()
        self._recovered = True
        narrate(
            "worker",
            self.pid,
            f"recovery complete: next_instance={next_instance} "
            f"log={len(self._delivered_log)}",
        )
        if self._control_writer is not None:
            # Tell the orchestrator: it holds the measurement window
            # open until every restarted worker has caught up (process
            # start-up alone can eat the scheduled quiet margin).
            self._control_writer.write(control_frame(Recovered(self.pid)))
        self._start_workload()

    # -- fault directives (nemesis --live) ---------------------------------

    def _apply_fault(self, fault: Fault) -> None:
        assert self.transport is not None
        op, peers = fault.op, set(fault.peers)
        if op is FaultOp.HOLD:
            self.transport.hold_links(peers)
        elif op is FaultOp.RELEASE:
            self.transport.release_links(peers)
        elif op is FaultOp.DROP:
            self.transport.drop_links(peers)
        elif op is FaultOp.UNDROP:
            self.transport.undrop_links(peers)
        elif op is FaultOp.DELAY:
            self.transport.set_link_delay(peers, fault.extra, fault.jitter)
        else:
            self.transport.clear_link_delay(peers)

    # -- workload ----------------------------------------------------------

    def _backpressure_blocked(self) -> bool:
        """The end-to-end credit check consulted before each arrival.

        Two credit sources combine: the transport (no peer's unacked
        frame queue may sit at its cap — bounded memory towards slow or
        partitioned peers) and the ordering core (the top module's
        backlog of messages awaiting ordering must stay under the cap —
        a slow consensus pipeline pushes back on the arrival process
        instead of hoarding an unbounded unordered set).
        """
        assert self.runtime is not None and self.transport is not None
        if self.transport.congested:
            return True
        return (
            self._unordered_cap is not None
            and self.runtime.modules[0].unordered_count >= self._unordered_cap
        )

    def _schedule_arrivals(self) -> None:
        """Open-loop arrivals: the paper's constant-rate load, or — with
        a ``population`` in the spec — the client-fleet driver.

        When the spec restricts the workload to a subset of ``senders``,
        the offered load is split across those processes only and the
        rest stay silent (they still deliver, of course).

        The fleet driver multiplexes this worker's share of the logical
        clients onto its one connection: gaps come from the population's
        aggregate arrival law (Poisson/bursty/diurnal) and each arrival
        is attributed to a Zipf-sampled client — O(1) per arrival, no
        per-client state beyond the sparse activity counters.
        """
        assert self.runtime is not None and self.sender is not None
        spec = self.spec
        active = spec.senders or range(self.n)
        if self.pid not in active:
            return
        stop_at = spec.warmup + spec.duration
        rng = random.Random(spec.seed * 1000 + self.pid)
        loop = self.runtime.loop

        sampler = make_gap_sampler(self.config.workload, len(active), rng)
        population = self.config.workload.population
        if population is not None:
            self._pool = ClientPool(
                population,
                self.pid,
                self.n,
                random.Random(spec.seed * 1000 + self.pid + 501),
            )

        # Absolute deadlines, as the simulator's ArrivalSchedule: the
        # next arrival is due one gap after the previous one was *due*,
        # not after its handler returned, so the offered rate is the
        # spec's whatever a tick costs. After a stall the overdue ticks
        # fire back to back and meet a full flow-control window, which
        # counts them as blocked attempts; none enters the stack.
        due = max(self.runtime.now, sampler.first_delay())

        def tick() -> None:
            nonlocal due
            assert self.runtime is not None and self.sender is not None
            if self.runtime.now > stop_at or not self.runtime.alive:
                return
            if self._pool is not None:
                self._pool.on_arrival()
            if self._backpressure_blocked():
                # No credit: the arrival is refused outright (it never
                # reaches flow control) and retried next period.
                self._backpressure_stalls += 1
            else:
                self.sender.offer()
            due += sampler.gap(due)
            loop.call_later(due - self.runtime.now, tick)

        loop.call_later(due - self.runtime.now, tick)

    def _start_workload(self) -> None:
        """Arrivals + warm-up snapshot; runs at start, or after rejoin."""
        assert self.runtime is not None
        self._schedule_arrivals()
        warmup_in = max(0.0, self.spec.warmup - self.runtime.now)
        self.runtime.loop.call_later(warmup_in, self._at_warmup_end)

    def _at_warmup_end(self) -> None:
        assert self.runtime is not None and self.transport is not None
        self._cpu_at_warmup = time.process_time()
        self._instances_at_warmup = self.runtime.modules[0].next_instance
        self._network_at_warmup = self.transport.stats.snapshot()

    # -- reporting ---------------------------------------------------------

    def _drain_samples(self) -> Samples | None:
        assert self.sender is not None
        offered_delta = self.sender.offered - self._offered_reported
        if not self._accepts and not self._delivers and offered_delta == 0:
            return None
        self._offered_reported = self.sender.offered
        samples = Samples(self.pid, self._accepts, self._delivers, offered_delta)
        self._accepts = []
        self._delivers = []
        return samples

    def _telemetry_document(self) -> Telemetry:
        """One counter/gauge snapshot."""
        assert self.runtime is not None and self.transport is not None
        unacked = max(
            (
                self.transport.unacked_to(peer)
                for peer in range(self.n)
                if peer != self.pid
            ),
            default=0,
        )
        return Telemetry(
            pid=self.pid,
            queue_depth=self.runtime.modules[0].unordered_count,
            unacked=unacked,
            congested=self.transport.congested,
            backpressure_stalls=self._backpressure_stalls,
            reconnects=self.transport.stats.reconnects,
            wal_fsyncs=self.wal.fsyncs if self.wal is not None else 0,
        )

    def _span_rows(self) -> list[tuple[float, str, int, list]]:
        """Serialize traced spans as ``(time, category, pid, detail)``."""
        return [
            (record.time, record.category, record.process, list(record.detail))
            for record in self.trace.records()
            if record.category.startswith("span.")
        ]

    def _done_document(self) -> Done:
        assert self.runtime is not None and self.transport is not None
        assert self.sender is not None
        duration = self.spec.duration
        network = self.transport.stats.snapshot()
        window_network = {
            key: network[key] - self._network_at_warmup.get(key, 0)
            for key in network
        }
        cpu_busy = time.process_time() - self._cpu_at_warmup
        return Done(
            pid=self.pid,
            network=window_network,
            cpu_utilization=min(1.0, cpu_busy / duration) if duration > 0 else 0.0,
            instances_at_warmup=self._instances_at_warmup,
            instances_at_end=self.runtime.modules[0].next_instance,
            blocked_attempts=self.sender.window.total_blocked,
            backpressure_stalls=self._backpressure_stalls,
            recovered=self._recovered,
            wal_truncated_bytes=self._wal_truncated,
            active_clients=(
                self._pool.active_clients if self._pool is not None else 0
            ),
            boundary_crossings=self.runtime.boundary_crossings,
            spans=self._span_rows() if self.trace.enabled else [],
            trace_dropped=self.trace.dropped_records,
        )

    def _wal_checkpoint(self) -> None:
        """Snapshot transport resume points and flush batched records."""
        if self.wal is None or self.transport is None or self.runtime is None:
            return
        self.wal.append(
            {
                "t": "resume",
                "counts": {
                    str(peer): [nonce, count]
                    for peer, (nonce, count) in (
                        self.transport.delivered_counts().items()
                    )
                },
                "at": self.runtime.now,
            }
        )
        self.wal.flush()

    # -- main loop ---------------------------------------------------------

    async def run(self) -> int:
        """Execute the worker's whole life cycle; returns an exit code."""
        self.build()
        assert self.runtime is not None and self.transport is not None
        await self.transport.start()

        reader, writer = await self._connect_control(*self._control_address)
        self._control_writer = writer
        writer.write(control_frame(Ready(self.pid)))
        await writer.drain()

        flusher: asyncio.Task | None = None
        try:
            async for document in control_documents(reader):
                if isinstance(document, Start):
                    self.runtime.set_epoch(document.epoch)
                    self.runtime.start()
                    flusher = asyncio.create_task(self._flush_loop(writer))
                    if self._gating:
                        self._begin_recovery()
                    else:
                        self._start_workload()
                elif isinstance(document, Fault):
                    self._apply_fault(document)
                elif isinstance(document, Stop):
                    break
            else:
                # Control channel gone: orchestrator died; don't linger.
                return 1
        finally:
            if flusher is not None:
                flusher.cancel()
            if self._sync_retry is not None:
                self._sync_retry.cancel()

        final = self._drain_samples()
        if final is not None:
            writer.write(control_frame(final))
        writer.write(control_frame(self._done_document()))
        await writer.drain()
        if self.wal is not None:
            self._wal_checkpoint()
            self.wal.close()
        await self.transport.close()
        writer.close()
        return 0

    async def _connect_control(
        self, host: str, port: int
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        backoff = 0.05
        deadline = time.monotonic() + 10.0
        while True:
            try:
                return await asyncio.open_connection(host, port)
            except OSError:
                if time.monotonic() > deadline:
                    raise
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 0.5)

    async def _flush_loop(self, writer: asyncio.StreamWriter) -> None:
        while True:
            await asyncio.sleep(FLUSH_INTERVAL)
            self._wal_checkpoint()
            document = self._drain_samples()
            if document is not None:
                writer.write(control_frame(document))
            writer.write(control_frame(self._telemetry_document()))
            await writer.drain()


def main(argv: list[str] | None = None) -> int:
    """Worker entry point: ``python -m repro.live.worker '<spec json>'``."""
    args = argv if argv is not None else sys.argv[1:]
    if len(args) != 1:
        print("usage: python -m repro.live.worker '<spec json>'", file=sys.stderr)
        return 2
    spec = read_fields(WorkerSpec, json.loads(args[0]))
    return asyncio.run(Worker(spec).run())


if __name__ == "__main__":
    sys.exit(main())
