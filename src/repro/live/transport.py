"""Asyncio TCP transport: framing, per-peer FIFO streams, reconnect.

Mirrors the channel model the stacks assume (and the simulator's
:class:`~repro.net.network.Network` provides): quasi-reliable FIFO
channels between every pair of processes, as TCP gives the paper's
Fortika testbed.

Topology: every process listens on one TCP port and additionally dials
one *outgoing* connection per peer, used exclusively for its own sends
to that peer. Inbound connections are receive-only. Both ends of a
connection are one :class:`asyncio.BufferedProtocol` class
(:class:`_Connection`): the event loop reads the socket straight into
the connection's own preallocated buffer, and frames (inbound end) or
cumulative acks (outbound end) are parsed and acted on inside that read
callback. Each peer has one :class:`_Link`: a FIFO queue, a transmit
cursor into it, the connection it writes to and the link's fault state.
Every transition of that state is a synchronous ``_Link`` method run
inside one event-loop callback (``send()``, a read callback, a fault
hook, a timer), and one of them, :meth:`_Link.flush`, is the only code
that writes queued frames — which makes per-(src, dst) ordering
structural rather than accidental. The peer's sender task only dials:
it connects, writes the HELLO, waits for the connection to be lost and
backs off.

Framing: each frame is a 4-byte big-endian length prefix followed by
the body (:mod:`repro.live.framing`, re-exported here; the decoder is a
plain incremental parser so framing is testable without sockets).
The first frame on every outgoing connection is a HELLO identifying the
dialing process and the wire-format version; everything after is an
encoded :class:`~repro.net.message.NetMessage`.

Failure handling: a failed dial or a broken connection triggers
reconnection with exponential backoff (capped). Delivery is exactly-once
and in-order across reconnects, via a cumulative-ack protocol layered on
the per-peer stream: the receiver answers every HELLO with the number of
frames it has delivered from that peer (the *resume point*) and sends
cumulative acks back, at most one per :data:`ACK_INTERVAL`; the sender
dequeues a frame only once acked and, after reconnecting, resumes
transmission exactly at the receiver's resume point. Acks only trim the
retransmit queue (the resume point is the receiver's delivered count,
never the last ack), so delaying them costs memory, not correctness.
TCP alone cannot give this — a write into a connection whose peer
already vanished "succeeds" into the socket buffer — which is why the
ack layer exists. An outage therefore delays messages rather than
dropping or duplicating them, the quasi-reliable FIFO channel the
protocol stacks assume.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import struct
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterable

from repro.errors import NetworkError
from repro.live.deploy import LinkVerb
from repro.live.framing import (  # noqa: F401 - FrameDecoder is re-exported
    MAX_FRAME_SIZE,
    FrameDecoder,
    _scan_frames,
    encode_frame,
)
from repro.net.message import NetMessage, decode_message, encode_message
from repro.net.wire import WIRE_FORMAT_VERSION, check_version, encode_text

#: Cumulative frame counts exchanged by the ack protocol.
_COUNT = struct.Struct(">Q")

#: A receiver sends at most one cumulative ack per this many seconds on
#: a connection. Short against the time :attr:`Transport.max_unacked`
#: frames take to queue up, long against the gap between frames under
#: load (so one ack covers many).
ACK_INTERVAL = 0.005

#: Bytes of receive buffer the accepting end of a connection
#: preallocates. One fill holds a few hundred protocol frames; a frame
#: that does not fit is given a buffer of exactly its size for as long
#: as it is in flight.
RECV_BUFFER = 64 * 1024

#: The same for the dialing end, which only ever reads cumulative counts
#: (at most one per :data:`ACK_INTERVAL`).
COUNT_BUFFER = 64 * _COUNT.size

#: Callback invoked with every decoded protocol message.
MessageHandler = Callable[[NetMessage], None]

#: ``REPRO_LIVE_TRACE=1`` makes the transport narrate connection and
#: handshake events, and every worker its recovery and fault events, on
#: stderr (the orchestrator surfaces a worker's stderr when it exits
#: unexpectedly).
_TRACE = bool(os.environ.get("REPRO_LIVE_TRACE"))


def narrate(role: str, pid: int, text: str) -> None:
    """Print ``[role pid t=…] text`` on stderr when ``REPRO_LIVE_TRACE`` is set."""
    if _TRACE:
        print(
            f"[{role} {pid} t={time.monotonic():.3f}] {text}", file=sys.stderr, flush=True
        )


def next_backoff(
    rng: random.Random, initial: float, previous: float, cap: float
) -> float:
    """Decorrelated-jitter reconnect backoff.

    Draws the next delay uniformly from ``[initial, 3 * previous]``,
    capped at *cap* — the "decorrelated jitter" strategy. Unlike plain
    doubling, two peers cut off by the same partition draw different
    delays and do not redial in lockstep when it heals (a reconnection
    storm every ``initial * 2^k`` seconds); unlike full jitter, the
    expected delay still grows geometrically while the outage lasts.
    """
    return min(cap, rng.uniform(initial, max(initial, previous * 3.0)))


def hello_frame(pid: int, nonce: int = 0) -> bytes:
    """The identification frame opening every outgoing connection.

    *nonce* identifies the sending endpoint's *incarnation*: it is drawn
    once per Transport construction, so every connection from one
    process lifetime carries the same nonce, and a restarted process
    (crash recovery) presents a new one. The receiver uses a nonce
    change to reset its delivered-frame count — the new incarnation's
    outbound stream starts over at frame zero, and resuming it at the
    predecessor's count would silently swallow its first messages.
    """
    return json.dumps(
        {"v": WIRE_FORMAT_VERSION, "hello": pid, "nonce": nonce}
    ).encode("utf-8")


def parse_hello(frame: bytes) -> tuple[int, int]:
    """Validate a HELLO frame; returns (dialing pid, incarnation nonce)."""
    try:
        document = json.loads(frame.decode("utf-8"))
        check_version(document.get("v"))
        return int(document["hello"]), int(document.get("nonce", 0))
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise NetworkError(f"malformed transport HELLO: {exc}") from exc


@dataclass(slots=True)
class TransportStats:
    """Mutable per-transport counters (schema mirrors NetworkStats)."""

    messages_sent: int = 0
    bytes_sent: int = 0
    payload_bytes_sent: int = 0
    messages_received: int = 0
    reconnects: int = 0
    messages_dropped: int = 0

    def snapshot(self) -> dict:
        """A plain-dict copy for control-channel reporting."""
        return asdict(self)


class _Link:
    """Outbound state towards one peer, and every transition of it.

    Each method runs to completion inside one event-loop callback, so
    no transition ever sees another half done; :meth:`flush` is the one
    gate every queued frame leaves through.
    """

    __slots__ = (
        "pid", "peer", "rng", "queue", "base", "next", "writer", "paused",
        "held", "dropped", "delay", "timer",
    )

    def __init__(self, pid: int, peer: int, rng: random.Random) -> None:
        self.pid = pid
        self.peer = peer
        #: Draws the jitter of a delay spike.
        self.rng = rng
        #: Frames sent (or waiting to be) and not yet acked, oldest first.
        self.queue: deque[bytes] = deque()
        #: Global stream index of ``queue[0]`` — how many frames to this
        #: peer have been acked (and dequeued) so far.
        self.base = 0
        #: Global stream index of the next frame to put on the socket;
        #: meaningful while ``writer`` is set.
        self.next = 0
        #: The connection's transport once the handshake is complete,
        #: ``None`` while disconnected.
        self.writer: asyncio.WriteTransport | None = None
        #: True between the connection's ``pause_writing`` and
        #: ``resume_writing``: the socket buffer is above its high-water
        #: mark, so frames stay in ``queue`` instead of piling up there.
        self.paused = False
        #: The link faults switched on (:meth:`Transport.set_link_fault`):
        #: ``hold``, ``drop``, and a delay spike's ``(extra, jitter)``.
        self.held = False
        self.dropped = False
        self.delay: tuple[float, float] | None = None
        #: Armed while a delay spike's wait runs; its end flushes.
        self.timer: asyncio.TimerHandle | None = None

    def flush(self, waited: bool = False) -> None:
        """Write every queued frame from the cursor on, in one write.

        The one gate: nothing is written while the link is disconnected,
        held or paused by the event loop's write back-pressure (whoever
        lifts that state calls this again). Under a delay spike the
        first call arms one wait, and everything queued until it ends
        leaves together when the timer calls back with *waited* set.
        """
        if waited:
            self.timer = None
        if self.writer is None or self.held or self.paused:
            return
        queue = self.queue
        offset = self.next - self.base
        pending = len(queue) - offset
        if pending <= 0:
            return
        if self.delay is not None and not waited:
            if self.timer is None:
                extra, jitter = self.delay
                self.timer = asyncio.get_running_loop().call_later(
                    extra + self.rng.uniform(0.0, jitter), self.flush, True
                )
            return
        self.writer.write(b"".join(islice(queue, offset, None)))
        self.next += pending

    def ack(self, count: int) -> None:
        """Dequeue every frame the receiver has now delivered."""
        queue = self.queue
        while self.base < count and queue:
            queue.popleft()
            self.base += 1

    def connect(self, writer: asyncio.WriteTransport, resume: int) -> None:
        """Start writing to *writer* at the receiver's resume point.

        The resume point is how many of our frames the receiver has
        delivered. Anything below it was received even if the ack got
        lost with the previous connection; transmission restarts exactly
        there, so the stream is exactly-once and in-order end to end.
        """
        narrate(
            "transport",
            self.pid,
            f"connected to p{self.peer}: resume={resume} "
            f"base={self.base} queued={len(self.queue)}",
        )
        self.ack(resume)
        # A resume point below our base means the peer endpoint is fresh
        # (fail-stop processes do not restart; a new endpoint at the old
        # address starts a new incarnation): frames already acked by the
        # predecessor are gone, so transmission continues from the first
        # unacked frame.
        self.next = max(resume, self.base)
        self.writer = writer
        self.flush()


class _Connection(asyncio.BufferedProtocol):
    """One TCP connection between two transports, seen from either end.

    The dialing end (*link* given) writes a HELLO and then frames, and
    reads cumulative frame counts: the first is the receiver's resume
    point, which connects the link; the rest are acks. The accepting end
    (no *link*) reads the HELLO and then frames, and writes those counts.

    Buffer ownership: the connection owns its receive buffer. The event
    loop fills the view :meth:`get_buffer` returned and reports through
    :meth:`buffer_updated`, which acts on everything complete before it
    returns, hands out copies only (``bytes`` frames, ``int`` counts)
    and moves the unparsed remainder to the front — once per fill.
    Nothing outside this class ever holds a view into the buffer, so it
    may be compacted or replaced between fills.
    """

    def __init__(self, owner: Transport, link: _Link | None = None) -> None:
        self._owner = owner
        self._link = link
        self._loop = asyncio.get_running_loop()
        self._size = RECV_BUFFER if link is None else COUNT_BUFFER
        self._view = memoryview(bytearray(self._size))
        #: Bytes at the front of the buffer not parsed yet.
        self._filled = 0
        if link is None:
            self._parse = self._read_frames
        else:
            self._parse = self._read_counts
            #: Resolves when the connection is gone; the sender task
            #: awaits it and then redials.
            self.lost: asyncio.Future[None] = self._loop.create_future()
        self.transport: asyncio.Transport | None = None
        #: Accepting end: the dialing pid once its HELLO was read.
        self.peer: int | None = None
        #: Accepting end: armed while frames were delivered that no ack
        #: covers yet.
        self.ack_timer: asyncio.TimerHandle | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        if self._link is None:
            self._owner._inbound.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        link = self._link
        if link is None:
            if self.ack_timer is not None:
                self.ack_timer.cancel()
            self._owner._inbound.discard(self)
            return
        # Disconnected now, not when the sender task gets to run: no
        # flush may write through to a dead socket.
        link.writer = None
        link.paused = False
        # Cancelling the sender task (close()) cancels this future too.
        if not self.lost.done():
            self.lost.set_result(None)

    def pause_writing(self) -> None:
        if self._link is not None:
            self._link.paused = True

    def resume_writing(self) -> None:
        link = self._link
        if link is not None:
            link.paused = False
            link.flush()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view[self._filled :]

    def buffer_updated(self, nbytes: int) -> None:
        end = self._filled + nbytes
        try:
            consumed, need = self._parse(end)
        except NetworkError as exc:
            # Bytes that do not parse: drop the connection. The peer
            # redials and resumes at the delivered count, i.e. at the
            # offending frame, so line corruption heals and a sender
            # that really emits garbage stays loudly disconnected.
            narrate("transport", self._owner.pid, f"closing connection: {exc}")
            self.transport.close()
            return
        rest = end - consumed
        size = max(need, self._size)
        if size != len(self._view):
            # A frame larger than the buffer is on its way (or has just
            # been consumed): move to a buffer of its size (or back).
            view = memoryview(bytearray(size))
            view[:rest] = self._view[consumed:end]
            self._view = view
        elif consumed and rest:
            self._view[:rest] = self._view[consumed:end]
        self._filled = rest

    def _read_counts(self, end: int) -> tuple[int, int]:
        """Dialing end: take every complete cumulative count."""
        consumed = end - end % _COUNT.size
        link = self._link
        for offset in range(0, consumed, _COUNT.size):
            (count,) = _COUNT.unpack_from(self._view, offset)
            if link.writer is self.transport:
                link.ack(count)
            else:
                link.connect(self.transport, count)
        return consumed, 0

    def _read_frames(self, end: int) -> tuple[int, int]:
        """Accepting end: deliver every complete frame."""
        frames, consumed, need = _scan_frames(self._view, end, MAX_FRAME_SIZE)
        owner = self._owner
        for frame in frames:
            peer = self.peer
            if peer is None:
                self.peer = peer = owner._greet(frame)
                # Resume point: how many of this incarnation's frames
                # were already delivered (over any connection).
                self.transport.write(_COUNT.pack(owner._delivered[peer]))
                continue
            message = decode_message(frame)
            if message.src != peer or message.dst != owner.pid:
                # A peer speaks only as itself, and only to us.
                raise NetworkError(f"{message} on the connection from p{peer} to p{owner.pid}")
            owner._delivered[peer] += 1
            owner.stats.messages_received += 1
            owner._on_message(message)
            if self.ack_timer is None:
                self.ack_timer = self._loop.call_later(ACK_INTERVAL, self.send_ack)
        return consumed, need

    def send_ack(self) -> None:
        """Write the cumulative ack for this connection's peer."""
        self.ack_timer = None
        self.transport.write(_COUNT.pack(self._owner._delivered[self.peer]))


class Transport:
    """One process's TCP endpoint in a live group.

    Args:
        pid: This process's identifier.
        addresses: ``pid -> (host, port)`` for the whole group, this
            process included (that entry is where we listen).
        on_message: Called in the event loop with every decoded message.
        initial_backoff: First reconnect delay in seconds.
        max_backoff: Backoff cap in seconds.
        resume_points: ``peer -> (incarnation nonce, delivered count)``
            restored from a previous incarnation's WAL snapshot (crash
            recovery): a restarted endpoint answers reconnecting peers
            with these counts, so frames its predecessor already
            delivered are not replayed into the recovered stack. The
            stored nonce keeps the count scoped to the peer incarnation
            it was observed against.
        max_unacked: Per-peer cap on frames queued but not yet acked;
            :attr:`congested` turns true while any queue is at or above
            it. The transport itself never blocks or drops — the cap is
            a *credit signal* the arrival scheduler consults before
            offering more load (see PROTOCOLS.md, "Backpressure").
        rng: Randomness for the reconnect jitter (injectable for tests).
    """

    def __init__(
        self,
        pid: int,
        addresses: dict[int, tuple[str, int]],
        on_message: MessageHandler,
        *,
        initial_backoff: float = 0.05,
        max_backoff: float = 1.0,
        resume_points: dict[int, tuple[int, int]] | None = None,
        max_unacked: int | None = None,
        rng: random.Random | None = None,
    ) -> None:
        if pid not in addresses:
            raise NetworkError(f"addresses lack an entry for this process ({pid})")
        self.pid = pid
        self.stats = TransportStats()
        self.max_unacked = max_unacked
        self._addresses = dict(addresses)
        self._on_message = on_message
        self._initial_backoff = initial_backoff
        self._max_backoff = max_backoff
        self._rng = rng if rng is not None else random.Random()
        #: This endpoint's incarnation identity, presented in every
        #: HELLO. Drawn from the OS, not self._rng: a restarted worker
        #: reseeds the same (seed, pid) rng and MUST still get a nonce
        #: its predecessor never used.
        self.nonce = int.from_bytes(os.urandom(8), "big")
        self._links: dict[int, _Link] = {
            peer: _Link(pid, peer, self._rng) for peer in addresses if peer != pid
        }
        #: Serialize-once rule for fan-out (the live twin of the
        #: simulator's ``first_copy``): the payload most recently encoded
        #: and its JSON text. Keyed by identity — the strong reference
        #: keeps the id from being reused — so a ``SendToAll``, or a run
        #: of ``Send`` actions carrying one payload object, encodes it
        #: for the first destination only. Payloads are values: nothing
        #: mutates one after handing it to ``send()``.
        self._last_payload: object = None
        self._last_payload_json = "null"
        #: How many frames from each peer were delivered to ``on_message``;
        #: persists across that peer's reconnects (the resume point),
        #: scoped to the peer incarnation in ``_peer_nonce``.
        self._delivered: dict[int, int] = {}
        self._peer_nonce: dict[int, int] = {}
        for peer, (nonce, count) in (resume_points or {}).items():
            self._peer_nonce[peer] = nonce
            self._delivered[peer] = count
        self._server: asyncio.base_events.Server | None = None
        self._sender_tasks: list[asyncio.Task] = []
        self._inbound: set[_Connection] = set()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and begin dialing every peer."""
        host, port = self._addresses[self.pid]
        self._server = await asyncio.get_running_loop().create_server(
            partial(_Connection, self), host, port
        )
        for peer, link in self._links.items():
            task = asyncio.create_task(
                self._dial(link), name=f"transport.p{self.pid}->p{peer}"
            )
            self._sender_tasks.append(task)

    async def close(self) -> None:
        """Stop dialing and delay waits, close the server and every connection.

        A pending cumulative ack is written first, so a graceful
        shutdown leaves the senders' retransmit queues trimmed to what
        this endpoint really has not delivered.
        """
        self._closed = True
        for task in self._sender_tasks:
            task.cancel()
        await asyncio.gather(*self._sender_tasks, return_exceptions=True)
        self._sender_tasks.clear()
        for link in self._links.values():
            if link.timer is not None:
                link.timer.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for inbound in list(self._inbound):
            if inbound.ack_timer is not None:
                inbound.ack_timer.cancel()
                inbound.send_ack()
            inbound.transport.close()
        self._inbound.clear()

    async def _dial(self, link: _Link) -> None:
        """Keep one connection to *link*'s peer open: dial, HELLO, redial.

        The connection's read callback connects the link when the
        receiver's resume point arrives; from then on frames go out
        through :meth:`_Link.flush`, never through this task.
        """
        loop = asyncio.get_running_loop()
        backoff = self._initial_backoff
        while not self._closed:
            try:
                writer, connection = await loop.create_connection(
                    partial(_Connection, self, link), *self._addresses[link.peer]
                )
            except OSError:
                pass
            else:
                backoff = self._initial_backoff
                try:
                    writer.write(encode_frame(hello_frame(self.pid, self.nonce)))
                    await connection.lost
                finally:
                    writer.close()
                self.stats.reconnects += 1
            await asyncio.sleep(backoff)
            backoff = next_backoff(
                self._rng, self._initial_backoff, backoff, self._max_backoff
            )

    # -- sending -----------------------------------------------------------

    def send(self, message: NetMessage) -> None:
        """Queue *message* and, link permitting, write it out (never blocks).

        FIFO per destination: frames enter the peer's queue in ``send()``
        call order and :meth:`_Link.flush` is the only thing that moves
        the transmit cursor, always forward over that queue. While the
        link is connected and neither held, delayed nor paused by the
        event loop's write back-pressure, the frame is written to the
        socket here; otherwise whoever lifts that state flushes it.
        """
        if self._closed:
            return
        link = self._links.get(message.dst)
        if link is None:
            raise NetworkError(f"message to unknown process: {message}")
        if link.dropped:
            self.stats.messages_dropped += 1
            return
        payload = message.payload
        if payload is not self._last_payload:
            self._last_payload_json = encode_text(payload)
            self._last_payload = payload
        link.queue.append(
            encode_frame(encode_message(message, self._last_payload_json))
        )
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += message.wire_size
        stats.payload_bytes_sent += message.payload_size
        link.flush()

    def unacked_to(self, peer: int) -> int:
        """Frames to *peer* not yet acked by its receiver (== queued)."""
        return len(self._links[peer].queue)

    @property
    def congested(self) -> bool:
        """Whether any peer's unacked queue is at the configured cap.

        The transport's credit signal: while true, the worker's arrival
        scheduler stops offering load (counting ``backpressure_stalls``)
        instead of growing an unbounded frame queue toward a slow or
        partitioned peer.
        """
        if self.max_unacked is None:
            return False
        cap = self.max_unacked
        return any(len(link.queue) >= cap for link in self._links.values())

    def delivered_counts(self) -> dict[int, tuple[int, int]]:
        """``peer -> (nonce, delivered count)`` — the WAL resume snapshot."""
        return {
            peer: (self._peer_nonce.get(peer, 0), count)
            for peer, count in self._delivered.items()
        }

    # -- fault injection (driven by `repro nemesis --live`) ----------------

    def set_link_fault(
        self,
        peers: Iterable[int],
        verb: LinkVerb,
        on: bool,
        extra: float = 0.0,
        jitter: float = 0.0,
    ) -> None:
        """Switch the link fault *verb* on or off towards *peers* (other
        pids are ignored); switching one off flushes what it queued.

        ``hold`` queues every frame (a HOLD-mode partition: nothing is
        lost, everything is late, as in the simulator); ``drop``
        discards every new frame; ``delay`` waits ``extra + U(0,
        jitter)`` seconds before a write, and the frames queued during
        one wait leave together, so a spike adds latency without capping
        the link's rate at one frame per wait.
        """
        for peer in peers:
            link = self._links.get(peer)
            if link is None:
                continue
            if verb is LinkVerb.HOLD:
                link.held = on
            elif verb is LinkVerb.DROP:
                link.dropped = on
            else:
                link.delay = (extra, jitter) if on else None
            if not on:
                link.flush()

    # -- receiving ---------------------------------------------------------

    def _greet(self, frame: bytes) -> int:
        """Take an inbound HELLO; returns the dialing pid.

        Leaves ``_delivered[pid]`` at that incarnation's resume point.
        """
        peer, nonce = parse_hello(frame)
        if peer not in self._links:
            raise NetworkError(f"HELLO from p{peer}, which is not a peer of p{self.pid}")
        known = self._peer_nonce.get(peer) == nonce
        narrate(
            "transport",
            self.pid,
            f"inbound hello from p{peer}: nonce "
            f"{'match' if known else 'NEW'}, "
            f"resume={self._delivered.get(peer, 0) if known else 0}",
        )
        if not known:
            # New peer incarnation (first contact, or a crash-recovered
            # restart): its stream starts over at frame zero. The
            # recovered stack layer dedups re-sent messages.
            self._peer_nonce[peer] = nonce
            self._delivered[peer] = 0
        return peer
