"""TCP transport: round-trips, per-peer FIFO, reconnect with backoff.

Plain ``asyncio.run()`` drivers (no pytest-asyncio in the toolchain);
each test owns its loop and closes every transport it opened.
"""

import asyncio
import random
import socket
import struct

import pytest

from repro.live import transport as transport_module
from repro.live.deploy import LinkVerb
from repro.live.transport import (
    FrameDecoder,
    Transport,
    encode_frame,
    hello_frame,
    next_backoff,
    parse_hello,
)
from repro.net.message import NetMessage, encode_message
from repro.net.wire import WIRE_FORMAT_VERSION
from tests.harness import envelope, payload_span


def message(src: int, dst: int, seq: int) -> NetMessage:
    return NetMessage(
        kind="test",
        module="abcast",
        src=src,
        dst=dst,
        payload=seq,
        payload_size=8,
        header_size=4,
    )


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def wait_for(predicate, timeout=5.0, poll=0.005):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(poll)


def make_pair(addresses, received):
    """Two transports whose inbound messages land in ``received[pid]``."""
    return [
        Transport(pid, addresses, lambda m, pid=pid: received[pid].append(m))
        for pid in (0, 1)
    ]


class TestRoundtrip:
    def test_send_and_receive_both_directions(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a, b = make_pair(addresses, received)
            await a.start()
            await b.start()
            try:
                a.send(message(0, 1, 1))
                b.send(message(1, 0, 2))
                await wait_for(lambda: received[1] and received[0])
            finally:
                await a.close()
                await b.close()
            assert received[1][0].payload == 1
            assert received[1][0].src == 0
            assert received[0][0].payload == 2
            assert a.stats.messages_sent == 1
            assert b.stats.messages_received == 1

        asyncio.run(run())

    def test_fifo_under_concurrent_sends(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a, b = make_pair(addresses, received)
            await a.start()
            await b.start()
            total = 200
            try:
                # Interleave bursts with yields so sends race the writer
                # task instead of queueing up-front in one block.
                for seq in range(total):
                    a.send(message(0, 1, seq))
                    if seq % 10 == 0:
                        await asyncio.sleep(0)
                await wait_for(lambda: len(received[1]) == total)
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == list(range(total))

        asyncio.run(run())


class TestReconnect:
    def test_peer_that_starts_late_gets_the_backlog(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a = Transport(
                0, addresses, received[0].append, initial_backoff=0.01, max_backoff=0.05
            )
            await a.start()
            try:
                for seq in range(5):
                    a.send(message(0, 1, seq))
                await asyncio.sleep(0.05)  # several failed dials
                assert a.unacked_to(1) == 5
                b = Transport(1, addresses, received[1].append)
                await b.start()
                try:
                    await wait_for(lambda: len(received[1]) == 5)
                finally:
                    await b.close()
            finally:
                await a.close()
            assert [m.payload for m in received[1]] == list(range(5))

        asyncio.run(run())

    def test_restarted_peer_gets_queued_messages_in_order(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a = Transport(
                0, addresses, received[0].append, initial_backoff=0.01, max_backoff=0.05
            )
            b = Transport(1, addresses, received[1].append)
            await a.start()
            await b.start()
            try:
                a.send(message(0, 1, 0))
                await wait_for(lambda: received[1])
                await b.close()  # the peer dies

                for seq in range(1, 6):
                    a.send(message(0, 1, seq))
                await asyncio.sleep(0.05)  # writes fail, frames stay queued

                b2 = Transport(1, addresses, received[1].append)
                await b2.start()
                try:
                    await wait_for(lambda: len(received[1]) >= 6)
                finally:
                    await b2.close()
            finally:
                await a.close()
            # Exactly-once and in order across the outage: the resume
            # point told the sender where to restart, the ack protocol
            # kept unacked frames queued.
            assert [m.payload for m in received[1]] == list(range(6))
            assert a.stats.reconnects >= 1

        asyncio.run(run())

    def test_exactly_once_across_consecutive_reconnects(self):
        """Two receiver restarts in a row, resume points carried across.

        Each incarnation snapshots ``delivered_counts()`` (what the
        worker's WAL checkpoint persists) and the next one starts from
        it — so across two consecutive outages with traffic queued
        during each, the stream stays exactly-once and in order.
        """

        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a = Transport(
                0, addresses, received[0].append, initial_backoff=0.01, max_backoff=0.05
            )
            await a.start()
            seq = 0
            resume = {}
            try:
                for outage in range(2):
                    b = Transport(
                        1, addresses, received[1].append, resume_points=resume
                    )
                    await b.start()
                    for __ in range(3):
                        a.send(message(0, 1, seq))
                        seq += 1
                    await wait_for(lambda: len(received[1]) == seq)
                    resume = b.delivered_counts()
                    await b.close()  # outage: frames sent now stay queued
                    for __ in range(2):
                        a.send(message(0, 1, seq))
                        seq += 1
                    await asyncio.sleep(0.03)
                b = Transport(1, addresses, received[1].append, resume_points=resume)
                await b.start()
                try:
                    await wait_for(lambda: len(received[1]) == seq)
                    await asyncio.sleep(0.05)  # no late duplicates either
                finally:
                    await b.close()
            finally:
                await a.close()
            assert [m.payload for m in received[1]] == list(range(seq))

        asyncio.run(run())

    def test_mid_frame_outage_does_not_lose_or_duplicate(self):
        """The connection dies with a torn length-prefix on the wire.

        A raw accept loop plays the receiver: it completes the HELLO /
        resume-point handshake, reads half a frame, and disconnects
        without ever acking. A real transport then takes over the same
        port; the sender must retransmit from the resume point — the
        torn frame arrives exactly once, nothing is skipped.
        """

        async def run():
            port = free_port()
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", port)}
            received = {0: [], 1: []}
            half_read = asyncio.Event()

            async def flaky_receiver(reader, writer):
                decoder = FrameDecoder()
                data = await reader.read(64 * 1024)
                frames = decoder.feed(data)
                assert frames, "expected the HELLO first"
                parse_hello(frames[0])
                writer.write(struct.pack(">Q", 0))  # resume point: nothing yet
                await writer.drain()
                # Read a few bytes — at most half the first data frame,
                # cutting it inside the 4-byte length prefix or body —
                # then drop the connection without acking.
                while decoder.pending_bytes < 2:
                    chunk = await reader.read(2)
                    if not chunk:
                        break
                    decoder.feed(chunk)
                writer.close()
                half_read.set()

            flaky = await asyncio.start_server(flaky_receiver, "127.0.0.1", port)
            a = Transport(
                0, addresses, received[0].append, initial_backoff=0.01, max_backoff=0.05
            )
            await a.start()
            try:
                for seq in range(4):
                    a.send(message(0, 1, seq))
                await asyncio.wait_for(half_read.wait(), 5.0)
                flaky.close()
                await flaky.wait_closed()
                b = Transport(1, addresses, received[1].append)
                await b.start()
                try:
                    await wait_for(lambda: len(received[1]) == 4)
                finally:
                    await b.close()
            finally:
                await a.close()
            assert [m.payload for m in received[1]] == [0, 1, 2, 3]

        asyncio.run(run())

    def test_restarted_sender_incarnation_is_not_resumed_at_old_count(self):
        """A fresh endpoint at an old address starts its stream at zero.

        Without the incarnation nonce the receiver would answer the new
        sender with the dead incarnation's delivered count, and the new
        stream's first messages would be silently swallowed (the
        restarted worker could then never ask for state transfer).
        """

        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            b = Transport(1, addresses, received[1].append)
            await b.start()
            a = Transport(0, addresses, received[0].append)
            await a.start()
            try:
                for seq in range(3):
                    a.send(message(0, 1, seq))
                await wait_for(lambda: len(received[1]) == 3)
                await a.close()  # the sender process dies...
                a2 = Transport(  # ...and restarts: new incarnation
                    0, addresses, received[0].append,
                    initial_backoff=0.01, max_backoff=0.05,
                )
                assert a2.nonce != a.nonce
                await a2.start()
                try:
                    a2.send(message(0, 1, 100))
                    await wait_for(lambda: len(received[1]) == 4)
                finally:
                    await a2.close()
            finally:
                await b.close()
            assert [m.payload for m in received[1]] == [0, 1, 2, 100]
            # The receiver's count was reset for the new incarnation.
            nonce, count = b.delivered_counts()[0]
            assert nonce == a2.nonce
            assert count == 1

        asyncio.run(run())

    def test_one_peer_restart_counts_one_reconnect(self):
        async def run():
            received = {0: [], 1: []}
            a, b = await started_pair(received, initial_backoff=0.01, max_backoff=0.05)
            try:
                await b.close()  # the peer dies...
                a.send(message(0, 1, 0))
                await asyncio.sleep(0.05)  # ...and refused redials are no reconnects
                b2 = Transport(1, a._addresses, received[1].append)
                await b2.start()
                try:
                    await wait_for(lambda: received[1])
                    assert a.stats.reconnects == 1
                finally:
                    await b2.close()
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == [0]

        asyncio.run(run())

    def test_wal_resume_points_skip_already_delivered_frames(self):
        """A restarted receiver answers with its persisted resume point."""

        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            b = Transport(1, addresses, received[1].append)
            await b.start()
            a = Transport(
                0, addresses, received[0].append, initial_backoff=0.01, max_backoff=0.05
            )
            await a.start()
            try:
                for seq in range(3):
                    a.send(message(0, 1, seq))
                await wait_for(lambda: len(received[1]) == 3)
                snapshot = b.delivered_counts()  # what the WAL would hold
                await b.close()  # the receiver process dies
                for seq in range(3, 5):
                    a.send(message(0, 1, seq))  # queued during the outage
                b2 = Transport(
                    1, addresses, received[1].append, resume_points=snapshot
                )
                await b2.start()
                try:
                    await wait_for(lambda: len(received[1]) == 5)
                    # Nothing the first incarnation already delivered is
                    # replayed into the restarted endpoint.
                    await asyncio.sleep(0.05)
                finally:
                    await b2.close()
            finally:
                await a.close()
            assert [m.payload for m in received[1]] == [0, 1, 2, 3, 4]

        asyncio.run(run())


async def dial_tasks_stop_cleanly(transport):
    """Close *transport* with its dial tasks parked wherever they are:
    ``close()`` returns, and every task ends cancelled, not failed."""
    tasks = list(transport._sender_tasks)
    assert tasks and not any(task.done() for task in tasks)
    await asyncio.wait_for(transport.close(), timeout=2.0)
    assert all(task.cancelled() for task in tasks)
    prefix = f"transport.p{transport.pid}->"
    assert not [
        task for task in asyncio.all_tasks()
        if task.get_name().startswith(prefix) and not task.done()
    ]


async def a_new_transport_delivers_in_order(addresses, received):
    """A fresh incarnation of p0 reaches p1, every frame once, in order."""
    received[1].clear()
    a2 = Transport(0, addresses, received[0].append)
    await a2.start()
    try:
        for seq in range(5):
            a2.send(message(0, 1, seq))
        await wait_for(lambda: len(received[1]) == 5)
    finally:
        await a2.close()
    assert [m.payload for m in received[1]] == list(range(5))


class TestDialCancellation:
    """``close()`` cancels the dial task at each of its three awaits."""

    def test_cancelled_inside_create_connection(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            loop = asyncio.get_running_loop()
            dialing = asyncio.Event()

            async def never_connects(*args, **kwargs):
                dialing.set()
                await loop.create_future()

            loop.create_connection = never_connects
            a = Transport(0, addresses, received[0].append)
            await a.start()
            await asyncio.wait_for(dialing.wait(), timeout=2.0)
            await dial_tasks_stop_cleanly(a)
            del loop.create_connection
            assert a._links[1].writer is None
            assert a.stats.reconnects == 0
            b = Transport(1, addresses, received[1].append)
            await b.start()
            try:
                await a_new_transport_delivers_in_order(addresses, received)
            finally:
                await b.close()

        asyncio.run(run())

    def test_cancelled_while_connected(self):
        async def run():
            received = {0: [], 1: []}
            a, b = await started_pair(received)
            try:
                writer = a._links[1].writer
                assert writer is not None and not writer.is_closing()
                await dial_tasks_stop_cleanly(a)  # parked on connection.lost
                assert writer.is_closing()
                assert a.stats.reconnects == 0  # closing is no reconnect
                await a_new_transport_delivers_in_order(a._addresses, received)
            finally:
                await b.close()

        asyncio.run(run())

    def test_cancelled_in_the_backoff_sleep(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            # The peer listens first, so the one dial under a 30 s backoff
            # succeeds.
            b = Transport(1, addresses, received[1].append)
            await b.start()
            a = Transport(
                0, addresses, received[0].append, initial_backoff=30.0, max_backoff=30.0
            )
            await a.start()
            try:
                a.send(message(0, 1, -1))
                await wait_for(lambda: received[1])
                writer = a._links[1].writer
                await b.close()  # the peer goes away by itself: one reconnect...
                await wait_for(lambda: a.stats.reconnects == 1)
                assert writer.is_closing()
                await dial_tasks_stop_cleanly(a)  # ...then a 30 s backoff sleep
                assert a.stats.reconnects == 1
            finally:
                await a.close()
            b2 = Transport(1, a._addresses, received[1].append)
            await b2.start()
            try:
                await a_new_transport_delivers_in_order(a._addresses, received)
            finally:
                await b2.close()

        asyncio.run(run())


class TestBackoff:
    def test_next_backoff_stays_within_decorrelated_jitter_bounds(self):
        rng = random.Random(42)
        initial, cap = 0.05, 1.0
        previous = initial
        for __ in range(200):
            nxt = next_backoff(rng, initial, previous, cap)
            assert initial <= nxt <= min(cap, max(initial, previous * 3.0))
            previous = nxt

    def test_backoff_is_capped(self):
        rng = random.Random(7)
        value = 0.05
        for __ in range(50):
            value = next_backoff(rng, 0.05, value, 1.0)
            assert value <= 1.0

    def test_two_seeded_streams_decorrelate(self):
        """Peers redialing after one partition must not march in step."""
        a, b = random.Random(1), random.Random(2)
        seq_a, seq_b = [], []
        prev_a = prev_b = 0.05
        for __ in range(10):
            prev_a = next_backoff(a, 0.05, prev_a, 1.0)
            prev_b = next_backoff(b, 0.05, prev_b, 1.0)
            seq_a.append(prev_a)
            seq_b.append(prev_b)
        assert seq_a != seq_b


class TestFaultHooks:
    """``set_link_fault`` over every verb, switched on and then off."""

    @pytest.mark.parametrize(
        "verb, unacked_while_on, delivered, dropped",
        [
            (LinkVerb.HOLD, 3, [0, 1, 2, 3], 0),  # held, not lost
            (LinkVerb.DROP, 0, [3], 3),  # discarded, never queued
            (LinkVerb.DELAY, 3, [0, 1, 2, 3], 0),  # late, not lost
        ],
        ids=["hold", "drop", "delay"],
    )
    def test_on_then_off(self, verb, unacked_while_on, delivered, dropped):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a, b = make_pair(addresses, received)
            await a.start()
            await b.start()
            try:
                a.set_link_fault({1}, verb, True, extra=10.0)
                for seq in range(3):
                    a.send(message(0, 1, seq))
                await asyncio.sleep(0.05)
                assert received[1] == []
                assert a.unacked_to(1) == unacked_while_on
                a.set_link_fault({1}, verb, False)
                a.send(message(0, 1, 3))
                await wait_for(lambda: len(received[1]) == len(delivered))
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == delivered
            assert a.stats.messages_dropped == dropped

        asyncio.run(run())

    def test_congested_signals_at_the_unacked_cap(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a = Transport(0, addresses, received[0].append, max_unacked=4)
            b = Transport(1, addresses, received[1].append)
            await a.start()
            await b.start()
            try:
                assert not a.congested
                a.set_link_fault({1}, LinkVerb.HOLD, True)  # a slow consumer, in effect
                for seq in range(4):
                    a.send(message(0, 1, seq))
                assert a.congested  # at the cap: stop offering load
                a.set_link_fault({1}, LinkVerb.HOLD, False)
                await wait_for(lambda: len(received[1]) == 4)
                await wait_for(lambda: not a.congested)
            finally:
                await a.close()
                await b.close()

        asyncio.run(run())


async def started_pair(received, **kwargs):
    """A connected pair: returns once a frame has crossed 0 -> 1."""
    addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
    a = Transport(0, addresses, received[0].append, **kwargs)
    b = Transport(1, addresses, received[1].append)
    await a.start()
    await b.start()
    a.send(message(0, 1, -1))
    await wait_for(lambda: received[1])
    received[1].clear()
    return a, b


def queued_documents(transport, peer):
    """The envelopes, by field name, sitting in *transport*'s queue for *peer*."""
    decoder = FrameDecoder()
    frames = decoder.feed(b"".join(transport._links[peer].queue))
    return [envelope(frame) for frame in frames]


def payload_bytes(frame: bytes) -> bytes:
    """The payload's JSON text inside a framed message."""
    return frame[4:][payload_span(frame[4:])]


class TestWriteThrough:
    def test_frame_is_on_the_socket_when_send_returns(self):
        async def run():
            received = {0: [], 1: []}
            a, b = await started_pair(received)
            try:
                link = a._links[1]
                a.send(message(0, 1, 0))
                # No await since send(): the sender task cannot have run.
                assert link.next == link.base + len(link.queue)
                await wait_for(lambda: received[1])
            finally:
                await a.close()
                await b.close()

        asyncio.run(run())

    def test_order_when_sends_interleave_with_a_held_backlog(self):
        async def run():
            received = {0: [], 1: []}
            a, b = await started_pair(received)
            try:
                a.set_link_fault({1}, LinkVerb.HOLD, True)
                for seq in range(3):
                    a.send(message(0, 1, seq))
                await asyncio.sleep(0.02)
                assert received[1] == []
                a.set_link_fault({1}, LinkVerb.HOLD, False)
                # Written through at once, ahead of the sender task's
                # wake-up: the backlog must still go first.
                for seq in range(3, 6):
                    a.send(message(0, 1, seq))
                await wait_for(lambda: len(received[1]) == 6)
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == list(range(6))

        asyncio.run(run())

    def test_order_when_sends_interleave_with_a_delayed_backlog(self):
        async def run():
            received = {0: [], 1: []}
            a, b = await started_pair(received)
            try:
                a.set_link_fault({1}, LinkVerb.DELAY, True, 0.05)
                for seq in range(3):
                    a.send(message(0, 1, seq))
                await asyncio.sleep(0.01)  # the sender task is mid-sleep
                assert received[1] == []
                a.set_link_fault({1}, LinkVerb.DELAY, False)
                for seq in range(3, 6):
                    a.send(message(0, 1, seq))
                await wait_for(lambda: len(received[1]) == 6)
                await asyncio.sleep(0.08)  # the sleep ends: nothing is resent
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == list(range(6))

        asyncio.run(run())

    def test_frames_queued_during_one_delay_sleep_leave_together(self):
        async def run():
            received = {0: [], 1: []}
            a, b = await started_pair(received)
            try:
                a.set_link_fault({1}, LinkVerb.DELAY, True, 0.03)
                for seq in range(20):
                    a.send(message(0, 1, seq))
                # 20 sleeps in series would take 0.6 s.
                await wait_for(lambda: len(received[1]) == 20, timeout=0.4)
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == list(range(20))

        asyncio.run(run())


class TestOneGate:
    """``_Link.flush`` is the only way out of the queue: a delay wait,
    a HOLD and a cleared delay all end in it, and none of them can move
    the cursor past the queue or write a frame twice."""

    def test_a_delay_that_ends_while_held_writes_nothing_until_one_more_wait(self):
        async def run():
            received = {0: [], 1: []}
            a, b = await started_pair(received)
            try:
                link = a._links[1]
                a.set_link_fault({1}, LinkVerb.DELAY, True, 0.03)
                for seq in range(3):
                    a.send(message(0, 1, seq))
                cursor = link.next
                assert link.timer is not None  # one wait for all three
                a.set_link_fault({1}, LinkVerb.HOLD, True)
                await wait_for(lambda: link.timer is None)  # the wait ends, held
                assert link.next == cursor
                assert received[1] == []
                a.set_link_fault({1}, LinkVerb.HOLD, False)
                # No await since the release: the backlog waits once more.
                assert link.timer is not None
                assert link.next == cursor
                await wait_for(lambda: len(received[1]) == 3)
                await asyncio.sleep(0.05)  # nothing leaves twice
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == [0, 1, 2]

        asyncio.run(run())

    def test_set_clear_and_set_a_delay_within_one_wait(self):
        async def run():
            received = {0: [], 1: []}
            a, b = await started_pair(received)
            link = a._links[1]

            def cursor_within_queue():
                assert link.next <= link.base + len(link.queue)
                return True

            try:
                a.set_link_fault({1}, LinkVerb.DELAY, True, 0.05)
                for seq in range(3):
                    a.send(message(0, 1, seq))
                assert link.next == link.base + len(link.queue) - 3
                a.set_link_fault({1}, LinkVerb.DELAY, False)
                assert link.next == link.base + len(link.queue)  # out at once
                a.set_link_fault({1}, LinkVerb.DELAY, True, 0.05)
                for seq in range(3, 6):
                    a.send(message(0, 1, seq))
                    cursor_within_queue()
                await wait_for(
                    lambda: cursor_within_queue() and len(received[1]) == 6
                )
                await wait_for(lambda: cursor_within_queue() and link.timer is None)
                await asyncio.sleep(0.08)  # every armed wait has ended
                cursor_within_queue()
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == list(range(6))

        asyncio.run(run())


class TestCoalescedAcks:
    def test_back_to_back_frames_share_acks_and_the_queue_still_drains(
        self, monkeypatch
    ):
        async def run():
            received = {0: [], 1: []}
            a, b = await started_pair(received)
            acks = []
            link = a._links[1]
            apply_ack = transport_module._Link.ack

            def counting(self, count):
                if self is link:
                    acks.append(count)
                apply_ack(self, count)

            monkeypatch.setattr(transport_module._Link, "ack", counting)
            total = 300
            try:
                for seq in range(total):
                    a.send(message(0, 1, seq))
                    if seq % 10 == 9:
                        await asyncio.sleep(0)
                await wait_for(lambda: len(received[1]) == total)
                # No further traffic: the trailing ack must still come.
                await wait_for(lambda: a.unacked_to(1) == 0, timeout=1.0)
            finally:
                await a.close()
                await b.close()
            assert acks == sorted(acks)
            assert acks[-1] == total + 1  # cumulative, counting the probe frame
            assert len(acks) < total / 5

        asyncio.run(run())

    def test_close_flushes_a_pending_ack(self, monkeypatch):
        # The ack timer cannot fire on its own within this test.
        monkeypatch.setattr(transport_module, "ACK_INTERVAL", 60.0)

        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a, b = make_pair(addresses, received)
            await a.start()
            await b.start()
            try:
                a.send(message(0, 1, 0))
                await wait_for(lambda: received[1])
                assert a.unacked_to(1) == 1
                await b.close()
                await wait_for(lambda: a.unacked_to(1) == 0)
            finally:
                await a.close()
                await b.close()

        asyncio.run(run())


class TestEncodeOnce:
    def fan_out(self, payload, uid_base):
        return [
            NetMessage(
                kind="DIFFUSE",
                module="abcast",
                src=0,
                dst=dst,
                payload=payload,
                payload_size=8,
                header_size=4,
                uid=uid_base + dst,
            )
            for dst in (1, 2)
        ]

    def unstarted(self, monkeypatch):
        """A three-process endpoint that only queues, plus an encode counter."""
        calls = []
        encode_text = transport_module.encode_text

        def counting(value):
            calls.append(value)
            return encode_text(value)

        monkeypatch.setattr(transport_module, "encode_text", counting)
        addresses = {pid: ("127.0.0.1", 1) for pid in range(3)}
        return Transport(0, addresses, lambda m: None), calls

    def test_send_to_all_encodes_its_payload_once(self, monkeypatch):
        transport, calls = self.unstarted(monkeypatch)
        payload = ("one payload", 1.5, None)
        for m in self.fan_out(payload, uid_base=100):
            transport.send(m)
        assert len(calls) == 1
        frames = [transport._links[dst].queue[0] for dst in (1, 2)]
        assert payload_bytes(frames[0]) == payload_bytes(frames[1])
        documents = [queued_documents(transport, dst)[0] for dst in (1, 2)]
        assert [d["dst"] for d in documents] == [1, 2]
        assert [d["uid"] for d in documents] == [101, 102]
        for m, frame in zip(self.fan_out(payload, uid_base=100), frames):
            assert frame == encode_frame(encode_message(m))

    def test_different_payloads_in_a_row_never_share_an_entry(self, monkeypatch):
        transport, calls = self.unstarted(monkeypatch)
        first, second = ("a", 1), ("a", 2)
        equal_twin = tuple(["a", 1])  # equal to `first`, another object
        assert equal_twin == first and equal_twin is not first
        for payload in (first, second, first, equal_twin):
            transport.send(self.fan_out(payload, uid_base=0)[0])
        assert [d["payload"] for d in queued_documents(transport, 1)] == [
            ["tuple", "a", 1], ["tuple", "a", 2], ["tuple", "a", 1], ["tuple", "a", 1],
        ]
        assert len(calls) == 4  # identity, not equality; one entry, not a map

    def test_a_recycled_object_id_cannot_alias_the_cached_payload(self, monkeypatch):
        transport, __ = self.unstarted(monkeypatch)
        for seq in range(200):
            # Each payload dies right after send(); were the cache keyed
            # by a bare id(), a successor could inherit its entry.
            transport.send(self.fan_out([seq], uid_base=0)[0])
        assert [d["payload"] for d in queued_documents(transport, 1)] == [
            ["list", seq] for seq in range(200)
        ]


class TestMalformedInbound:
    def test_garbage_frame_closes_the_connection_and_the_stream_resumes(self):
        async def run():
            port = free_port()
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", port)}
            received = []
            b = Transport(1, addresses, received.append)
            await b.start()

            async def dial(frames):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_frame(hello_frame(0, nonce=7)))
                (resume,) = struct.unpack(">Q", await reader.readexactly(8))
                for frame in frames:
                    writer.write(encode_frame(frame))
                await writer.drain()
                return resume, reader, writer

            good = [encode_message(message(0, 1, seq)) for seq in range(3)]
            span = payload_span(good[1])
            assert good[1][span] == b"1"
            bad = good[1][: span.start] + b'["bytes","zz"]' + good[1][span.stop :]
            try:
                resume, reader, writer = await dial([good[0], bad, good[2]])
                assert resume == 0
                # The receiver hangs up at the bad frame (acks may precede EOF).
                assert (await asyncio.wait_for(reader.read(), 5.0))[-8:] in (
                    b"", struct.pack(">Q", 1),
                )
                writer.close()
                assert [m.payload for m in received] == [0]
                # A redial resumes at the delivered count: the offending
                # frame's slot, nothing after it was consumed.
                resume, reader, writer = await dial(good[1:])
                assert resume == 1
                await wait_for(lambda: len(received) == 3)
                writer.close()
            finally:
                await b.close()
            assert [m.payload for m in received] == [0, 1, 2]

        asyncio.run(run())

    @pytest.mark.parametrize("forged", [(2, 0), (1, 2)], ids=["src-of-another-peer", "dst-not-us"])
    def test_a_frame_that_is_not_from_the_dialer_to_us_closes_the_connection(self, forged):
        async def run():
            port = free_port()
            addresses = {pid: ("127.0.0.1", port if pid == 0 else 1) for pid in range(3)}
            received = []
            a = Transport(0, addresses, received.append)
            await a.start()

            async def dial(frames):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_frame(hello_frame(1, nonce=7)))
                (resume,) = struct.unpack(">Q", await reader.readexactly(8))
                for frame in frames:
                    writer.write(encode_frame(frame))
                await writer.drain()
                return resume, reader, writer

            good = [encode_message(message(1, 0, seq)) for seq in range(3)]
            bad = encode_message(message(*forged, 1))
            try:
                resume, reader, writer = await dial([good[0], bad, good[2]])
                assert resume == 0
                assert (await asyncio.wait_for(reader.read(), 5.0))[-8:] in (
                    b"", struct.pack(">Q", 1),
                )
                writer.close()
                assert [m.payload for m in received] == [0]
                resume, reader, writer = await dial(good[1:])
                assert resume == 1
                await wait_for(lambda: len(received) == 3)
                writer.close()
            finally:
                await a.close()
            assert [(m.src, m.payload) for m in received] == [(1, 0), (1, 1), (1, 2)]

        asyncio.run(run())

    @pytest.mark.parametrize("pid", [7, 1], ids=["unknown", "the-endpoint-itself"])
    def test_a_hello_from_a_process_that_is_not_a_peer_closes_the_connection(self, pid):
        async def run():
            port = free_port()
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", port)}
            b = Transport(1, addresses, lambda m: None)
            await b.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_frame(hello_frame(pid)))
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
            finally:
                await b.close()

        asyncio.run(run())

    def test_garbage_hello_closes_the_connection(self):
        async def run():
            port = free_port()
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", port)}
            b = Transport(1, addresses, lambda m: None)
            await b.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_frame(b'{"v": %d, "hello": "zero"}' % WIRE_FORMAT_VERSION))
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
            finally:
                await b.close()

        asyncio.run(run())


class RecordingSocket:
    """Stands in for the event loop's socket transport under a connection."""

    def __init__(self):
        self.written = bytearray()
        self.closed = False

    def write(self, data):
        self.written += data

    def close(self):
        self.closed = True


def accepted_connection(received, pid=1):
    """An accepting-end connection of an unstarted endpoint, HELLO done."""
    addresses = {0: ("127.0.0.1", 1), pid: ("127.0.0.1", 1)}
    owner = Transport(pid, addresses, received.append)
    connection = transport_module._Connection(owner)
    connection.connection_made(RecordingSocket())
    fill(connection, encode_frame(hello_frame(0, nonce=9)))
    assert connection.transport.written == struct.pack(">Q", 0)
    del connection.transport.written[:]
    return owner, connection


def fill(connection, data, at_most=None):
    """Deliver *data* the way the event loop does: into the connection's
    own buffer, at most *at_most* bytes (default: what fits) per fill."""
    view = memoryview(data)
    fills = 0
    while len(view):
        room = connection.get_buffer(-1)
        assert len(room) > 0, "a connection must always offer room"
        count = min(len(room), len(view), at_most or len(view))
        room[:count] = view[:count]
        del room
        connection.buffer_updated(count)
        view = view[count:]
        fills += 1
    return fills


def framed(seq, payload=None):
    """The wire frame of message *seq* from 0 to 1 (it carries *seq*
    unless another payload is given)."""
    m = message(0, 1, seq)
    if payload is not None:
        m.payload = payload
    return encode_frame(encode_message(m))


class TestReceivePath:
    def test_a_frame_split_across_two_fills_is_delivered_once_whole(self):
        async def run():
            received = []
            owner, connection = accepted_connection(received)
            frame = framed(7)
            for cut in (1, 3, 4, 5, len(frame) - 1):  # inside prefix, at its end, in the body
                fill(connection, frame[:cut])
                assert received == []
                fill(connection, frame[cut:])
                assert [m.payload for m in received] == [7]
                received.clear()
            assert owner.delivered_counts()[0] == (9, 5)
            connection.connection_lost(None)

        asyncio.run(run())

    def test_twelve_frames_and_a_half_in_one_fill(self):
        async def run():
            received = []
            owner, connection = accepted_connection(received)
            stream = b"".join(framed(seq) for seq in range(13))
            half = len(stream) - len(framed(12)) // 2
            assert fill(connection, stream[:half]) == 1
            assert [m.payload for m in received] == list(range(12))
            assert owner.stats.messages_received == 12
            assert fill(connection, stream[half:]) == 1
            assert [m.payload for m in received] == list(range(13))
            connection.connection_lost(None)

        asyncio.run(run())

    def test_a_frame_larger_than_the_buffer_assembles_and_the_buffer_shrinks_back(self):
        async def run():
            received = []
            owner, connection = accepted_connection(received)
            big = "x" * (3 * transport_module.RECV_BUFFER + 11)
            stream = framed(0) + framed(1, big) + framed(2) + framed(3)
            # Socket-sized reads: the big frame spans many fills.
            assert fill(connection, stream, at_most=50_000) > 4
            assert [m.payload for m in received] == [0, big, 2, 3]
            assert len(connection.get_buffer(-1)) == transport_module.RECV_BUFFER
            connection.connection_lost(None)

        asyncio.run(run())

    def test_the_largest_legal_prefix_is_accepted_and_one_more_is_not(self):
        async def run():
            received = []
            owner, connection = accepted_connection(received)
            limit = transport_module.MAX_FRAME_SIZE
            fill(connection, struct.pack(">I", limit))
            assert not connection.transport.closed
            assert len(connection.get_buffer(-1)) == limit  # room for the body
            connection.connection_lost(None)

            owner, connection = accepted_connection(received)
            fill(connection, framed(0) + struct.pack(">I", limit + 1) + framed(1))
            assert connection.transport.closed
            # Not even the frame before the bad prefix in the same fill
            # was counted: the peer resumes there and resends it.
            assert received == []
            assert owner.delivered_counts()[0] == (9, 0)
            connection.connection_lost(None)

        asyncio.run(run())

    def test_acks_arriving_in_pieces_and_in_bulk(self):
        async def run():
            addresses = {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 1)}
            owner = Transport(0, addresses, lambda m: None)
            for seq in range(10):
                owner.send(message(0, 1, seq))
            link = owner._links[1]
            connection = transport_module._Connection(owner, link)
            connection.connection_made(RecordingSocket())
            counts = b"".join(struct.pack(">Q", c) for c in (2, 3, 5, 9))
            fill(connection, counts[:5])  # the resume point, torn
            assert link.writer is not connection.transport
            fill(connection, counts[5:19])  # its rest, one ack, a torn ack
            assert link.writer is connection.transport
            assert (link.base, owner.unacked_to(1)) == (3, 7)
            fill(connection, counts[19:])
            assert (link.base, owner.unacked_to(1)) == (9, 1)
            # The dialing end's buffer is sized for counts, not frames;
            # more acks than it holds, torn at its edge, take more fills.
            size = transport_module.COUNT_BUFFER
            assert len(connection.get_buffer(-1)) == size
            bulk = struct.pack(">Q", 10) * 100
            fill(connection, bulk[:3])
            assert len(connection.get_buffer(-1)) == size - 3
            assert fill(connection, bulk[3:]) > 1
            assert (link.base, owner.unacked_to(1)) == (10, 0)
            assert len(connection.get_buffer(-1)) == size
            connection.connection_lost(None)

        asyncio.run(run())

    def test_oversized_frame_and_oversized_prefix_over_real_sockets(self):
        async def run():
            port = free_port()
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", port)}
            received = []
            b = Transport(1, addresses, received.append)
            await b.start()
            big = "y" * (5 * transport_module.RECV_BUFFER)

            async def dial(*chunks):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_frame(hello_frame(0, nonce=7)))
                (resume,) = struct.unpack(">Q", await reader.readexactly(8))
                writer.write(b"".join(chunks))
                await writer.drain()
                return resume, reader, writer

            try:
                resume, reader, writer = await dial(
                    framed(0), framed(1, big),
                    struct.pack(">I", transport_module.MAX_FRAME_SIZE + 1),
                    framed(2),
                )
                assert resume == 0
                # Hung up at the bad prefix (acks may precede the EOF).
                tail = await asyncio.wait_for(reader.read(), 5.0)
                assert len(tail) % 8 == 0
                writer.close()
                # Frames in the fill that held the bad prefix were not
                # counted; how many that is depends on the read sizes.
                delivered = len(received)
                assert [m.payload for m in received] == [0, big][:delivered]
                resume, reader, writer = await dial(
                    *[framed(0), framed(1, big), framed(2)][delivered:]
                )
                assert resume == delivered
                await wait_for(lambda: len(received) == 3)
                writer.close()
            finally:
                await b.close()
            assert [m.payload for m in received] == [0, big, 2]

        asyncio.run(run())


class TestBackPressure:
    def test_pause_writing_stops_the_cursor_and_resume_keeps_the_order(self):
        async def run():
            received = {0: [], 1: []}
            a, b = await started_pair(received)
            try:
                link = a._links[1]
                connection = link.writer.get_protocol()
                connection.pause_writing()
                for seq in range(3):
                    a.send(message(0, 1, seq))
                assert link.next == link.base + len(link.queue) - 3
                await asyncio.sleep(0.03)  # the sender task may not flush either
                assert received[1] == []
                assert link.next == link.base + len(link.queue) - 3
                connection.resume_writing()
                # Written through ahead of the sender task's wake-up:
                # the backlog must still go first.
                for seq in range(3, 6):
                    a.send(message(0, 1, seq))
                assert link.next == link.base + len(link.queue)
                await wait_for(lambda: len(received[1]) == 6)
                await asyncio.sleep(0.03)  # the woken task resends nothing
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == list(range(6))

        asyncio.run(run())

    def test_a_burst_beyond_the_socket_buffer_is_paced_by_the_event_loop(self):
        async def run():
            received = {0: [], 1: []}
            a, b = await started_pair(received)
            try:
                link = a._links[1]
                link.writer.set_write_buffer_limits(high=64 * 1024)
                blob = "z" * 200_000
                total = 60  # 12 MB: more than a localhost socket buffer takes
                for seq in range(total):
                    a.send(
                        NetMessage(
                            kind="test", module="abcast", src=0, dst=1,
                            payload=(seq, blob), payload_size=len(blob),
                            header_size=4,
                        )
                    )
                # No await since the first send: the event loop asked the
                # link to stop, and the rest stayed in the queue.
                assert link.paused
                assert link.next < link.base + len(link.queue)
                assert link.writer.get_write_buffer_size() < 2 * 1024 * 1024
                await wait_for(lambda: len(received[1]) == total, timeout=20.0)
                assert not link.paused
            finally:
                await a.close()
                await b.close()
            assert [m.payload[0] for m in received[1]] == list(range(total))
            assert all(m.payload[1] == blob for m in received[1])

        asyncio.run(run())


class TestConnectionLostWhileSenderIsSuspended:
    """``connection_lost`` disconnects the link at once (``writer = None``),
    whatever the sender task is awaiting; the task must come back,
    redial, and resume at the delivered count."""

    @staticmethod
    async def restart_peer_and_expect(a, addresses, received, expected):
        sender = a._sender_tasks[0]
        assert not sender.done(), sender
        b2 = Transport(1, addresses, received[1].append)
        await b2.start()
        try:
            await wait_for(lambda: len(received[1]) >= len(expected))
            await asyncio.sleep(0.03)  # nothing is delivered twice
        finally:
            await b2.close()
        assert not sender.done(), sender
        assert [m.payload for m in received[1]] == expected

    def test_during_the_link_delay_sleep(self):
        async def run():
            received = {0: [], 1: []}
            a, b = await started_pair(received, initial_backoff=0.01, max_backoff=0.05)
            try:
                a.set_link_fault({1}, LinkVerb.DELAY, True, 0.1)
                a.send(message(0, 1, 0))
                await asyncio.sleep(0.02)  # the sender task is mid-sleep
                await b.close()
                await wait_for(lambda: a._links[1].writer is None)
                await asyncio.sleep(0.15)  # the sleep ends on a dead link
                await self.restart_peer_and_expect(a, a._addresses, received, [0])
            finally:
                await a.close()
                await b.close()

        asyncio.run(run())

    def test_while_paused_by_write_back_pressure(self):
        async def run():
            received = {0: [], 1: []}
            a, b = await started_pair(received, initial_backoff=0.01, max_backoff=0.05)
            try:
                link = a._links[1]
                link.writer.get_protocol().pause_writing()
                for seq in range(3):
                    a.send(message(0, 1, seq))
                await asyncio.sleep(0.02)  # the sender task waits for resume
                await b.close()
                await wait_for(lambda: link.writer is None)
                a.send(message(0, 1, 3))  # queued, not written to a dead socket
                await self.restart_peer_and_expect(
                    a, a._addresses, received, [0, 1, 2, 3]
                )
                assert not link.paused
            finally:
                await a.close()
                await b.close()

        asyncio.run(run())

    def test_while_waiting_for_the_resume_point(self):
        async def run():
            # A listener that accepts and hangs up without answering the
            # HELLO, then a real peer at the same address.
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            hung_up = asyncio.Event()

            class HangUp(asyncio.Protocol):
                def data_received(self, data):
                    self.transport.close()
                    hung_up.set()

                def connection_made(self, transport):
                    self.transport = transport

            mute = await asyncio.get_running_loop().create_server(
                HangUp, *addresses[1]
            )
            a = Transport(
                0, addresses, received[0].append, initial_backoff=0.01, max_backoff=0.05
            )
            await a.start()
            try:
                a.send(message(0, 1, 0))
                await asyncio.wait_for(hung_up.wait(), 5.0)
                mute.close()
                await mute.wait_closed()
                await self.restart_peer_and_expect(a, addresses, received, [0])
            finally:
                await a.close()

        asyncio.run(run())
