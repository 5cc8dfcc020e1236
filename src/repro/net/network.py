"""The simulated full-mesh network.

Models the paper's testbed transport: every pair of processes is
connected by a quasi-reliable, FIFO, bidirectional channel (the paper's
Fortika used TCP connections over switched Gigabit Ethernet).

Timing model per message:

1. *NIC serialization* — each process has one transmit NIC of finite
   bandwidth; messages leave in FIFO order, each occupying the NIC for
   ``wire_size / bandwidth`` seconds. This captures sender-side
   contention when broadcasting large proposals.
2. *Propagation* — a constant one-way delay (wire + switch).
3. *Per-pair FIFO* — arrivals on a (src, dst) pair never reorder, as TCP
   guarantees.

Quasi-reliability: if neither endpoint crashes, every message arrives
(the simulator never loses messages unless a fault filter drops them).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.config import NetworkConfig
from repro.errors import NetworkError
from repro.net.faults import FaultInjector
from repro.net.message import NetMessage
from repro.net.stats import NetworkStats
from repro.sim.kernel import Kernel
from repro.sim.tracing import NullTraceRecorder, TraceRecorder
from repro.types import SimTime

#: Callback invoked when a message arrives at a live destination.
DeliverFn = Callable[[NetMessage], None]


class Network:
    """Full mesh of quasi-reliable FIFO channels with NIC modelling.

    Deliberately *not* slotted: tests wrap :meth:`transmit` with spies,
    which needs a writable instance ``__dict__``.
    """

    def __init__(
        self,
        kernel: Kernel,
        n: int,
        config: NetworkConfig,
        *,
        stats: NetworkStats | None = None,
        faults: FaultInjector | None = None,
        trace: TraceRecorder | None = None,
    ) -> None:
        if n < 2:
            raise NetworkError(f"network needs at least 2 processes, got {n}")
        self._kernel = kernel
        self.n = n
        self.config = config
        self.stats = stats if stats is not None else NetworkStats()
        self.faults = faults if faults is not None else FaultInjector()
        self._trace = trace if trace is not None else NullTraceRecorder()
        self._deliver: list[DeliverFn | None] = [None] * n
        #: Time at which each process's transmit NIC becomes free.
        self._nic_free: list[SimTime] = [0.0] * n
        #: Per-pair one-way delays, precomputed (NetworkConfig is frozen,
        #: so these cannot change mid-run).
        self._delay: list[list[float]] = [
            [config.delay(src, dst) for dst in range(n)] for src in range(n)
        ]
        self._bandwidth = config.bandwidth
        #: Last scheduled arrival per (src, dst), for FIFO enforcement.
        #: Indexed ``[src][dst]`` — a flat n×n matrix beats a dict keyed
        #: by (src, dst) tuples on every single message.
        self._last_arrival: list[list[SimTime]] = [[0.0] * n for __ in range(n)]

    def register(self, process: int, deliver: DeliverFn) -> None:
        """Attach the receive handler of *process*."""
        if not 0 <= process < self.n:
            raise NetworkError(f"unknown process {process} (n={self.n})")
        self._deliver[process] = deliver

    def transmit(self, message: NetMessage, depart_time: SimTime) -> None:
        """Put *message* on the wire at *depart_time*.

        *depart_time* is when the sending CPU finished preparing the
        message (it must not precede the current simulated time). The
        message then waits for the sender NIC, serializes at link
        bandwidth, propagates, and is delivered unless a fault filter
        drops it or the destination has crashed by arrival time.
        """
        src = message.src
        dst = message.dst
        if dst >= self.n or dst < 0:
            raise NetworkError(f"message to unknown process: {message}")
        if depart_time < self._kernel.now:
            raise NetworkError(
                f"depart_time {depart_time} is in the past (now={self._kernel.now})"
            )
        trace = self._trace
        faults = self.faults
        crashed = faults.crashed
        if src in crashed:
            # Fail-stop guard: a crashed process never puts *new* frames
            # on the wire. (Frames handed to the NIC before the crash
            # were transmitted before mark_crashed ran, so they still
            # depart — the documented in-flight semantics.)
            self.stats.on_send_after_crash(message)
            if trace.enabled:
                trace.record(depart_time, "net.crashed_send", src, message)
            return
        self.stats.on_transmit(message)
        if trace.enabled:
            trace.record(depart_time, "net.send", src, message)

        nic_free = self._nic_free
        tx_start = nic_free[src]
        if depart_time > tx_start:
            tx_start = depart_time
        tx_end = tx_start + message.wire_size / self._bandwidth
        nic_free[src] = tx_end

        arrival = tx_end + self._delay[src][dst]
        # With no filter and a live destination the verdict is 0.0, and
        # adding 0.0 to a non-negative time changes no bit.
        if faults.filters or dst in crashed:
            extra_delay = faults.judge(message)
            if extra_delay is None:
                if trace.enabled:
                    trace.record(arrival, "net.drop", dst, message)
                return
            arrival += extra_delay

        row = self._last_arrival[src]
        if arrival < row[dst]:
            arrival = row[dst]
        row[dst] = arrival

        # arrival >= depart_time >= now (extra_delay is never negative),
        # so the unchecked fast path is safe.
        self._kernel.post(arrival, partial(self._arrive, message))

    def _arrive(self, message: NetMessage) -> None:
        """Hand an arriving message to the destination, if still alive."""
        dst = message.dst
        if dst in self.faults.crashed:
            self._trace.record(self._kernel.now, "net.dead_drop", dst, message)
            return
        deliver = self._deliver[dst]
        if deliver is None:
            raise NetworkError(f"no receiver registered for process {dst}")
        if self._trace.enabled:
            self._trace.record(self._kernel.now, "net.recv", dst, message)
        deliver(message)
