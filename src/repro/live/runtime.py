"""Wall-clock backend of the stack interpreter, on the asyncio event loop.

:class:`LiveRuntime` is the live twin of
:class:`~repro.stack.runtime.ProcessRuntime`: both are backends of one
:class:`~repro.stack.runtime.StackRuntime`, so protocol modules, failure
detectors and the flow-controlled workload generator run on it without
a single change. What this backend supplies is exactly what differs:

* **time** — ``now`` is wall-clock seconds since the deployment epoch
  (a shared ``time.monotonic`` reference distributed by the
  orchestrator), not simulated seconds; timer *delays* carry over 1:1;
* **cost** — nothing charges modelled CPU time; handlers simply take as
  long as they take on the host CPU, and a span's duration is two
  readings of ``now`` around the step (taken only when tracing is on);
* **transport** — sends go through a real TCP
  :class:`~repro.live.transport.Transport` instead of the simulated
  network (header sizes come from the interpreter's Cactus header
  stacking table, so wire accounting stays comparable);
* **crash** — fail-stop means the OS process exits (configurable via
  ``on_crash`` so tests can observe a crash without dying).

Thread model: everything runs on one asyncio event loop; handlers are
executed synchronously inside transport/timer callbacks, which preserves
the run-to-completion semantics modules were written against.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from repro.config import NetworkConfig
from repro.live.transport import Transport
from repro.net.message import NetMessage
from repro.sim.tracing import TraceRecorder
from repro.stack.actions import Send, SendToAll, StartTimer
from repro.stack.events import AbcastRequest, AdeliverIndication, Event
from repro.stack.module import Microprotocol
from repro.stack.runtime import StackRuntime


class LiveRuntime(StackRuntime):
    """Hosts one process's protocol stack on the asyncio event loop."""

    def __init__(
        self,
        pid: int,
        n: int,
        modules: list[Microprotocol],
        transport: Transport,
        *,
        net_config: NetworkConfig | None = None,
        loop: asyncio.AbstractEventLoop | None = None,
        clock: Callable[[], float] = time.monotonic,
        on_crash: Callable[[], None] | None = None,
        trace: TraceRecorder | None = None,
    ) -> None:
        if net_config is None:
            net_config = NetworkConfig()
        super().__init__(pid, n, modules, net_config, trace)
        self.transport = transport
        self._loop = loop
        self._clock = clock
        self._epoch = 0.0
        self._on_crash = on_crash
        self._fd_timers: list[asyncio.TimerHandle] = []

    @property
    def now(self) -> float:
        """Wall-clock seconds since the deployment epoch."""
        return self._clock() - self._epoch

    def set_epoch(self, epoch: float) -> None:
        """Anchor ``now`` to the orchestrator-distributed time origin.

        All workers of one deployment receive the same epoch (a single
        ``time.monotonic`` reading on the orchestrator), so their
        timestamps are directly comparable on one host — the basis of
        the cross-process early-latency measurement.
        """
        self._epoch = epoch

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The event loop timers run on."""
        if self._loop is None:
            self._loop = asyncio.get_event_loop()
        return self._loop

    # ------------------------------------------------------------------
    # Backend hooks: call straight through; when tracing, bracket the
    # same call with two readings of the host clock
    # ------------------------------------------------------------------

    def _enter(self, module: Microprotocol, event: Event) -> None:
        if not self._trace.enabled:
            self._execute_actions(module, module.handle_event(event))
            return
        start = self.now
        if type(event) is AbcastRequest:
            self._trace.record(
                start, "abcast.submit", self.pid, event.message.msg_id
            )
        self._execute_actions(module, module.handle_event(event))
        self._trace.record(
            start, "span.inject", self.pid, (module.name, self.now - start)
        )

    def _receive(self, module: Microprotocol, message: NetMessage) -> None:
        if not self._trace.enabled:
            self._execute_actions(module, module.handle_message(message))
            return
        start = self.now
        self._execute_actions(module, module.handle_message(message))
        self._trace.record(
            start, "span.recv", self.pid, (module.name, self.now - start, message.kind)
        )

    def _transmit(
        self, module: Microprotocol, action: Send | SendToAll, destinations: tuple[int, ...]
    ) -> None:
        name = module.name
        header = self._send_header[name]
        for dst in destinations:
            if not self.alive:
                return
            message = NetMessage(
                action.kind, name, self.pid, dst, action.payload, action.payload_size, header
            )
            if not self._trace.enabled:
                self.transport.send(message)
                continue
            start = self.now
            self.transport.send(message)
            detail = (name, self.now - start, message.kind, dst)
            self._trace.record(start, "span.send", self.pid, detail)

    def _cross(self, module: Microprotocol, target: Microprotocol, event: Event) -> None:
        if not self._trace.enabled:
            self._execute_actions(target, target.handle_event(event))
            return
        start = self.now
        self._execute_actions(target, target.handle_event(event))
        detail = ("boundary", self.now - start, module.name, target.name)
        self._trace.record(start, "span.cross", self.pid, detail)

    def _upcall(self, event: AdeliverIndication) -> None:
        when = self.now
        if self._adeliver_listener is not None:
            self._adeliver_listener(self.pid, event.message, when)
        if self._trace.enabled:
            msg_id = event.message.msg_id
            self._trace.record(
                when, "span.adeliver", self.pid, ("app", self.now - when, msg_id)
            )
            self._trace.record(when, "abcast.adeliver", self.pid, msg_id)

    def _arm(self, delay: float, fire: Callable[[], None]) -> asyncio.TimerHandle:
        return self.loop.call_later(max(0.0, delay), fire)

    def _expire(self, module: Microprotocol, action: StartTimer) -> None:
        self._execute_actions(module, module.handle_timer(action.name, action.payload))

    def _halt(self) -> None:
        """In a deployed worker ``on_crash`` terminates the OS process —
        the live equivalent of the simulator's instant halt. In-process
        uses (tests) may pass a no-op observer instead."""
        for timer in self._fd_timers:
            timer.cancel()
        self._fd_timers.clear()
        if self._on_crash is not None:
            self._on_crash()

    def _receive_fd(self, message: NetMessage) -> None:
        self._fd.handle_message(message)

    def _transmit_fd(self, message: NetMessage) -> None:
        self.transport.send(message)

    def _defer(self, delay: float, fire: Callable[[], None]) -> asyncio.TimerHandle:
        handle = self._arm(delay, fire)
        self._fd_timers.append(handle)
        if len(self._fd_timers) > 64:
            # Keep only handles still waiting to fire; the crash path
            # cancels whatever remains here.
            now = self.loop.time()
            self._fd_timers = [
                t for t in self._fd_timers if not t.cancelled() and t.when() > now
            ]
        return handle
