"""Wall-clock protocol runtime on the asyncio event loop.

:class:`LiveRuntime` is the live twin of
:class:`~repro.stack.runtime.ProcessRuntime`: it satisfies the same
:class:`~repro.stack.interface.RuntimeProtocol` contract, so protocol
modules, failure detectors and the flow-controlled workload generator
run on it without a single change. The differences are exactly the ones
the contract abstracts away:

* **time** — ``now`` is wall-clock seconds since the deployment epoch
  (a shared ``time.monotonic`` reference distributed by the
  orchestrator), not simulated seconds; timer *delays* carry over 1:1;
* **cost** — nothing charges modelled CPU time; handlers simply take as
  long as they take on the host CPU;
* **transport** — sends go through a real TCP
  :class:`~repro.live.transport.Transport` instead of the simulated
  network (header sizes are computed with the same Cactus header
  stacking formula, so wire accounting stays comparable);
* **crash** — fail-stop means the OS process exits (configurable via
  ``on_crash`` so tests can observe a crash without dying).

Thread model: everything runs on one asyncio event loop; handlers are
executed synchronously inside transport/timer callbacks, which preserves
the run-to-completion semantics modules were written against.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable

from repro.config import NetworkConfig
from repro.errors import ProtocolError
from repro.net.message import NetMessage
from repro.stack.actions import (
    Action,
    CancelTimer,
    EmitDown,
    EmitUp,
    Send,
    SendToAll,
    StartTimer,
)
from repro.sim.tracing import NullTraceRecorder, TraceRecorder
from repro.stack.events import AbcastRequest, AdeliverIndication, Event
from repro.stack.interface import AdeliverListener
from repro.stack.module import Microprotocol
from repro.live.transport import Transport


class LiveRuntime:
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
        if not modules:
            raise ProtocolError("a stack needs at least one module")
        self.pid = pid
        self.alive = True
        self.transport = transport
        self.net_config = net_config if net_config is not None else NetworkConfig()
        self._n = n
        self._loop = loop
        self._clock = clock
        self._epoch = 0.0
        self._on_crash = on_crash
        #: Optional wall-clock span trace; records use the same span
        #: schema as the simulator's (see :mod:`repro.obs.spans`), with
        #: durations measured on the host clock instead of modelled CPU.
        self._trace = trace if trace is not None else NullTraceRecorder()
        #: Always-on boundary-crossing counter — the live counterpart of
        #: the simulator's attribution (the live runtime has no modelled
        #: CPU, so crossings are counted but carry no time).
        self.boundary_crossings = 0

        self._modules = list(modules)
        self._by_name: dict[str, Microprotocol] = {}
        #: Stack position of each module (0 = top).
        self._index: dict[str, int] = {}
        #: Wire header bytes for sends from each module (base + one
        #: per-module header per descended module, as in the simulator).
        self._send_header: dict[str, int] = {}
        config = self.net_config
        depth = len(modules)
        for index, module in enumerate(modules):
            if module.name in self._by_name:
                raise ProtocolError(f"duplicate module name {module.name!r}")
            self._by_name[module.name] = module
            self._index[module.name] = index
            self._send_header[module.name] = (
                config.base_header + config.per_module_header * (depth - index)
            )
        self._fd_header = config.base_header + config.per_module_header

        self._timers: dict[tuple[str, str], asyncio.TimerHandle] = {}
        self._fd_timers: list[asyncio.TimerHandle] = []
        self._adeliver_listener: AdeliverListener | None = None
        self._fd: Any = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Group size."""
        return self._n

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

    @property
    def modules(self) -> tuple[Microprotocol, ...]:
        """The stack, top to bottom."""
        return tuple(self._modules)

    def module(self, name: str) -> Microprotocol:
        """Look up a module by routing name."""
        return self._by_name[name]

    def set_adeliver_listener(self, listener: AdeliverListener) -> None:
        """Register the application callback for adelivered messages."""
        self._adeliver_listener = listener

    def attach_failure_detector(self, fd: Any) -> None:
        """Attach a failure detector (see :mod:`repro.fd`)."""
        self._fd = fd
        fd.attach(self)

    def start(self) -> None:
        """Run every module's ``on_start`` hook (top to bottom)."""
        if self._fd is not None:
            self._fd.start()
        for module in self._modules:
            self._execute_actions(module, module.on_start())

    def resume_at(self, next_instance: int, delivered: set) -> None:
        """Fast-forward the stack to a crash-recovered position.

        Part of the rejoin protocol (see PROTOCOLS.md): after a
        restarted worker re-applied its WAL prefix and state-transferred
        the remainder, the stack must skip the *delivered* message ids
        and participate from ordering position *next_instance* on. The
        top module is required to support recovery (the sequencer is
        good-run-only by design and raises here); every lower module
        that also defines ``resume_at`` is fast-forwarded too — the ring
        stack's proposer and acceptor share the learner's consensus
        instance numbering, so the same position applies stack-wide.
        """
        top = self._modules[0]
        if getattr(top, "resume_at", None) is None:
            raise ProtocolError(
                f"stack module {top.name!r} does not support crash recovery"
            )
        for module in self._modules:
            resume = getattr(module, "resume_at", None)
            if resume is not None:
                resume(next_instance, delivered)

    # ------------------------------------------------------------------
    # Application entry points
    # ------------------------------------------------------------------

    def inject(self, event: Event) -> None:
        """Deliver *event* from the application to the top module."""
        if not self.alive:
            return
        top = self._modules[0]
        if not self._trace.enabled:
            self._run_handler(top, lambda: top.handle_event(event))
            return
        start = self.now
        if type(event) is AbcastRequest:
            self._trace.record(
                start, "abcast.submit", self.pid, event.message.msg_id
            )
        self._run_handler(top, lambda: top.handle_event(event))
        self._trace.record(
            start, "span.inject", self.pid, (top.name, self.now - start)
        )

    # ------------------------------------------------------------------
    # Crash semantics
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Stop this process permanently (fail-stop model).

        In a deployed worker ``on_crash`` terminates the OS process —
        the live equivalent of the simulator's instant halt. In-process
        uses (tests) may pass a no-op observer instead.
        """
        if not self.alive:
            return
        self.alive = False
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for timer in self._fd_timers:
            timer.cancel()
        self._fd_timers.clear()
        if self._on_crash is not None:
            self._on_crash()

    # ------------------------------------------------------------------
    # Failure detector plumbing
    # ------------------------------------------------------------------

    def suspects(self) -> frozenset[int]:
        """Current FD output (empty set when no FD is attached)."""
        if self._fd is None:
            return frozenset()
        return self._fd.suspects()

    def on_suspicion_change(self, suspects: frozenset[int]) -> None:
        """FD callback: propagate the new suspect set to every module."""
        if not self.alive:
            return
        for module in self._modules:
            if not self.alive:
                return
            self._run_handler(module, lambda m=module: m.handle_suspicion(suspects))

    def fd_send(self, dst: int, kind: str, payload: Any, payload_size: int) -> None:
        """Send a failure-detector message (routed to the peer FD)."""
        if not self.alive:
            return
        self.transport.send(
            NetMessage(
                kind=kind,
                module="fd",
                src=self.pid,
                dst=dst,
                payload=payload,
                payload_size=payload_size,
                header_size=self._fd_header,
            )
        )

    def fd_schedule(self, delay: float, callback: Callable[[], None]) -> asyncio.TimerHandle:
        """Schedule an FD-internal callback; suppressed after a crash."""

        def _fire() -> None:
            if self.alive:
                callback()

        handle = self.loop.call_later(max(0.0, delay), _fire)
        self._fd_timers.append(handle)
        if len(self._fd_timers) > 64:
            # Keep only handles still waiting to fire; the crash path
            # cancels whatever remains here.
            now = self.loop.time()
            self._fd_timers = [
                t for t in self._fd_timers if not t.cancelled() and t.when() > now
            ]
        return handle

    # ------------------------------------------------------------------
    # Network plumbing
    # ------------------------------------------------------------------

    def on_network_message(self, message: NetMessage) -> None:
        """Entry point for the transport: route one arrived message."""
        if not self.alive:
            return
        if message.module == "fd":
            if self._fd is None:
                raise ProtocolError(f"p{self.pid} got FD message without an FD")
            self._fd.handle_message(message)
            return
        module = self._by_name.get(message.module)
        if module is None:
            raise ProtocolError(
                f"p{self.pid} has no module {message.module!r} for {message}"
            )
        if not self._trace.enabled:
            self._run_handler(module, lambda: module.handle_message(message))
            return
        start = self.now
        self._run_handler(module, lambda: module.handle_message(message))
        self._trace.record(
            start,
            "span.recv",
            self.pid,
            (module.name, self.now - start, message.kind),
        )

    # ------------------------------------------------------------------
    # Action execution
    # ------------------------------------------------------------------

    def _run_handler(self, module: Microprotocol, thunk: Callable[[], list[Action]]) -> None:
        actions = thunk()
        self._execute_actions(module, actions)

    def _execute_actions(self, module: Microprotocol, actions: list[Action]) -> None:
        # Class-identity dispatch, as in the simulator's runtime: the
        # action vocabulary is closed (no subclasses exist).
        for action in actions:
            if not self.alive:
                return
            cls = action.__class__
            if cls is Send:
                self._do_send(module, action.dst, action.kind, action.payload, action.payload_size)
            elif cls is SendToAll:
                for dst in module.ctx.others:
                    if not self.alive:
                        return
                    self._do_send(module, dst, action.kind, action.payload, action.payload_size)
            elif cls is EmitUp:
                self._emit(module, action.event, direction=-1)
            elif cls is EmitDown:
                self._emit(module, action.event, direction=+1)
            elif cls is StartTimer:
                self._start_timer(module, action)
            elif cls is CancelTimer:
                self._cancel_timer(module, action.name)
            else:
                raise ProtocolError(
                    f"module {module.name!r} returned unknown action {action!r}"
                )

    def _do_send(
        self, module: Microprotocol, dst: int, kind: str, payload: Any, payload_size: int
    ) -> None:
        message = NetMessage(
            kind=kind,
            module=module.name,
            src=self.pid,
            dst=dst,
            payload=payload,
            payload_size=payload_size,
            header_size=self._send_header[module.name],
        )
        if not self._trace.enabled:
            self.transport.send(message)
            return
        start = self.now
        self.transport.send(message)
        self._trace.record(
            start,
            "span.send",
            self.pid,
            (module.name, self.now - start, kind, dst),
        )

    def _emit(self, module: Microprotocol, event: Event, *, direction: int) -> None:
        target_index = self._index[module.name] + direction
        if direction < 0 and target_index < 0:
            self._deliver_to_application(event)
            return
        if target_index >= len(self._modules):
            raise ProtocolError(
                f"module {module.name!r} emitted {type(event).__name__} below "
                "the bottom of the stack"
            )
        target = self._modules[target_index]
        self.boundary_crossings += 1
        if not self._trace.enabled:
            self._run_handler(target, lambda: target.handle_event(event))
            return
        start = self.now
        self._run_handler(target, lambda: target.handle_event(event))
        self._trace.record(
            start,
            "span.cross",
            self.pid,
            ("boundary", self.now - start, module.name, target.name),
        )

    def _deliver_to_application(self, event: Event) -> None:
        if not isinstance(event, AdeliverIndication):
            raise ProtocolError(
                f"top module emitted unexpected event {type(event).__name__} "
                "to the application"
            )
        when = self.now
        if self._adeliver_listener is not None:
            self._adeliver_listener(self.pid, event.message, when)
        if self._trace.enabled:
            self._trace.record(
                when,
                "span.adeliver",
                self.pid,
                ("app", self.now - when, event.message.msg_id),
            )
            self._trace.record(
                when, "abcast.adeliver", self.pid, event.message.msg_id
            )

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _start_timer(self, module: Microprotocol, action: StartTimer) -> None:
        key = (module.name, action.name)
        existing = self._timers.get(key)
        if existing is not None:
            existing.cancel()

        def _fire() -> None:
            if not self.alive:
                return
            if self._timers.get(key) is not handle:
                return  # superseded by a later re-arm
            del self._timers[key]
            self._fire_timer(module, action.name, action.payload)

        handle = self.loop.call_later(max(0.0, action.delay), _fire)
        self._timers[key] = handle

    def _fire_timer(self, module: Microprotocol, name: str, payload: Any) -> None:
        if not self.alive:
            return
        self._run_handler(module, lambda: module.handle_timer(name, payload))

    def _cancel_timer(self, module: Microprotocol, name: str) -> None:
        key = (module.name, name)
        existing = self._timers.pop(key, None)
        if existing is not None:
            existing.cancel()
