"""Per-process protocol runtime: one stack interpreter, two backends.

The runtime is the glue between pure protocol state machines and the
substrate that executes them. :class:`StackRuntime` is the interpreter:
for one process it owns

* the ordered module stack (top = closest to the application),
* the routing of network messages to modules by name,
* the execution of the actions handlers return,
* named protocol timers,
* the failure detector attachment, and
* crash semantics (a crashed process stops executing instantly).

It never touches a clock, a CPU or a link itself; those belong to its
two backends. :class:`ProcessRuntime` (below) is the discrete-event
simulation backend: timers live on the simulated kernel and every step
charges modelled CPU time. :class:`~repro.live.runtime.LiveRuntime` is
the wall-clock backend: timers live on the asyncio event loop and
messages travel over real TCP connections.

Cost model of the simulated backend (the crux of the reproduction):

* receiving a message costs ``recv_cost(wire)`` plus one boundary
  crossing per module the message ascends through (its module's height),
* sending costs ``send_cost(wire)`` plus one crossing per descended
  module, and the wire carries one framework header per module below and
  including the sender (Cactus-style header stacking),
* every handler invocation costs ``dispatch``; inter-module events cost
  an additional ``boundary_crossing``.

A monolithic stack has a single module at height 0, so it pays none of
the crossing costs and carries a single framework header — the
*mechanical* advantage of merging; its *algorithmic* advantage (fewer,
larger messages) is implemented in :mod:`repro.abcast.monolithic`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.config import CpuCosts, NetworkConfig
from repro.errors import ProtocolError
from repro.net.message import NetMessage
from repro.net.network import Network
from repro.sim.cpu import Cpu
from repro.sim.eventq import ScheduledEvent
from repro.sim.kernel import Kernel
from repro.sim.tracing import NullTraceRecorder, TraceRecorder
from repro.stack.actions import (
    Action,
    CancelTimer,
    EmitDown,
    EmitUp,
    Send,
    SendToAll,
    StartTimer,
)
from repro.stack.events import AbcastRequest, AdeliverIndication, Event
from repro.stack.interface import AdeliverListener, TimerHandle
from repro.stack.module import Microprotocol
from repro.types import SimTime

__all__ = ["AdeliverListener", "ProcessRuntime", "StackRuntime"]


class StackRuntime:
    """The stack interpreter both backends share.

    Protocol modules never see it (they only return
    :class:`~repro.stack.actions.Action` lists); the workload generator,
    the failure detectors and the stack factory do, and the same code
    drives both backends. The time base differs — simulated seconds on
    the kernel versus wall-clock seconds since the run epoch — but the
    *semantics* are identical: ``now`` is monotonic within a process,
    timer delays are in the same unit as ``now``, and timestamps of
    different processes are comparable (exactly in the simulator,
    approximately in a live deployment).

    A backend is a subclass that defines the substrate and nothing else:
    the property ``now`` and the hooks below. Each hook runs one step on
    the backend's clock, CPU and link; the first five record the span
    kind of :mod:`repro.obs.spans` they are named for when tracing is on.

    ``_enter(module, event)``
        inject: run the top *module*'s handler on an application event.
    ``_receive(module, message)``
        recv: run *module*'s handler on an arrived message.
    ``_transmit(module, action, destinations)``
        send: put one copy of *module*'s ``Send``/``SendToAll`` per
        destination on the link, stopping if the process dies midway
        (a ``Send`` is a fan-out of one).
    ``_cross(module, target, event)``
        cross: run the neighbour *target*'s handler on *module*'s event.
    ``_upcall(event)``
        adeliver: hand the indication to the application listener.
    ``_arm(delay, fire)``, ``_expire(module, action)``
        Schedule a named timer (returns a cancellable handle); when it
        fires, run its handler.
    ``_halt()``
        Stop the substrate; the last step of :meth:`crash`.
    ``_receive_fd(message)``, ``_transmit_fd(message)``, ``_defer(delay, fire)``
        The failure detector's recv, send and timer.
    """

    __slots__ = (
        "pid",
        "n",
        "alive",
        "net_config",
        "boundary_crossings",
        "_trace",
        "_modules",
        "_by_name",
        "_height",
        "_above",
        "_below",
        "_send_header",
        "_fd_header",
        "_timers",
        "_adeliver_listener",
        "_fd",
    )

    def __init__(
        self,
        pid: int,
        n: int,
        modules: list[Microprotocol],
        net_config: NetworkConfig,
        trace: TraceRecorder | None,
    ) -> None:
        if not modules:
            raise ProtocolError("a stack needs at least one module")
        self.pid = pid
        #: Group size.
        self.n = n
        self.alive = True
        self.net_config = net_config
        #: Span trace in the schema of :mod:`repro.obs.spans`; the
        #: backend's hooks fill in the durations (modelled CPU or host
        #: clock readings).
        self._trace = trace if trace is not None else NullTraceRecorder()
        #: Always-on count of inter-module boundary crossings (the
        #: simulated backend adds the modelled crossings of sends and
        #: receives to it). Pure observation, never read back into timing.
        self.boundary_crossings = 0

        #: Modules ordered top (application side) to bottom (network side).
        self._modules = list(modules)
        self._by_name: dict[str, Microprotocol] = {}
        #: Height of each module: bottom module is 0.
        self._height: dict[str, int] = {}
        #: Each module's neighbour above and below (``None`` past the
        #: top or the bottom), the targets of its EmitUp and EmitDown.
        self._above: dict[str, Microprotocol | None] = {}
        self._below: dict[str, Microprotocol | None] = {}
        #: Precomputed wire header bytes for sends from each module
        #: (base + one per-module header per descended module).
        self._send_header: dict[str, int] = {}
        depth = len(modules)
        for index, module in enumerate(modules):
            if module.name in self._by_name:
                raise ProtocolError(f"duplicate module name {module.name!r}")
            self._by_name[module.name] = module
            height = depth - 1 - index
            self._height[module.name] = height
            self._above[module.name] = modules[index - 1] if index else None
            self._below[module.name] = modules[index + 1] if height else None
            self._send_header[module.name] = (
                net_config.base_header + net_config.per_module_header * (height + 1)
            )
        #: Wire header bytes of failure-detector messages (one module).
        self._fd_header = net_config.base_header + net_config.per_module_header

        self._timers: dict[tuple[str, str], TimerHandle] = {}
        self._adeliver_listener: AdeliverListener | None = None
        self._fd: Any = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

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
        top module is required to support recovery; every lower module
        that also defines ``resume_at`` is fast-forwarded too — the ring
        stack's proposer and acceptor share the learner's consensus
        instance numbering, so the same position applies stack-wide.
        A good-run-only ordering core (the sequencer) raises
        :class:`ProtocolError` from its own ``resume_at``; modules are
        visited bottom-up, so it refuses before any layer above it moved.
        """
        top = self._modules[0]
        if getattr(top, "resume_at", None) is None:
            raise ProtocolError(
                f"stack module {top.name!r} does not support crash recovery"
            )
        for module in reversed(self._modules):
            resume = getattr(module, "resume_at", None)
            if resume is not None:
                resume(next_instance, delivered)

    # ------------------------------------------------------------------
    # Entry points: application, network, crash
    # ------------------------------------------------------------------

    def inject(self, event: Event) -> None:
        """Deliver *event* from the application to the top module."""
        if self.alive:
            self._enter(self._modules[0], event)

    def on_network_message(self, message: NetMessage) -> None:
        """Route one arrived message to its module (or to the FD)."""
        if not self.alive:
            return
        name = message.module
        if name == "fd":
            if self._fd is None:
                raise ProtocolError(f"p{self.pid} got FD message without an FD")
            self._receive_fd(message)
            return
        module = self._by_name.get(name)
        if module is None:
            raise ProtocolError(f"p{self.pid} has no module {name!r} for {message}")
        self._receive(module, message)

    def crash(self) -> None:
        """Stop this process permanently (fail-stop model)."""
        if not self.alive:
            return
        self.alive = False
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self._trace.record(self.now, "process.crash", self.pid)
        self._halt()

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
        self._trace.record(self.now, "fd.change", self.pid, suspects)
        for module in self._modules:
            if not self.alive:
                return
            self._execute_actions(module, module.handle_suspicion(suspects))

    def fd_send(self, dst: int, kind: str, payload: Any, payload_size: int) -> None:
        """Send a failure-detector message (routed to the peer FD)."""
        if not self.alive:
            return
        self._transmit_fd(
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

    def fd_schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule an FD-internal callback; suppressed after a crash."""

        def _fire() -> None:
            if self.alive:
                callback()

        return self._defer(delay, _fire)

    # ------------------------------------------------------------------
    # Action execution and named timers
    # ------------------------------------------------------------------

    def _execute_actions(self, module: Microprotocol, actions: list[Action]) -> None:
        # Class-identity dispatch: the action vocabulary is closed (no
        # subclasses exist), and `type is` beats an isinstance chain on
        # the busiest branch of the simulator.
        for action in actions:
            if not self.alive:
                return
            cls = action.__class__
            if cls is Send:
                self._transmit(module, action, (action.dst,))
            elif cls is SendToAll:
                self._transmit(module, action, module.ctx.others)
            elif cls is EmitUp:
                target = self._above[module.name]
                if target is not None:
                    self.boundary_crossings += 1
                    self._cross(module, target, action.event)
                elif isinstance(action.event, AdeliverIndication):
                    self._upcall(action.event)
                else:
                    raise ProtocolError(
                        f"top module emitted unexpected event "
                        f"{type(action.event).__name__} to the application"
                    )
            elif cls is EmitDown:
                target = self._below[module.name]
                if target is None:
                    raise ProtocolError(
                        f"module {module.name!r} emitted {type(action.event).__name__} "
                        "below the bottom of the stack"
                    )
                self.boundary_crossings += 1
                self._cross(module, target, action.event)
            elif cls is StartTimer:
                self._start_timer(module, action)
            elif cls is CancelTimer:
                existing = self._timers.pop((module.name, action.name), None)
                if existing is not None:
                    existing.cancel()
            else:
                raise ProtocolError(
                    f"module {module.name!r} returned unknown action {action!r}"
                )

    def _start_timer(self, module: Microprotocol, action: StartTimer) -> None:
        key = (module.name, action.name)
        existing = self._timers.get(key)
        if existing is not None:
            existing.cancel()

        def _fire() -> None:
            # Not after a crash, and not if superseded by a later re-arm.
            if self.alive and self._timers.get(key) is handle:
                del self._timers[key]
                self._expire(module, action)

        handle = self._arm(action.delay, _fire)
        self._timers[key] = handle


class ProcessRuntime(StackRuntime):
    """Hosts one process's protocol stack on the simulation kernel.

    The simulated backend: every hook charges modelled CPU time to the
    process :class:`~repro.sim.cpu.Cpu` (on which work queues up when it
    is busy), attributes it to a layer, and transmits on the simulated
    network. Messages already handed to the NIC still depart after a
    crash, as on a real host.
    """

    __slots__ = (
        "kernel",
        "network",
        "costs",
        "cpu",
        "crashed_at",
        "_crossing_extra",
        "_last_sent_payload",
        "layer_busy",
        "boundary_busy",
    )

    def __init__(
        self,
        pid: int,
        modules: list[Microprotocol],
        *,
        kernel: Kernel,
        network: Network,
        costs: CpuCosts,
        net_config: NetworkConfig,
        trace: TraceRecorder | None = None,
    ) -> None:
        super().__init__(pid, network.n, modules, net_config, trace)
        self.kernel = kernel
        self.network = network
        self.costs = costs
        self.cpu = Cpu(kernel)
        #: Simulated time of the crash, or ``None`` while alive. Lets
        #: observers that account lazily (e.g. the workload generator's
        #: blocked-tick batching) reconstruct what happened before the
        #: crash without subscribing to it.
        self.crashed_at: SimTime | None = None
        #: Precomputed ``height * boundary_crossing`` per module — the
        #: exact float product the send/recv cost formulas use, computed
        #: once instead of per message. Keeping the product (rather than
        #: folding it into a larger sum) preserves the bit-exact
        #: association order of the original cost expressions.
        self._crossing_extra: dict[str, float] = {
            name: height * costs.boundary_crossing
            for name, height in self._height.items()
        }

        #: Always-on latency attribution (see :mod:`repro.obs`): CPU
        #: seconds charged inside each layer, plus the two pseudo-layers
        #: ``fd`` (failure-detector work) and ``app`` (adeliver
        #: upcalls). Pure observation — never read back into timing, so
        #: metrics are bit-identical with or without tracing.
        self.layer_busy: dict[str, float] = {m.name: 0.0 for m in modules}
        self.layer_busy["fd"] = 0.0
        self.layer_busy["app"] = 0.0
        #: CPU seconds charged to inter-module boundary crossings.
        self.boundary_busy = 0.0

        #: Payload of the previous Send, for serialize-once accounting:
        #: consecutive sends of the same payload object (a broadcast)
        #: only pay the serialization cost on the first copy.
        self._last_sent_payload: Any = object()

        network.register(pid, self.on_network_message)

    @property
    def now(self) -> SimTime:
        """Current simulated time (the runtime's time base)."""
        return self.kernel.now

    def on_suspicion_change(self, suspects: frozenset[int]) -> None:
        """FD callback: charge one dispatch, then notify every module."""
        if self.alive:
            self.cpu.execute(self.costs.dispatch)
            self.layer_busy["fd"] += self.costs.dispatch
            super().on_suspicion_change(suspects)

    # ------------------------------------------------------------------
    # Backend hooks: modelled CPU, simulated network
    # ------------------------------------------------------------------

    def _enter(self, module: Microprotocol, event: Event) -> None:
        dispatch = self.costs.dispatch
        done = self.cpu.execute(dispatch)
        self.layer_busy[module.name] += dispatch
        if self._trace.enabled:
            self._trace.record(
                done - dispatch, "span.inject", self.pid, (module.name, dispatch)
            )
            if type(event) is AbcastRequest:
                self._trace.record(
                    done, "abcast.submit", self.pid, event.message.msg_id
                )
        if actions := module.handle_event(event):
            self._execute_actions(module, actions)

    def _receive(self, module: Microprotocol, message: NetMessage) -> None:
        # Same expression as recv_cost(wire) + height*boundary + dispatch,
        # with the height product precomputed (identical association).
        name = module.name
        costs = self.costs
        extra = self._crossing_extra[name]
        cost = (
            costs.recv_fixed
            + costs.recv_per_byte * message.wire_size
            + extra
            + costs.dispatch
        )
        done = self.cpu.execute(cost, partial(self._run_message, module, message))
        self.layer_busy[name] += cost - extra
        if extra:
            self.boundary_busy += extra
            self.boundary_crossings += self._height[name]
        if self._trace.enabled:
            self._trace.record(
                done - cost, "span.recv", self.pid, (name, cost, message.kind)
            )

    def _transmit(
        self, module: Microprotocol, action: Send | SendToAll, destinations: tuple[int, ...]
    ) -> None:
        # Per fan-out: everything the copies share. send_cost(wire) can
        # take two values, with and without serialization (paid on the
        # first copy of a payload object only); both, and both plus the
        # precomputed height*boundary product, are the expressions a
        # copy costed on its own evaluates, in the same association.
        name = module.name
        kind = action.kind
        payload = action.payload
        size = action.payload_size
        header = self._send_header[name]
        wire = size + header
        costs = self.costs
        copy_cost = costs.send_fixed + costs.send_per_byte * wire
        first_cost = copy_cost + costs.serialize_per_byte * wire
        extra = self._crossing_extra[name]
        copy_total = copy_cost + extra
        first_total = first_cost + extra
        height = self._height[name]
        pid = self.pid
        layer_busy = self.layer_busy
        execute = self.cpu.execute
        trace = self._trace
        # Per copy: what differs, and every accumulator update, in the
        # order a run of single sends makes them.
        for dst in destinations:
            if not self.alive:
                return
            message = NetMessage(kind, name, pid, dst, payload, size, header)
            if payload is not self._last_sent_payload or payload is None:
                cost, total = first_cost, first_total
            else:
                cost, total = copy_cost, copy_total
            self._last_sent_payload = payload
            layer_busy[name] += cost
            if extra:
                self.boundary_busy += extra
                self.boundary_crossings += height
            done = execute(total)
            if trace.enabled:
                trace.record(done - total, "span.send", pid, (name, total, kind, dst))
            # Looked up per call: tests and the benchmark's probe replace
            # ``network.transmit`` with a spy after construction.
            self.network.transmit(message, done)

    def _cross(self, module: Microprotocol, target: Microprotocol, event: Event) -> None:
        costs = self.costs
        cost = costs.boundary_crossing + costs.dispatch
        done = self.cpu.execute(cost)
        self.boundary_busy += costs.boundary_crossing
        self.layer_busy[target.name] += costs.dispatch
        if self._trace.enabled:
            detail = ("boundary", cost, module.name, target.name)
            self._trace.record(done - cost, "span.cross", self.pid, detail)
        if actions := target.handle_event(event):
            self._execute_actions(target, actions)

    def _upcall(self, event: AdeliverIndication) -> None:
        cost = self.costs.adeliver
        when = self.cpu.execute(cost)
        self.layer_busy["app"] += cost
        if self._trace.enabled:
            msg_id = event.message.msg_id
            self._trace.record(
                when - cost, "span.adeliver", self.pid, ("app", cost, msg_id)
            )
            self._trace.record(when, "abcast.adeliver", self.pid, msg_id)
        if self._adeliver_listener is not None:
            self._adeliver_listener(self.pid, event.message, when)

    def _arm(self, delay: float, fire: Callable[[], None]) -> ScheduledEvent:
        # A timer armed by a handler starts when that handler's modelled
        # work ends, not when the event that ran it was popped.
        return self.kernel.schedule_at(
            max(self.kernel.now, self.cpu.busy_until) + delay, fire
        )

    def _expire(self, module: Microprotocol, action: StartTimer) -> None:
        dispatch = self.costs.dispatch
        self.cpu.execute(dispatch, partial(self._run_timer, module, action))
        self.layer_busy[module.name] += dispatch

    def _halt(self) -> None:
        self.crashed_at = self.kernel.now
        self.cpu.halt()
        self.network.faults.mark_crashed(self.pid)

    def _receive_fd(self, message: NetMessage) -> None:
        cost = self.costs.recv_cost(message.wire_size)
        done = self.cpu.execute(cost, partial(self._run_fd_message, message))
        self.layer_busy["fd"] += cost
        if self._trace.enabled:
            self._trace.record(
                done - cost, "span.recv", self.pid, ("fd", cost, message.kind)
            )

    def _transmit_fd(self, message: NetMessage) -> None:
        cost = self.costs.send_cost(message.wire_size)
        done = self.cpu.execute(cost)
        self.layer_busy["fd"] += cost
        self.network.transmit(message, done)

    def _defer(self, delay: float, fire: Callable[[], None]) -> ScheduledEvent:
        return self.kernel.schedule(delay, fire)

    # Handlers queued behind modelled CPU work run when that work
    # completes; a process that crashed in between never runs them.

    def _run_message(self, module: Microprotocol, message: NetMessage) -> None:
        # An empty action list (most arrivals) costs no further call.
        if self.alive and (actions := module.handle_message(message)):
            self._execute_actions(module, actions)

    def _run_timer(self, module: Microprotocol, action: StartTimer) -> None:
        if self.alive:
            self._execute_actions(module, module.handle_timer(action.name, action.payload))

    def _run_fd_message(self, message: NetMessage) -> None:
        if self.alive:
            self._fd.handle_message(message)
