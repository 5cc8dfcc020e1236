"""Sim-vs-live span conformance: one schema, two runtimes.

The live runtime must record the *same* span schema the simulator does
— same categories, same detail layout — so every obs tool (validator,
Perfetto export, profile tables) works on either trace. This drives a
LiveRuntime in-process through all five span kinds and checks its
records against the schema and against a real simulated trace.
"""

from repro.live.runtime import LiveRuntime
from repro.net.message import NetMessage
from repro.obs.spans import (
    SPAN_ARG_KEYS,
    adelivers,
    spans_from_serialized,
    spans_from_trace,
    submits,
    validate_spans,
)
from repro.sim.tracing import TraceRecorder
from repro.stack.actions import EmitDown, EmitUp, Send
from repro.stack.events import AbcastRequest, AdeliverIndication, Event
from repro.stack.module import Microprotocol, ModuleContext
from repro.types import AppMessage, MessageId


class Upper(Microprotocol):
    name = "upper"

    def handle_event(self, event):
        return []

    def handle_message(self, message):
        return []

    def handle_timer(self, name, payload):
        return []


class Lower(Upper):
    name = "lower"


class FakeTransport:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def traced_live_runtime():
    trace = TraceRecorder()
    modules = [
        Upper(ModuleContext(pid=0, n=3, suspects=lambda: frozenset())),
        Lower(ModuleContext(pid=0, n=3, suspects=lambda: frozenset())),
    ]
    runtime = LiveRuntime(0, 3, modules, FakeTransport(), trace=trace)
    return runtime, modules, trace


def drive_all_span_kinds(runtime, modules):
    """Exercise inject, recv, send, cross and adeliver exactly once."""
    upper, lower = modules
    message = AppMessage(MessageId(0, 0), 512, 0.0)
    runtime.inject(AbcastRequest(message))
    runtime.on_network_message(
        NetMessage(
            kind="ping", module="lower", src=1, dst=0, payload=None,
            payload_size=0, header_size=4,
        )
    )
    runtime._execute_actions(
        lower, [Send(dst=2, kind="ack", payload=None, payload_size=8)]
    )
    runtime._execute_actions(lower, [EmitUp(Event())])
    runtime._execute_actions(upper, [EmitUp(AdeliverIndication(message))])
    return message


class TestConformance:
    def test_live_spans_cover_the_schema_and_validate(self):
        runtime, modules, trace = traced_live_runtime()
        drive_all_span_kinds(runtime, modules)
        spans = spans_from_trace(trace)
        assert {s.name for s in spans} == set(SPAN_ARG_KEYS)
        assert validate_spans(spans) == []

    def test_live_and_sim_record_identical_span_shapes(self, modular_run):
        __, sim_trace = modular_run
        runtime, modules, live_trace = traced_live_runtime()
        drive_all_span_kinds(runtime, modules)

        def shapes(trace):
            return {
                (s.name, tuple(key for key, __ in s.args))
                for s in spans_from_trace(trace)
            }

        assert shapes(live_trace) == shapes(sim_trace)

    def test_live_markers_bracket_the_message(self):
        runtime, modules, trace = traced_live_runtime()
        message = drive_all_span_kinds(runtime, modules)
        [(t_submit, pid_s, submitted)] = submits(trace)
        [(t_deliver, pid_d, delivered)] = adelivers(trace)
        assert submitted == delivered == message.msg_id
        assert pid_s == pid_d == 0
        assert t_deliver >= t_submit

    def test_adeliver_span_times_the_application_upcall(self):
        ticks = iter(range(100))
        trace = TraceRecorder()
        upper = Upper(ModuleContext(pid=0, n=3, suspects=lambda: frozenset()))
        runtime = LiveRuntime(
            0, 3, [upper], FakeTransport(), trace=trace,
            clock=lambda: float(next(ticks)),
        )
        seen = []
        # One clock reading inside the listener: the upcall "takes" 2.
        runtime.set_adeliver_listener(
            lambda pid, message, when: seen.append((when, runtime.now))
        )
        message = AppMessage(MessageId(0, 0), 512, 0.0)
        runtime._execute_actions(upper, [EmitUp(AdeliverIndication(message))])
        [span] = [s for s in spans_from_trace(trace) if s.name == "adeliver"]
        [(when, __)] = seen
        assert span.start == when
        assert span.duration == 2.0
        [(marker_time, __, __)] = adelivers(trace)
        assert marker_time == when

    def test_worker_serialization_round_trips(self):
        # The worker ships spans as [time, category, process, detail]
        # JSON rows; the orchestrator must rebuild identical spans.
        runtime, modules, trace = traced_live_runtime()
        drive_all_span_kinds(runtime, modules)
        rows = [
            [r.time, r.category, r.process, list(r.detail)]
            for r in trace.select("span.")
        ]
        assert spans_from_serialized(rows) == spans_from_trace(trace)

    def test_disabled_trace_records_nothing_but_still_counts_crossings(self):
        modules = [
            Upper(ModuleContext(pid=0, n=3, suspects=lambda: frozenset())),
            Lower(ModuleContext(pid=0, n=3, suspects=lambda: frozenset())),
        ]
        runtime = LiveRuntime(0, 3, modules, FakeTransport())
        drive_all_span_kinds(runtime, modules)
        assert runtime.boundary_crossings == 1
        traced_runtime, traced_modules, trace = traced_live_runtime()
        drive_all_span_kinds(traced_runtime, traced_modules)
        assert traced_runtime.boundary_crossings == 1
        assert len(trace) > 0
