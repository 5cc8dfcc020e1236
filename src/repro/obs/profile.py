"""The cost-of-modularity profiler behind ``python -m repro profile``.

Runs one traced simulation per requested stack at a common config point
and renders:

* a per-stack/per-layer latency-attribution table — CPU milliseconds
  per delivered message inside each layer, the boundary-crossing time,
  and the ``modularity overhead`` fraction (boundary time over total
  attributed time) that the paper's modular-vs-monolithic gap is made
  of;
* a critical-path summary: one representative measured message's
  observable path (submit, every network hop, first adeliver) with
  per-step deltas;
* optionally a combined Chrome-trace/Perfetto export of every span.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from repro.config import FailureDetectorConfig, LiveSpec, matched_run_config
from repro.experiments.report import format_table
from repro.experiments.runner import RunResult, run_simulation
from repro.obs.attribution import BOUNDARY_LAYER
from repro.obs.format import format_message_path
from repro.obs.perfetto import chrome_trace, merge_traces
from repro.obs.spans import adelivers, message_path, spans_from_trace, submits
from repro.sim.tracing import TraceRecorder

#: Default ring-buffer capacity of a profiling trace.
DEFAULT_TRACE_CAP = 200_000

#: pid stride between stacks in a combined Perfetto export, so each
#: stack's processes get their own track group.
_PID_STRIDE = 100


@dataclass(frozen=True, slots=True)
class ProfileRun:
    """One stack's traced run: the result plus its span trace."""

    label: str
    result: RunResult
    trace: TraceRecorder


def run_profile(
    labels: tuple[str, ...] | list[str], spec: LiveSpec = LiveSpec()
) -> list[ProfileRun]:
    """Run one traced simulation per stack label at *spec*'s run point.

    Group, workload, client population, window and timing are the ones
    :func:`~repro.config.matched_run_config` maps *spec* to; the detector
    stays the simulator's default. Every run uses ``spec.seed``, and
    ``spec.trace_cap`` (0: :data:`DEFAULT_TRACE_CAP`) caps each trace.
    """
    runs = []
    for label in labels:
        config = replace(
            matched_run_config(replace(spec, stack=label)),
            failure_detector=FailureDetectorConfig(),
        )
        trace = TraceRecorder(cap=spec.trace_cap or DEFAULT_TRACE_CAP)
        result = run_simulation(config, seed=spec.seed, trace=trace)
        runs.append(ProfileRun(label=label, result=result, trace=trace))
    return runs


def layer_table(runs: list[ProfileRun]) -> str:
    """Per-stack/per-layer breakdown of attributed CPU time.

    One row per (stack, layer): CPU seconds charged inside the layer
    over the measurement window (summed across processes), the share of
    the stack's attributed time, and CPU microseconds per delivered
    message. The boundary row carries the crossing count.
    """
    headers = ["stack", "layer", "cpu (ms)", "share", "µs/msg", "crossings"]
    rows = []
    for run in runs:
        metrics = run.result.metrics
        window = run.result.config.duration
        delivered = max(1.0, metrics.throughput * window * run.result.config.n)
        total = sum(t for __, t in metrics.layer_busy) + metrics.boundary_time
        entries = list(metrics.layer_busy)
        entries.append((BOUNDARY_LAYER, metrics.boundary_time))
        for layer, seconds in entries:
            share = seconds / total if total > 0 else 0.0
            rows.append(
                [
                    run.label,
                    layer,
                    f"{seconds * 1e3:.2f}",
                    f"{share * 100:.1f}%",
                    f"{seconds / delivered * 1e6:.1f}",
                    str(metrics.boundary_crossings)
                    if layer == BOUNDARY_LAYER
                    else "",
                ]
            )
    return format_table(headers, rows)


def summary_table(runs: list[ProfileRun]) -> str:
    """One row per stack: the headline profile numbers."""
    headers = [
        "stack",
        "throughput",
        "latency (ms)",
        "modularity overhead",
        "crossings",
        "spans",
        "dropped",
    ]
    rows = []
    for run in runs:
        metrics = run.result.metrics
        latency = metrics.latency_mean
        overhead = metrics.modularity_overhead
        rows.append(
            [
                run.label,
                f"{metrics.throughput:.1f}",
                f"{latency * 1e3:.2f}" if latency is not None else "n/a",
                f"{overhead * 100:.2f}%" if overhead is not None else "n/a",
                str(metrics.boundary_crossings),
                str(run.trace.count("span.")),
                str(run.trace.dropped_records),
            ]
        )
    return format_table(headers, rows)


def critical_path_summary(run: ProfileRun) -> str:
    """The observable path of one representative measured message.

    Picks the first message submitted inside the measurement window
    that was adelivered everywhere the trace can see, and formats its
    submit → network hops → first adeliver timeline.
    """
    window_start = run.result.config.warmup
    delivered = {msg_id for __, __, msg_id in adelivers(run.trace)}
    candidate = None
    for t0, __, msg_id in sorted(submits(run.trace)):
        if t0 >= window_start and msg_id in delivered:
            candidate = msg_id
            break
    if candidate is None:
        return f"{run.label}: no measured message completed inside the trace"
    path = message_path(run.trace, candidate)
    first_adeliver = next(
        (i for i, r in enumerate(path) if r.category == "abcast.adeliver"),
        len(path) - 1,
    )
    timeline = format_message_path(path[: first_adeliver + 1])
    latency = path[first_adeliver].time - path[0].time
    return (
        f"{run.label}: critical path of {candidate} "
        f"(submit -> first adeliver: {latency * 1e3:.3f} ms)\n{timeline}"
    )


def export_chrome_trace(runs: list[ProfileRun], path: str | Path) -> Path:
    """Write every run's spans into one combined Perfetto JSON file."""
    import json

    documents = []
    for index, run in enumerate(runs):
        spans = spans_from_trace(run.trace)
        base = index * _PID_STRIDE
        names = {
            base + pid: f"{run.label}/p{pid}"
            for pid in range(run.result.config.n)
        }
        documents.append(
            chrome_trace(spans, process_names=names, pid_offset=base)
        )
    target = Path(path)
    target.write_text(
        json.dumps(merge_traces(documents), indent=1) + "\n", encoding="utf-8"
    )
    return target
