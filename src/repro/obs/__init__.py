"""Observability: causal spans, latency attribution and telemetry.

This package turns the reproduction's headline question — *where does
the cost of modularity go?* — from an inferred end-to-end number into an
observed breakdown. It has four parts:

* :mod:`repro.obs.spans` — the causal span model shared by both
  runtimes: the simulator stamps spans at simulated time through the
  bounded :class:`~repro.sim.tracing.TraceRecorder`, the live runtime
  stamps the same schema at wall-clock time;
* :mod:`repro.obs.attribution` — per-layer CPU-time attribution and
  module-boundary-crossing counters, always on (they never feed back
  into timing, so metrics are byte-identical with tracing on or off);
* :mod:`repro.obs.perfetto` — Chrome-trace/Perfetto JSON export, so a
  single message's path through a modular stack is visually
  inspectable (``chrome://tracing`` or https://ui.perfetto.dev);
* :mod:`repro.obs.telemetry` — periodic counter/gauge snapshots the
  live workers ship on the control channel (queue depths, backpressure
  stalls, reconnects, WAL fsyncs).

:mod:`repro.obs.profile` (imported lazily by the CLI to avoid cycles)
drives traced runs for ``python -m repro profile``;
:mod:`repro.obs.format` renders trace slices and span tables.
"""

from repro._lazy import lazy_exports

# A name loads its submodule on first use: every simulated run needs the
# attribution, few need the Perfetto exporter or the trace formatter.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".attribution": ("LayerAttribution",),
        ".format": ("format_trace_slice",),
        ".perfetto": ("chrome_trace", "validate_chrome_trace", "write_chrome_trace"),
        ".spans": (
            "Span",
            "span_balance",
            "spans_from_serialized",
            "spans_from_trace",
            "validate_spans",
        ),
        ".telemetry": ("summarize_telemetry", "telemetry_rows"),
    },
)
