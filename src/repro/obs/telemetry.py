"""Live-runtime telemetry: periodic counter/gauge snapshots.

Each live worker ships a small
:class:`~repro.live.deploy.Telemetry` snapshot on the control channel
at every sample flush (~4/s): gauges (ordering-core queue depth, peak
unacked transport frames, congestion flag) read at the snapshot instant
and cumulative counters (backpressure stalls, transport reconnects, WAL
fsyncs) since the worker started. That dataclass is the snapshot's
schema. The orchestrator buffers them and reduces the whole run's
stream with :func:`summarize_telemetry`; ``python -m repro live``
surfaces the summary under the metrics table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - the live layer imports this module
    from repro.live.deploy import Telemetry

#: Gauge fields: summarized by their peak across snapshots.
GAUGES = ("queue_depth", "unacked")
#: Cumulative counter fields: summarized by their per-worker maximum
#: (= final value, counters never decrease), summed across workers.
COUNTERS = ("backpressure_stalls", "reconnects", "wal_fsyncs")


def summarize_telemetry(snapshots: Iterable[Telemetry]) -> dict:
    """Reduce a run's telemetry stream to one summary dict.

    Returns a dict with ``snapshots`` (count), ``<gauge>_peak`` for
    each gauge, ``congested_snapshots`` and the summed final value of
    each cumulative counter. Empty input gives an all-zero summary.
    """
    snapshots = list(snapshots)
    summary: dict = {
        "snapshots": len(snapshots),
        "congested_snapshots": sum(snapshot.congested for snapshot in snapshots),
    }
    for gauge in GAUGES:
        summary[f"{gauge}_peak"] = max(
            (getattr(snapshot, gauge) for snapshot in snapshots), default=0
        )
    for counter in COUNTERS:
        finals: dict[int, int] = {}
        for snapshot in snapshots:
            value = getattr(snapshot, counter)
            finals[snapshot.pid] = max(finals.get(snapshot.pid, 0), value)
        summary[counter] = sum(finals.values())
    return summary


def telemetry_rows(summary: Mapping) -> list[list[str]]:
    """Summary → ``[metric, value]`` rows for the live report table."""
    if not summary.get("snapshots"):
        return []
    rows = [
        ["telemetry snapshots", str(summary["snapshots"])],
        ["queue depth peak", str(summary.get("queue_depth_peak", 0))],
        ["unacked frames peak", str(summary.get("unacked_peak", 0))],
        ["congested snapshots", str(summary.get("congested_snapshots", 0))],
        ["transport reconnects", str(summary.get("reconnects", 0))],
        ["WAL fsyncs", str(summary.get("wal_fsyncs", 0))],
    ]
    return rows
