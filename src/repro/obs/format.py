"""Human-readable rendering of trace slices and span paths.

The nemesis violation reports carry a ring buffer of recent events as
``(time, proc, layer, event)`` rows (the monitor knows the layer when it
notes the event); :func:`format_trace_slice` renders them as aligned
columns, so a violation's context reads like a table. The profile CLI
uses :func:`format_message_path` for its critical-path summary.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.sim.tracing import TraceRecord


def _columns(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Right-align every column but the last, which runs free."""
    last = len(headers) - 1
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row[:last]):
            widths[i] = max(widths[i], len(cell))
    return "\n".join(
        "  ".join(
            cell.rjust(widths[i]) if i < last else cell
            for i, cell in enumerate(row)
        )
        for row in (headers, *rows)
    )


def format_trace_slice(rows: Iterable[tuple[float, str, str, str]]) -> str:
    """Render a monitor's ``(time, proc, layer, event)`` rows as columns."""
    return _columns(
        ("t", "proc", "layer", "event"),
        [(f"{time:.4f}", *cells) for time, *cells in rows],
    )


def format_message_path(records: Iterable[TraceRecord]) -> str:
    """One message's causal path as an aligned timeline.

    Rows show absolute time (ms), the delta to the previous step (µs),
    the process and what happened — the profile CLI's critical-path
    summary for a representative message.
    """
    rows = []
    previous: float | None = None
    for record in records:
        delta = "" if previous is None else f"+{(record.time - previous) * 1e6:.0f}"
        previous = record.time
        category = record.category
        if category == "abcast.submit":
            what = f"submit {record.detail}"
        elif category == "abcast.adeliver":
            what = f"adeliver {record.detail}"
        elif category.startswith("net."):
            message = record.detail
            what = (
                f"{category[4:]} {message.kind} "
                f"{message.module} p{message.src}->p{message.dst} "
                f"({message.wire_size}B)"
            )
        elif category == "span.adeliver":
            layer, duration = record.detail[0], record.detail[1]
            what = f"adeliver upcall in {layer} ({duration * 1e6:.0f}µs)"
        else:
            what = f"{category} {record.detail}"
        rows.append((f"{record.time * 1e3:.3f}", delta, f"p{record.process}", what))
    if not rows:
        return "(no records for this message)"
    return _columns(("t (ms)", "+µs", "proc", "event"), rows)
