"""Plain-text table rendering for figures and sweeps.

The paper presents its evaluation as four line plots; we regenerate the
same series as aligned text tables (one row per x value, one column per
(group size, stack) curve), with 95 % confidence half-widths, suitable
for terminals and for EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import StackKind
from repro.experiments.crossover import gap_series
from repro.experiments.sweeps import POINT_QUANTITIES, SweepResult
from repro.metrics.stats import ConfidenceInterval, LatencyHistogram


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render an aligned plain-text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _format_ci(ci: ConfidenceInterval, scale: float, unit_digits: int) -> str:
    if ci.mean != ci.mean:  # NaN: no latency samples at this point
        return "n/a"
    if ci.count == 1:
        # Single-seed ensembles have no interval; "12.34±0.00" would
        # misrepresent the (absent) variance, so print the mean alone.
        return f"{ci.mean * scale:.{unit_digits}f}"
    return f"{ci.mean * scale:.{unit_digits}f}±{ci.half_width * scale:.{unit_digits}f}"


#: Column order of sweep tables: the paper's two stacks first (so the
#: regenerated Figs. 8–11 keep their historical layout), then the
#: extension stacks. Only stacks actually present in a sweep appear.
TABLE_STACK_ORDER = (
    StackKind.MONOLITHIC,
    StackKind.MODULAR,
    StackKind.SEQUENCER,
    StackKind.RINGPAXOS,
    StackKind.BATCHED_SEQUENCER,
)


#: The interval quantities text tables can print, by field: caption,
#: factor to the printed unit, decimals (the table's last column).
TABLE_QUANTITIES = {field: table for field, *_, table in POINT_QUANTITIES if table}


def sweep_table(
    sweep: SweepResult,
    metric: str,
    *,
    x_label: str,
    group_sizes: tuple[int, ...] = (3, 7),
) -> str:
    """One figure as a text table.

    Args:
        sweep: A load or size sweep result.
        metric: An interval row of
            :data:`~repro.experiments.sweeps.POINT_QUANTITIES` —
            ``"latency"``, its percentiles (printed in ms) or
            ``"throughput"`` (msgs/s).
        x_label: Header of the swept-parameter column.
        group_sizes: Which n curves to include.
    """
    if metric not in TABLE_QUANTITIES:
        raise ValueError(f"unknown metric {metric!r}")
    _, scale, digits = TABLE_QUANTITIES[metric]

    present = {p.stack for p in sweep.points}
    ordered = [s for s in TABLE_STACK_ORDER if s in present]
    ordered += sorted(present - set(TABLE_STACK_ORDER), key=lambda s: s.value)

    headers = [x_label]
    curves = []
    for n in group_sizes:
        for stack in ordered:
            series = sweep.series(n, stack)
            if series:
                headers.append(f"n={n} {stack.value}")
                curves.append({p.x: getattr(p, metric) for p in series})
    xs = sorted({p.x for p in sweep.points})
    rows = []
    for x in xs:
        row = [f"{x:g}"]
        for curve in curves:
            row.append(_format_ci(curve[x], scale, digits) if x in curve else "-")
        rows.append(row)
    return format_table(headers, rows)


def histogram_table(
    histogram: "LatencyHistogram", *, width: int = 40
) -> str:
    """Render one latency distribution as an aligned text histogram.

    One row per occupied log-bucket: the bucket's latency range in ms,
    the sample count, and a bar scaled so the fullest bucket spans
    *width* characters. Percentile markers (p50/p99/p999) are appended
    under the table.
    """
    pairs = histogram.counts()
    if not pairs:
        return "(no latency samples)"
    peak = max(count for _, count in pairs)
    rows = []
    for index, count in pairs:
        low, high = LatencyHistogram.bucket_bounds(index)
        bar = "#" * max(1, round(width * count / peak))
        rows.append([f"{low * 1e3:.3f}-{high * 1e3:.3f}", str(count), bar])
    table = format_table(["latency (ms)", "count", "distribution"], rows)
    marks = "  ".join(
        f"{name}={histogram.percentile(q) * 1e3:.2f}ms"
        for name, q in (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))
    )
    return f"{table}\n{marks}"


def gap_summary(sweep: SweepResult, metric: str, x: float, n: int) -> str:
    """One-line modular-vs-monolithic gap at a given point, as
    :func:`~repro.experiments.crossover.gap_series` defines it."""
    gap = 100.0 * next(p.gap for p in gap_series(sweep, n, metric) if p.x == x)
    if metric == "latency":
        return f"n={n}, x={x:g}: monolithic latency {gap:.0f}% lower than modular"
    return f"n={n}, x={x:g}: monolithic throughput {gap:+.0f}% vs modular"
