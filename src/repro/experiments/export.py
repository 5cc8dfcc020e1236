"""CSV and JSON export of sweep results.

For users who want to re-plot the figures with their own tooling: every
sweep (and therefore every figure) can be dumped as a tidy CSV with one
row per (group size, stack, x) point, carrying every quantity of
:data:`~repro.experiments.sweeps.POINT_QUANTITIES` — neither export
names a quantity itself. ``python -m repro figures --csv DIR`` writes
one file per figure.

The JSON export is *canonical*: keys sorted, fixed separators, NaNs
mapped to ``null``, one trailing newline. Two runs of the same sweep
produce byte-identical files — the determinism tests compare the
``--jobs 1`` and ``--jobs 4`` exports with ``==`` on the raw bytes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path
from typing import IO, Any

from repro.experiments.runner import RunResult
from repro.experiments.sweeps import POINT_QUANTITIES, PointSummary, SweepResult
from repro.metrics.stats import ConfidenceInterval

#: Column order of the exported CSV: the point's key, then the column(s)
#: of every row of :data:`~repro.experiments.sweeps.POINT_QUANTITIES`.
CSV_FIELDS = ("parameter", "x", "n", "stack") + tuple(
    column for _, _, _, columns, *_ in POINT_QUANTITIES for column in columns
)

#: The one :class:`~repro.metrics.collector.RunMetrics` field the
#: canonical JSON leaves out (it predates the field, and the goldens pin
#: its bytes); ``repro.live.results`` reports it.
_RUN_METRICS_OMITTED = ("backpressure_stalls",)


def write_sweep_csv(sweep: SweepResult, destination: IO[str] | str | Path) -> int:
    """Write *sweep* as CSV; returns the number of data rows written.

    Args:
        sweep: A load or size sweep result.
        destination: An open text file or a path to (over)write.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as handle:
            return write_sweep_csv(sweep, handle)
    writer = csv.writer(destination)
    writer.writerow(CSV_FIELDS)
    ordered = sorted(sweep.points, key=lambda p: (p.n, p.stack.value, p.x))
    for point in ordered:
        row = [sweep.parameter, point.x, point.n, point.stack.value]
        for field, _, _, columns, cell, _ in POINT_QUANTITIES:
            value = getattr(point, field)
            if isinstance(value, ConfidenceInterval):
                parts = (value.mean, value.half_width)[: len(columns)]
            else:
                parts = (value,)
            # No value (no seed had one, or a NaN mean): every cell of
            # the quantity is blank, the half-width included.
            absent = parts[0] is None or parts[0] != parts[0]
            row.extend("" if absent else cell(part) for part in parts)
        writer.writerow(row)
    return len(ordered)


# -- canonical JSON ---------------------------------------------------------


def _finite(value: Any) -> Any:
    """NaN/None → None (canonical JSON must not contain bare ``NaN``)."""
    if value is None or value != value:
        return None
    return value


def _finite_fields(record: Any, omit: tuple[str, ...] = ()) -> dict[str, Any]:
    """A dataclass as a dict of its finite field values."""
    return {
        name: _finite(value)
        for name, value in asdict(record).items()
        if name not in omit
    }


def run_to_dict(run: RunResult) -> dict[str, Any]:
    """Plain-dict form of one run (full per-seed fidelity)."""
    return {
        "seed": run.seed,
        "metrics": _finite_fields(run.metrics, omit=_RUN_METRICS_OMITTED),
        "network": {key: run.network[key] for key in sorted(run.network)},
        "cpu_utilization": list(run.cpu_utilization),
        "instances_decided": run.instances_decided,
        "events_executed": run.events_executed,
    }


def _plain(value: Any) -> Any:
    """One point quantity as JSON-ready data."""
    if isinstance(value, ConfidenceInterval):
        return _finite_fields(value)
    if isinstance(value, tuple):  # (key, count) pairs, or the runs
        return [
            run_to_dict(item) if isinstance(item, RunResult) else list(item)
            for item in value
        ]
    return _finite(value)


def point_to_dict(point: PointSummary) -> dict[str, Any]:
    """Plain-dict form of one sweep point, including its raw runs."""
    document = {"n": point.n, "stack": point.stack.value, "x": point.x}
    for field, *_ in POINT_QUANTITIES:
        document[field] = _plain(getattr(point, field))
    return document


def sweep_to_dict(sweep: SweepResult) -> dict[str, Any]:
    """Plain-dict form of a whole sweep (points in canonical order)."""
    ordered = sorted(sweep.points, key=lambda p: (p.n, p.stack.value, p.x))
    return {
        "parameter": sweep.parameter,
        "points": [point_to_dict(point) for point in ordered],
    }


def dumps_canonical(payload: Any) -> str:
    """Serialize *payload* as canonical JSON (byte-stable across runs)."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
        + "\n"
    )


def write_sweeps_json(
    sweeps: dict[str, SweepResult], destination: str | Path
) -> None:
    """Write named sweeps as one canonical JSON document."""
    payload = {name: sweep_to_dict(sweep) for name, sweep in sweeps.items()}
    Path(destination).write_text(dumps_canonical(payload), encoding="utf-8")
