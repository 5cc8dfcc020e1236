"""The table of reported quantities and the bytes its consumers emit.

The goldens under ``tests/data/`` were written by the hand-enumerated
code this table replaced (commit 4a47565); every consumer that now
iterates :data:`POINT_QUANTITIES` must reproduce them byte for byte.
The structural tests make a quantity declared in one consumer only
impossible: the consumers have no per-quantity code left to forget.
"""

import dataclasses
import io
import json
from pathlib import Path

import pytest

from repro.config import RunConfig
from repro.experiments.export import (
    _RUN_METRICS_OMITTED,
    CSV_FIELDS,
    dumps_canonical,
    point_to_dict,
    run_to_dict,
    sweep_to_dict,
    write_sweep_csv,
)
from repro.experiments.report import TABLE_QUANTITIES, sweep_table
from repro.experiments.sweeps import POINT_QUANTITIES, PointSummary, run_load_sweep
from repro.metrics.collector import RunMetrics

DATA = Path(__file__).resolve().parents[2] / "data"
INTERVALS = list(TABLE_QUANTITIES)


@pytest.fixture(scope="module")
def tiny_sweep():
    return run_load_sweep(
        loads=(200.0, 400.0),
        message_size=256,
        group_sizes=(3,),
        seeds=(1, 2),
        base=RunConfig(duration=0.3, warmup=0.15),
    )


def test_csv_bytes_match_the_golden(tiny_sweep):
    buffer = io.StringIO(newline="")
    write_sweep_csv(tiny_sweep, buffer)
    assert buffer.getvalue() == (DATA / "tiny_sweep.csv").read_bytes().decode()


def test_canonical_json_bytes_match_the_golden(tiny_sweep):
    text = dumps_canonical(sweep_to_dict(tiny_sweep))
    assert text == (DATA / "tiny_sweep.json").read_text()


@pytest.mark.parametrize("metric", INTERVALS)
def test_sweep_table_matches_the_golden(tiny_sweep, metric):
    golden = (DATA / f"tiny_sweep_{metric}.txt").read_text()
    assert sweep_table(tiny_sweep, metric, x_label="load") + "\n" == golden


def test_the_five_interval_quantities_are_the_printed_ones():
    assert INTERVALS == [
        "latency", "latency_p50", "latency_p99", "latency_p999", "throughput"
    ]


def test_every_row_reaches_every_consumer(tiny_sweep):
    point = tiny_sweep.points[0]
    document = point_to_dict(point)
    summary_fields = [f.name for f in dataclasses.fields(PointSummary)]
    assert sorted(summary_fields) == sorted(
        ["n", "stack", "x"] + [field for field, *_ in POINT_QUANTITIES]
    )
    assert set(document) == set(summary_fields)
    columns = [c for _, _, _, csv_columns, *_ in POINT_QUANTITIES for c in csv_columns]
    assert CSV_FIELDS == ("parameter", "x", "n", "stack", *columns)
    assert len(set(CSV_FIELDS)) == len(CSV_FIELDS)
    for field, _, _, csv_columns, _, table in POINT_QUANTITIES:
        assert 1 <= len(csv_columns) <= 2
        if table:
            assert sweep_table(tiny_sweep, field, x_label="x")
        else:
            with pytest.raises(ValueError):
                sweep_table(tiny_sweep, field, x_label="x")


def test_run_metrics_block_is_every_field_but_the_written_down_exclusion(tiny_sweep):
    run = tiny_sweep.points[0].runs[0]
    fields = {f.name for f in dataclasses.fields(RunMetrics)}
    assert set(_RUN_METRICS_OMITTED) <= fields
    assert set(run_to_dict(run)["metrics"]) == fields - set(_RUN_METRICS_OMITTED)
    # JSON-ready: tuples serialize as arrays, NaN never appears.
    json.dumps(run_to_dict(run), allow_nan=False)
