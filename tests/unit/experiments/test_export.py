"""Unit tests for the CSV export."""

import csv
import io

import pytest

from repro.config import RunConfig
from repro.experiments.export import CSV_FIELDS, write_sweep_csv
from repro.experiments.sweeps import run_load_sweep


@pytest.fixture(scope="module")
def tiny_sweep():
    return run_load_sweep(
        loads=(200.0, 400.0),
        message_size=256,
        group_sizes=(3,),
        seeds=(1,),
        base=RunConfig(duration=0.3, warmup=0.15),
    )


def test_csv_has_header_and_all_points(tiny_sweep):
    buffer = io.StringIO()
    rows = write_sweep_csv(tiny_sweep, buffer)
    assert rows == 4
    parsed = list(csv.reader(io.StringIO(buffer.getvalue())))
    assert tuple(parsed[0]) == CSV_FIELDS
    assert len(parsed) == 5


def test_csv_values_roundtrip(tiny_sweep):
    buffer = io.StringIO()
    write_sweep_csv(tiny_sweep, buffer)
    parsed = list(csv.DictReader(io.StringIO(buffer.getvalue())))
    row = next(
        r for r in parsed if r["stack"] == "modular" and float(r["x"]) == 200.0
    )
    point = tiny_sweep.point(3, __import__("repro.config", fromlist=["StackKind"]).StackKind.MODULAR, 200.0)
    assert float(row["throughput_mean"]) == pytest.approx(
        point.throughput.mean, abs=0.01
    )
    assert float(row["latency_mean_s"]) == pytest.approx(point.latency.mean, rel=1e-6)
    assert row["parameter"] == "offered_load"


def test_csv_writes_to_path(tiny_sweep, tmp_path):
    target = tmp_path / "fig.csv"
    rows = write_sweep_csv(tiny_sweep, target)
    assert rows == 4
    assert target.read_text().startswith("parameter,")


def test_point_without_latency_samples_reports_its_seeds_and_a_blank_ci():
    # A window too short for any abcast to be measured: every latency
    # quantity is absent. The row used to claim seeds=1 (the length of
    # the NaN placeholder) next to a printed half-width of 0.000000000.
    sweep = run_load_sweep(
        loads=(1.0,), seeds=(1, 2, 3), base=RunConfig(duration=0.05, warmup=0.05)
    )
    buffer = io.StringIO()
    write_sweep_csv(sweep, buffer)
    rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
    assert len(rows) == 4
    for row, point in zip(rows, sorted(sweep.points, key=lambda p: (p.n, p.stack.value))):
        assert len(point.runs) == 3
        assert row["seeds"] == "3"
        assert row["latency_mean_s"] == "" and row["latency_ci95_s"] == ""
        assert row["latency_p999_s"] == ""
        assert row["throughput_mean"] != "" and row["throughput_ci95"] != ""
