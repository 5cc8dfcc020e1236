"""Reduction of live-worker telemetry snapshot streams."""

from repro.live.deploy import Telemetry
from repro.obs.telemetry import summarize_telemetry, telemetry_rows


def snapshot(pid, **fields):
    base = {
        "queue_depth": 0, "unacked": 0, "congested": False,
        "backpressure_stalls": 0, "reconnects": 0, "wal_fsyncs": 0,
    }
    base.update(fields)
    return Telemetry(pid, **base)


def test_empty_stream_summarizes_to_zero():
    summary = summarize_telemetry([])
    assert summary["snapshots"] == 0
    assert summary["queue_depth_peak"] == 0
    assert summary["wal_fsyncs"] == 0


def test_gauges_take_the_peak_across_snapshots():
    summary = summarize_telemetry([
        snapshot(0, queue_depth=2, unacked=10),
        snapshot(0, queue_depth=7, unacked=3),
        snapshot(1, queue_depth=4, unacked=12),
    ])
    assert summary["queue_depth_peak"] == 7
    assert summary["unacked_peak"] == 12
    assert summary["snapshots"] == 3


def test_counters_sum_final_values_across_workers():
    # Counters are cumulative per worker: the reduction must take each
    # worker's max (= final value), then sum workers — not sum every
    # snapshot, which would count early flushes many times over.
    summary = summarize_telemetry([
        snapshot(0, wal_fsyncs=3, reconnects=1),
        snapshot(0, wal_fsyncs=9, reconnects=1),
        snapshot(1, wal_fsyncs=4, backpressure_stalls=2),
    ])
    assert summary["wal_fsyncs"] == 13
    assert summary["reconnects"] == 1
    assert summary["backpressure_stalls"] == 2


def test_congested_snapshots_are_counted():
    summary = summarize_telemetry([
        snapshot(0, congested=True),
        snapshot(0),
        snapshot(1, congested=True),
    ])
    assert summary["congested_snapshots"] == 2


def test_rows_render_only_when_snapshots_exist():
    assert telemetry_rows(summarize_telemetry([])) == []
    rows = telemetry_rows(
        summarize_telemetry([snapshot(0, wal_fsyncs=5)])
    )
    as_dict = {metric: value for metric, value in rows}
    assert as_dict["WAL fsyncs"] == "5"
    assert as_dict["telemetry snapshots"] == "1"
