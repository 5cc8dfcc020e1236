"""Unit tests for the metrics collector (early latency, throughput)."""

import pytest

from repro.metrics.collector import MetricsCollector
from repro.types import AppMessage, MessageId


def accepted(sender, seq, t0, size=10):
    return AppMessage(MessageId(sender, seq), size=size, abcast_time=t0)


def test_early_latency_uses_first_delivery():
    collector = MetricsCollector(3, window_start=0.0, window_end=10.0)
    m = accepted(0, 0, t0=1.0)
    collector.on_accept(m)
    collector.on_adeliver(2, m, 1.4)  # earliest
    collector.on_adeliver(0, m, 1.6)
    collector.on_adeliver(1, m, 1.9)
    metrics = collector.finalize()
    assert metrics.latency_mean == pytest.approx(0.4)
    assert metrics.latency_count == 1


def test_the_first_delivery_takes_the_accept_time_with_it():
    collector = MetricsCollector(3, window_start=0.0, window_end=10.0)
    delivered, in_flight = accepted(0, 0, t0=1.0), accepted(1, 0, t0=1.1)
    collector.on_accept(delivered)
    collector.on_accept(in_flight)
    collector.on_adeliver(2, delivered, 1.4)
    assert set(collector._abcast_times) == {in_flight.msg_id}
    collector.on_adeliver(0, delivered, 1.6)  # finds nothing, samples nothing
    assert collector.finalize().latency_count == 1


def test_throughput_is_mean_per_process_rate():
    collector = MetricsCollector(2, window_start=0.0, window_end=2.0)
    for seq in range(4):
        m = accepted(0, seq, t0=0.1)
        collector.on_accept(m)
        collector.on_adeliver(0, m, 0.5)
        collector.on_adeliver(1, m, 0.6)
    metrics = collector.finalize()
    # 4 deliveries per process over 2 seconds -> 2/s per process.
    assert metrics.throughput == pytest.approx(2.0)


def test_messages_abcast_before_window_do_not_count_for_latency():
    collector = MetricsCollector(2, window_start=1.0, window_end=2.0)
    warm = accepted(0, 0, t0=0.5)
    collector.on_accept(warm)
    collector.on_adeliver(0, warm, 1.5)
    metrics = collector.finalize()
    assert metrics.latency_count == 0
    assert metrics.latency_mean is None


def test_deliveries_outside_window_do_not_count_for_throughput():
    collector = MetricsCollector(1, window_start=1.0, window_end=2.0)
    m = accepted(0, 0, t0=1.5)
    collector.on_accept(m)
    collector.on_adeliver(0, m, 2.5)  # in the drain period
    metrics = collector.finalize()
    assert metrics.throughput == 0.0
    assert metrics.latency_count == 1  # latency still attributed


def test_unknown_message_delivery_is_ignored_for_latency():
    collector = MetricsCollector(1, window_start=0.0, window_end=1.0)
    stranger = accepted(0, 99, t0=0.1)
    collector.on_adeliver(0, stranger, 0.2)
    assert collector.finalize().latency_count == 0


def test_latency_samples_sorted_by_abcast_time():
    collector = MetricsCollector(1, window_start=0.0, window_end=10.0)
    m2 = accepted(0, 2, t0=5.0)
    m1 = accepted(0, 1, t0=1.0)
    for m, t in ((m2, 5.2), (m1, 1.5)):
        collector.on_accept(m)
        collector.on_adeliver(0, m, t)
    assert collector.latency_samples == [pytest.approx(0.5), pytest.approx(0.2)]


def test_offered_rate_counts_attempts():
    collector = MetricsCollector(1, window_start=0.0, window_end=2.0)
    for __ in range(10):
        collector.on_offered()
    assert collector.finalize().offered_rate == pytest.approx(5.0)


def test_blocked_attempts_pass_through():
    collector = MetricsCollector(1, window_start=0.0, window_end=1.0)
    assert collector.finalize(blocked_attempts=7).blocked_attempts == 7


def test_latency_percentiles():
    collector = MetricsCollector(1, window_start=0.0, window_end=100.0)
    for seq in range(100):
        m = accepted(0, seq, t0=float(seq))
        collector.on_accept(m)
        collector.on_adeliver(0, m, float(seq) + (seq + 1) / 1000.0)
    metrics = collector.finalize()
    # Latencies are 1..100 ms.
    assert metrics.latency_p50 == pytest.approx(0.050, abs=0.002)
    assert metrics.latency_p95 == pytest.approx(0.095, abs=0.002)
    assert metrics.latency_p99 == pytest.approx(0.099, abs=0.002)
    assert metrics.latency_p99 >= metrics.latency_p95 >= metrics.latency_p50


def test_percentiles_none_without_samples():
    collector = MetricsCollector(1, window_start=0.0, window_end=1.0)
    metrics = collector.finalize()
    assert metrics.latency_p50 is None
    assert metrics.latency_p95 is None
    assert metrics.latency_p99 is None


def test_single_sample_percentiles_collapse():
    collector = MetricsCollector(1, window_start=0.0, window_end=10.0)
    m = accepted(0, 0, t0=1.0)
    collector.on_accept(m)
    collector.on_adeliver(0, m, 1.25)
    metrics = collector.finalize()
    assert metrics.latency_p50 == metrics.latency_p99 == pytest.approx(0.25)


def test_no_attribution_reads_as_the_empty_one():
    from repro.obs.attribution import EMPTY_ATTRIBUTION

    def run(**attribution):
        collector = MetricsCollector(3, window_start=0.0, window_end=10.0)
        m = accepted(0, 0, t0=1.0)
        collector.on_accept(m)
        collector.on_adeliver(1, m, 1.4)
        return collector.finalize(**attribution)

    metrics = run()
    assert metrics == run(attribution=EMPTY_ATTRIBUTION)
    assert (metrics.layer_busy, metrics.boundary_time) == ((), 0.0)
    assert (metrics.boundary_crossings, metrics.modularity_overhead) == (0, None)
