"""Unit tests for the gap curve analysis."""

import pytest

from repro.config import StackKind
from repro.errors import MetricsError
from repro.experiments.crossover import gap_series
from repro.experiments.sweeps import PointSummary, SweepResult
from repro.metrics.stats import ConfidenceInterval


def point(n, stack, x, latency, throughput):
    ci = lambda v: ConfidenceInterval(v, 0.0, 0.95, 1)
    return PointSummary(
        n=n,
        stack=stack,
        x=x,
        latency=ci(latency),
        latency_p50=ci(latency),
        latency_p99=ci(latency),
        latency_p999=ci(latency),
        throughput=ci(throughput),
        delivered_per_consensus=4.0,
        stationary=True,
        runs=(),
    )


def synthetic_sweep():
    """Latency ramps then plateaus; throughput tracks load then caps."""
    points = []
    profile = {
        StackKind.MODULAR: [(250, 4, 250), (500, 8, 500), (1000, 12, 800),
                            (2000, 12.2, 810), (4000, 12.1, 805)],
        StackKind.MONOLITHIC: [(250, 3, 250), (500, 5, 500), (1000, 7, 900),
                               (2000, 7.1, 1000), (4000, 7.0, 1005)],
    }
    for stack, rows in profile.items():
        for x, latency, throughput in rows:
            points.append(point(3, stack, float(x), latency * 1e-3, throughput))
    return SweepResult(parameter="offered_load", points=tuple(points))


def test_gap_series_directions():
    sweep = synthetic_sweep()
    latency_gaps = gap_series(sweep, 3, "latency")
    throughput_gaps = gap_series(sweep, 3, "throughput")
    assert all(0 <= g.gap < 1 for g in latency_gaps)
    # At 4000: latency gap 1 - 7.0/12.1 ~ 0.42; throughput ~ +24.8%.
    assert latency_gaps[-1].gap == pytest.approx(1 - 7.0 / 12.1)
    assert throughput_gaps[-1].gap == pytest.approx(1005 / 805 - 1)


def test_missing_series_raises():
    sweep = synthetic_sweep()
    with pytest.raises(MetricsError):
        gap_series(sweep, 7, "latency")


def test_unknown_metric_raises():
    sweep = synthetic_sweep()
    with pytest.raises(MetricsError):
        gap_series(sweep, 3, "jitter")


def test_on_a_real_reduced_sweep():
    """Wire the analysis to an actual simulation sweep: the peak latency
    gap is positive (the paper's core claim)."""
    from repro.config import RunConfig
    from repro.experiments.sweeps import run_load_sweep

    sweep = run_load_sweep(
        loads=(300.0, 1500.0, 4000.0),
        message_size=2048,
        group_sizes=(3,),
        seeds=(1,),
        base=RunConfig(duration=0.4, warmup=0.2),
    )
    gaps = gap_series(sweep, 3, "latency")
    assert [gap.x for gap in gaps] == [300.0, 1500.0, 4000.0]
    assert max(gap.gap for gap in gaps) > 0
