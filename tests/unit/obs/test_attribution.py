"""Per-layer attribution: unit algebra plus the paper-level invariants.

The two load-bearing properties of the whole observability subsystem
are pinned here: a monolithic stack accrues *exactly zero* boundary
time (the overhead is a property of modular composition, not of the
instrumentation), and enabling the span trace changes no metric bit.
"""

from dataclasses import asdict

import pytest

from repro.config import RunConfig, WorkloadConfig, stack_from_label
from repro.experiments.runner import run_simulation
from repro.obs.attribution import (
    EMPTY_ATTRIBUTION,
    LayerAttribution,
    delta_layers,
)
from repro.sim.tracing import TraceRecorder


class TestAlgebra:
    def test_from_totals_sorts_and_drops_idle_layers(self):
        attribution = LayerAttribution.from_totals(
            {"rbcast": 2.0, "abcast": 1.0, "idle": 0.0}, 0.5, 3
        )
        assert attribution.layer_busy == (("abcast", 1.0), ("rbcast", 2.0))
        assert attribution.layer_time == 3.0
        assert attribution.total_time == 3.5
        assert attribution.overhead_fraction == pytest.approx(0.5 / 3.5)

    def test_empty_attribution_has_no_overhead(self):
        assert EMPTY_ATTRIBUTION.overhead_fraction is None
        assert EMPTY_ATTRIBUTION.total_time == 0.0

    def test_delta_layers_subtracts_snapshots(self):
        end = {"a": 5.0, "b": 2.0}
        start = {"a": 3.0}
        assert delta_layers(end, start) == {"a": 2.0, "b": 2.0}


class TestRunInvariants:
    def test_monolithic_boundary_time_is_exactly_zero(self, monolithic_run):
        result, __ = monolithic_run
        metrics = result.metrics
        assert metrics.boundary_time == 0.0
        assert metrics.boundary_crossings == 0
        assert metrics.modularity_overhead == 0.0

    def test_modular_boundary_time_is_nonzero(self, modular_run):
        result, __ = modular_run
        metrics = result.metrics
        assert metrics.boundary_time > 0.0
        assert metrics.boundary_crossings > 0
        assert metrics.modularity_overhead is not None
        assert 0.0 < metrics.modularity_overhead < 1.0

    def test_modular_layers_cover_the_stack(self, modular_run):
        result, __ = modular_run
        layers = dict(result.metrics.layer_busy)
        assert {"abcast", "consensus", "rbcast", "app"} <= set(layers)
        assert all(seconds > 0.0 for seconds in layers.values())

    def test_monolithic_has_one_protocol_layer(self, monolithic_run):
        result, __ = monolithic_run
        layers = dict(result.metrics.layer_busy)
        assert "mono" in layers
        assert not {"abcast", "consensus", "rbcast"} & set(layers)


def test_metrics_identical_with_tracing_on_and_off():
    config = RunConfig(
        n=3,
        stack=stack_from_label("modular"),
        workload=WorkloadConfig(offered_load=50.0, message_size=512),
        duration=0.3,
        warmup=0.1,
    )
    plain = run_simulation(config, seed=7)
    traced = run_simulation(config, seed=7, trace=TraceRecorder())
    assert asdict(plain.metrics) == asdict(traced.metrics)
