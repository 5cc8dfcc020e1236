"""Live deployment smoke: real worker processes over real TCP.

One short run (n=3, low load, sub-second window) per stack family we
care most about; marked ``slow`` company is not available, so keep the
windows tight — each test costs roughly warmup + duration + drain plus
interpreter start-up for three workers.
"""

import gc
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.live.deploy import LiveSpec, run_live

#: Keys every result dict must carry (the sim RunResult schema).
RESULT_KEYS = {
    "mode",
    "config",
    "seed",
    "metrics",
    "network",
    "cpu_utilization",
    "instances_decided",
    "events_executed",
}


def smoke_spec(**overrides) -> LiveSpec:
    defaults = dict(
        n=3, stack="monolithic", load=40.0, duration=0.8, warmup=0.3, drain=0.3
    )
    defaults.update(overrides)
    return LiveSpec(**defaults)


class TestLiveSmoke:
    def test_monolithic_end_to_end(self):
        result = run_live(smoke_spec())
        assert result["mode"] == "live"
        assert set(result) == RESULT_KEYS
        metrics = result["metrics"]
        assert metrics["throughput"] > 0
        assert metrics["latency_count"] > 0
        assert metrics["latency_mean"] is not None and metrics["latency_mean"] > 0
        assert result["instances_decided"] > 0
        assert result["network"]["messages_sent"] > 0
        assert len(result["cpu_utilization"]) == 3

    def test_modular_end_to_end(self):
        result = run_live(smoke_spec(stack="modular"))
        assert result["metrics"]["throughput"] > 0
        assert result["instances_decided"] > 0

    def test_a_run_leaves_no_control_connection_open(self):
        # The orchestrator's end of each worker's control connection is
        # closed by the run, not left to the garbage collector.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run_live(smoke_spec())
            gc.collect()
        unclosed = [
            str(warning.message)
            for warning in caught
            if issubclass(warning.category, ResourceWarning)
        ]
        assert unclosed == []

    def test_schema_matches_sim_result(self):
        from repro.config import RunConfig
        from repro.experiments.runner import run_simulation
        from repro.live.results import sim_result_to_dict

        sim = sim_result_to_dict(run_simulation(RunConfig(n=3, duration=0.5)))
        live = run_live(smoke_spec())
        assert set(sim) == set(live)
        assert set(sim["metrics"]) == set(live["metrics"])
        assert set(sim["config"]) == set(live["config"])


class TestClientFleet:
    def test_fleet_multiplexes_over_1000_logical_clients_per_connection(self):
        # 3600 logical clients over 3 workers = 1200 per connection —
        # above the 1000-per-connection bar the fleet driver must clear.
        result = run_live(
            smoke_spec(clients=3600, zipf_s=1.1, client_arrival="bursty")
        )
        metrics = result["metrics"]
        assert metrics["throughput"] > 0
        assert metrics["latency_count"] > 0
        assert metrics["latency_p999"] is not None
        assert metrics["latency_p999"] > 0
        # Attribution really ran: some (skew: not all) of the 3600
        # clients sent during the window.
        assert 0 < metrics["active_clients"] <= 3600

    def test_fleet_smaller_than_group_rejected(self):
        with pytest.raises(ConfigurationError):
            run_live(smoke_spec(clients=2))


class TestSpecValidation:
    def test_unknown_stack_rejected_before_deploying(self):
        with pytest.raises(ConfigurationError):
            run_live(smoke_spec(stack="bogus"))

    def test_nonpositive_load_rejected(self):
        with pytest.raises(ConfigurationError):
            run_live(smoke_spec(load=0.0))

    def test_unknown_fd_rejected(self):
        with pytest.raises(ConfigurationError):
            run_live(smoke_spec(fd="oracle"))
