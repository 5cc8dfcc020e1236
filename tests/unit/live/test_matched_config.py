"""One ``LiveSpec`` → ``RunConfig`` mapping, read by the worker that runs
a spec and by the simulation ``repro live --compare`` sets beside it."""

import json

import pytest

from repro.config import ClientArrival, FailureDetectorKind, plain, read_fields
from repro.experiments.runner import run_simulation
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.live.compare import matched_run_config
from repro.live.deploy import LiveSpec, WorkerSpec, worker_spec
from repro.live.worker import Worker

ADDRESSES = {pid: ("127.0.0.1", 1) for pid in range(3)}
FLEET = LiveSpec(clients=3000, client_arrival="bursty", fd="none")


def worker_of(spec: LiveSpec, pid: int = 0) -> Worker:
    """Worker *pid* of *spec*, handed its spec as argv carries it."""
    document = json.loads(json.dumps(plain(worker_spec(spec, pid, ADDRESSES, 1))))
    return Worker(read_fields(WorkerSpec, document))


def test_the_worker_reads_back_the_spec_it_was_handed():
    spec = LiveSpec(stack="ringpaxos", senders=(0, 2), clients=3000, max_batch=None)
    worker = worker_of(spec, pid=2)
    assert (worker.spec, worker.pid) == (spec, 2)
    assert worker.config == matched_run_config(spec)


@pytest.mark.parametrize("spec", [LiveSpec(), FLEET], ids=["default", "fleet-no-fd"])
def test_worker_and_matched_simulation_run_the_same_detector(spec):
    built = worker_of(spec).runtime._fd
    config = matched_run_config(spec).failure_detector
    if spec.fd == "none":
        # Nothing attached live; simulated, the base detector, which
        # the faultload alone moves: neither sends a message nor
        # suspects anyone on its own.
        assert built is None and config.kind is FailureDetectorKind.SCRIPTED
    else:
        assert isinstance(built, HeartbeatFailureDetector)
        assert config.kind is FailureDetectorKind.HEARTBEAT
        assert (built.heartbeat_interval, built.timeout) == (0.1, 1.0)
        assert (config.heartbeat_interval, config.timeout) == (0.1, 1.0)


def test_the_population_arrives_with_its_three_fields():
    population = matched_run_config(FLEET).workload.population
    assert (population.clients, population.zipf_s, population.arrival) == (
        3000, FLEET.zipf_s, ClientArrival.BURSTY
    )
    assert worker_of(FLEET).config.workload.population == population
    assert matched_run_config(LiveSpec()).workload.population is None


def test_sim_column_pays_the_workers_heartbeats_not_the_simulators_default():
    """``repro live --compare`` at its default point (monolithic, n = 3,
    100 msg/s, 5 s, seed 1) read 3 931 under the simulator's detector
    defaults (0.05 s / 0.25 s): 294 heartbeats no worker sends."""
    spec = LiveSpec()
    sim = run_simulation(matched_run_config(spec), spec.seed)
    assert sim.network["messages_sent"] == 3637
