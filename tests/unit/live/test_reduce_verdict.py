"""Every fault-free live run is judged by the abcast spec.

``run_live`` hands ``_reduce`` a checker, which records each worker's
accepts and deliveries in the order that worker reported them, and
verifies it afterwards — whether or not the caller asked for the
delivery log. Driven here with hand-made control documents instead of a
deployment.
"""

import contextlib
import time

import pytest

from repro.errors import OrderingViolation
from repro.live import deploy, orchestrator
from repro.live.deploy import Done, LiveSpec, Samples, _reduce
from repro.live.orchestrator import _ControlServer
from repro.metrics.collector import MetricsCollector
from repro.metrics.ordering import OrderingChecker
from repro.types import MessageId

SPEC = LiveSpec(n=2, stack="monolithic", load=10.0, duration=1.0, warmup=0.0)


def control_with(*batches):
    control = _ControlServer(SPEC.n)
    control.samples.extend(batches)
    for pid in range(SPEC.n):
        # A worker that reports every final counter as zero.
        control.done[pid] = Done(pid, {}, 0.0, 0, 0, 0, 0, False, 0, 0, 0, [], 0)
    return control


def batch(pid, accepts=(), delivers=(), offered=0):
    return Samples(
        pid,
        [(sender, seq, 64, at) for sender, seq, at in accepts],
        list(delivers),
        offered,
    )


@pytest.mark.filterwarnings("ignore::repro.errors.StationarityWarning")
class TestReduceRecordsForTheChecker:
    def test_agreeing_workers_pass_and_the_log_is_per_worker_order(self):
        # p1's batch reaches the orchestrator first, and its accept of
        # m(1:0) only in a later batch than p0's delivery of it.
        control = control_with(
            batch(1, delivers=[(0, 0, 0.21), (1, 0, 0.31)]),
            batch(0, accepts=[(0, 0, 0.1)], delivers=[(0, 0, 0.2), (1, 0, 0.3)]),
            batch(1, accepts=[(1, 0, 0.15)]),
        )
        checker = OrderingChecker(SPEC.n)
        log = {}
        _reduce(SPEC, control, log, checker=checker)
        checker.verify(expect_all_delivered=True)
        assert checker.sequence(0) == (MessageId(0, 0), MessageId(1, 0))
        assert log == {pid: list(checker.sequence(pid)) for pid in range(SPEC.n)}

    def test_a_forked_order_is_a_total_order_violation(self):
        control = control_with(
            batch(
                0,
                accepts=[(0, 0, 0.1), (0, 1, 0.1)],
                delivers=[(0, 0, 0.2), (0, 1, 0.3)],
            ),
            batch(1, delivers=[(0, 1, 0.2), (0, 0, 0.3)]),
        )
        checker = OrderingChecker(SPEC.n)
        _reduce(SPEC, control, checker=checker)
        with pytest.raises(OrderingViolation, match="total-order: p1 diverges"):
            checker.verify()

    def test_a_delivery_nobody_accepted_is_an_integrity_violation(self):
        control = control_with(batch(0, delivers=[(1, 7, 0.2)]))
        checker = OrderingChecker(SPEC.n)
        _reduce(SPEC, control, checker=checker)
        with pytest.raises(OrderingViolation, match="never-abcast"):
            checker.verify()


@pytest.mark.filterwarnings("ignore::repro.errors.StationarityWarning")
def test_offered_rate_adds_the_sample_counts_it_used_to_count_out():
    """Each worker sample carries how many arrivals it saw; the rate is
    their sum over the window, as when every arrival was one call."""
    samples = [
        batch(pid, offered=offered)
        for pid, offered in zip((0, 1, 0, 1, 0), (20_000, 0, 17, 0, 3))
    ]
    reference = MetricsCollector(SPEC.n, window_start=0.0, window_end=1.0)
    for sample in samples:
        for __ in range(sample.offered):
            reference.on_offered()
    result = _reduce(SPEC, control_with(*samples))
    assert result["metrics"]["offered_rate"] == reference.finalize().offered_rate
    assert result["metrics"]["offered_rate"] == 20_020.0


@pytest.mark.filterwarnings("ignore::repro.errors.StationarityWarning")
def test_run_live_judges_the_run_without_being_asked(monkeypatch):
    forked = control_with(
        batch(0, accepts=[(0, 0, 0.1), (0, 1, 0.1)], delivers=[(0, 0, 0.2), (0, 1, 0.3)]),
        batch(1, delivers=[(0, 1, 0.2), (0, 0, 0.3)]),
    )

    @contextlib.asynccontextmanager
    async def finished_deployment(spec, expected_dead=frozenset()):
        yield forked, [], time.monotonic() - 3600.0, None

    monkeypatch.setattr(orchestrator, "_deployment", finished_deployment)
    with pytest.raises(OrderingViolation, match="total-order"):
        deploy.run_live(SPEC)  # no delivery_log, no checker of the caller's
