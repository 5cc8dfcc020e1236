"""The lazy arrival schedule against the always-ticking one it stands for.

`ArrivalSchedule` posts no kernel events while its sender is blocked and
books the skipped arrivals in bulk when a slot frees. The reference kept
here is the schedule that batching replaces: one kernel event and one
`offer()` per arrival, blocked or not. Both drive the same sender code
from the same seed, under the same slot releases and the same crash, and
must leave the same counters, the same accepted messages and the same
RNG state behind.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ArrivalProcess,
    ClientArrival,
    ClientPopulationConfig,
    WorkloadConfig,
)
from repro.errors import FlowControlError
from repro.flowcontrol.window import BacklogWindow
from repro.net.network import Network
from repro.sim.kernel import Kernel
from repro.stack.runtime import ProcessRuntime
from repro.workload.generator import (
    ArrivalSchedule,
    FlowControlledSender,
    make_gap_sampler,
)

from tests.conftest import make_ctx
from tests.unit.workload.test_generator import FAST_NET, FREE_COSTS, Sink

N = 2


class AlwaysTicking:
    """One kernel event and one ``offer()`` per arrival, blocked or not."""

    def __init__(self, kernel, sender, workload, *, stop_at, on_arrival):
        self._kernel = kernel
        self._sender = sender
        self._stop_at = stop_at
        self._on_arrival = on_arrival
        self.rng = kernel.rng.stream("w")
        self._sampler = make_gap_sampler(workload, N, self.rng)

    def start(self):
        self._kernel.schedule(self._sampler.first_delay(), self._tick)

    def _tick(self):
        now = self._kernel.now
        if now > self._stop_at or not self._sender.runtime.alive:
            return
        self._on_arrival()
        self._sender.offer()
        self._kernel.schedule_at(now + self._sampler.gap(now), self._tick)

    def finalize(self):
        pass


WORKLOADS = {
    "uniform": lambda rate: WorkloadConfig(offered_load=rate, message_size=10),
    "poisson": lambda rate: WorkloadConfig(
        offered_load=rate, message_size=10, arrival=ArrivalProcess.POISSON
    ),
    "bursty": lambda rate: WorkloadConfig(
        offered_load=rate,
        message_size=10,
        population=ClientPopulationConfig(
            clients=50, arrival=ClientArrival.BURSTY, burst_on=0.02, burst_off=0.03
        ),
    ),
}


def sink_runtime(kernel):
    """Process 0 of a two-process group, swallowing what is abcast."""
    return ProcessRuntime(
        0, [Sink(make_ctx(pid=0, n=N))], kernel=kernel,
        network=Network(kernel, N, FAST_NET), costs=FREE_COSTS, net_config=FAST_NET,
    )


def run_world(lazy, workload, window, releases, crash_at, stop_at):
    """Everything one schedule leaves behind, as a comparable dict."""
    kernel = Kernel(seed=11)
    runtime = sink_runtime(kernel)
    accepted, held, offers, arrivals = [], [], [], []
    sender = FlowControlledSender(
        runtime, BacklogWindow(window), 10,
        on_accept=lambda m: (accepted.append(m), held.append(m)),
        on_offer=offers.append,
    )
    hook = lambda: arrivals.append(None)  # noqa: E731
    if lazy:
        schedule = ArrivalSchedule(
            kernel, sender, workload, N, stop_at=stop_at, rng_name="w", on_arrival=hook
        )
        rng = kernel.rng.stream("w")
    else:
        schedule = AlwaysTicking(
            kernel, sender, workload, stop_at=stop_at, on_arrival=hook
        )
        rng = schedule.rng

    def release():
        # The oldest message holding a slot is adelivered locally.
        if held and runtime.alive:
            sender.on_own_delivery(held.pop(0))

    schedule.start()
    for at in releases:
        kernel.schedule_at(at, release)
    if crash_at is not None:
        kernel.schedule_at(crash_at, runtime.crash)
    kernel.run(until=stop_at + 0.25)
    schedule.finalize()
    return {
        "offered": sender.offered,
        "offers_heard": sum(offers),
        "blocked": sender.window.total_blocked,
        "queued": sender.queued,
        "accepted": [(m.msg_id, m.abcast_time) for m in accepted],
        "arrivals": len(arrivals),
        "rng": rng.getstate(),
    }


@settings(max_examples=120, deadline=None)
@given(
    law=st.sampled_from(sorted(WORKLOADS)),
    rate=st.floats(min_value=20.0, max_value=4000.0),
    window=st.integers(min_value=1, max_value=4),
    releases=st.lists(st.floats(min_value=0.0, max_value=0.6), max_size=40),
    crash_at=st.none() | st.floats(min_value=0.0, max_value=0.6),
    stop_at=st.floats(min_value=0.05, max_value=0.5),
)
def test_lazy_schedule_equals_the_always_ticking_one(
    law, rate, window, releases, crash_at, stop_at
):
    workload = WORKLOADS[law](rate)
    lazy = run_world(True, workload, window, releases, crash_at, stop_at)
    reference = run_world(False, workload, window, releases, crash_at, stop_at)
    assert lazy == reference
    assert lazy["offers_heard"] == lazy["offered"] == lazy["arrivals"]


def test_the_differential_exercises_bulk_refusals():
    """Saturated and released: the lazy side really books refusals in
    bulk (else the property above compares two per-arrival loops)."""
    workload = WORKLOADS["uniform"](4000.0)
    releases = [0.05 * k for k in range(1, 9)]
    lazy = run_world(True, workload, 1, releases, None, 0.45)
    assert lazy == run_world(False, workload, 1, releases, None, 0.45)
    assert lazy["blocked"] > 10 * len(lazy["accepted"]) > 0


def test_booking_refusals_while_a_slot_is_free_raises():
    window = BacklogWindow(2)
    assert window.try_acquire()
    with pytest.raises(FlowControlError, match="slot is free"):
        window.refuse(3)
    assert window.total_blocked == 0
    assert window.try_acquire()
    window.refuse(3)
    assert window.total_blocked == 3

    offers = []
    sender = FlowControlledSender(
        sink_runtime(Kernel(seed=3)), BacklogWindow(1), 10, on_offer=offers.append
    )
    with pytest.raises(FlowControlError):
        sender.offer_refused(2)
    assert (sender.offered, sender.queued, offers) == (0, 0, [])
    assert sender.offer()
    sender.offer_refused(2)
    assert (sender.offered, sender.queued, offers) == (3, 2, [1, 2])
    assert sender.window.total_blocked == 2
