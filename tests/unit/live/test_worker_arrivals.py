"""The worker's open-loop arrival clock, on a fake event-loop clock.

The ticker schedules by absolute deadlines: what a tick's handler costs
must not stretch the period (re-arming ``call_later(interval)`` *after*
the handler offered ``rate / (1 + cost/interval)``, i.e. 0.77 of the
nominal rate for a handler taking 30 % of the interval).
"""

import heapq
import random
from types import SimpleNamespace

import pytest

from repro.flowcontrol.window import BacklogWindow
from repro.live.deploy import LiveSpec, worker_spec
from repro.live.worker import Worker
from repro.workload.generator import FlowControlledSender, make_gap_sampler


class FakeLoop:
    """``call_later`` / ``time`` of an event loop, driven by hand."""

    def __init__(self) -> None:
        self.now = 0.0
        self._timers: list[tuple[float, int, object]] = []
        self._sequence = 0
        self.most_pending = 0

    def time(self) -> float:
        return self.now

    def call_later(self, delay, callback):
        self._sequence += 1
        heapq.heappush(self._timers, (self.now + delay, self._sequence, callback))
        self.most_pending = max(self.most_pending, len(self._timers))

    def run_until(self, end: float) -> None:
        while self._timers and self._timers[0][0] <= end:
            when, __, callback = heapq.heappop(self._timers)
            self.now = max(self.now, when)  # an overdue timer runs "now"
            callback()
        self.now = max(self.now, end)


class FakeRuntime:
    """Just enough runtime for the sender and the ticker."""

    pid = 0
    alive = True

    def __init__(self, loop: FakeLoop, on_inject) -> None:
        self.loop = loop
        self._on_inject = on_inject
        self.injected = []

    @property
    def now(self) -> float:
        return self.loop.now

    def inject(self, event) -> None:
        self.injected.append(event.message)
        self._on_inject(event.message)


def ticking_worker(rate_per_process: float, duration: float, on_inject, **spec_fields):
    spec = LiveSpec(
        n=3,
        load=3 * rate_per_process,
        size=64,
        warmup=0.0,
        duration=duration,
        seed=5,
        unordered_cap=0,  # no ordering-core credit: the fake runtime has no stack
        **spec_fields,
    )
    addresses = {pid: ("127.0.0.1", 1) for pid in range(3)}
    loop = FakeLoop()
    worker = Worker(worker_spec(spec, 0, addresses, 1))
    worker.runtime = FakeRuntime(loop, on_inject)
    worker.transport = SimpleNamespace(congested=False)
    worker.sender = FlowControlledSender(worker.runtime, BacklogWindow(3), 64)
    return worker, loop


@pytest.mark.parametrize("handler_share", [0.0, 0.3, 0.9])
def test_offered_rate_does_not_depend_on_what_a_tick_costs(handler_share):
    rate, duration = 200.0, 10.0
    interval = 1.0 / rate

    def handler(message):
        loop.now += handler_share * interval  # the tick's CPU time...
        worker.sender.on_own_delivery(message)  # ...and the slot frees

    worker, loop = ticking_worker(rate, duration, handler)
    worker._schedule_arrivals()
    loop.run_until(duration + 1.0)
    assert abs(worker.sender.offered - rate * duration) <= 1
    assert worker.sender.accepted == worker.sender.offered
    assert loop.most_pending == 1


def test_catch_up_burst_after_a_stall_meets_the_window_not_the_stack():
    rate, duration, stall_ticks = 100.0, 2.0, 50
    interval = 1.0 / rate
    in_flight_peak = 0

    def handler(message):
        nonlocal in_flight_peak
        in_flight_peak = max(
            in_flight_peak, len(worker.runtime.injected) - delivered
        )
        if len(worker.runtime.injected) == 10:
            loop.now += stall_ticks * interval  # e.g. a long GC pause

    delivered = 0
    worker, loop = ticking_worker(rate, duration, handler)
    worker._schedule_arrivals()
    # Deliveries only up to the stall, so the window is full after it.
    while loop.now < duration + 1.0:
        loop.run_until(loop.now + interval / 4)
        if len(worker.runtime.injected) < 10:
            for message in worker.runtime.injected[delivered:]:
                delivered += 1
                worker.sender.on_own_delivery(message)

    sender = worker.sender
    # Every arrival that was due is accounted for: the stalled ones
    # fired late, back to back, and none was skipped.
    assert abs(sender.offered - rate * duration) <= 1
    # But none of the burst entered the stack beyond the window's slots.
    assert in_flight_peak <= 3
    assert sender.accepted <= 10 + 3
    assert sender.window.total_blocked >= stall_ticks - 3
    assert loop.most_pending == 1


@pytest.mark.parametrize(
    "population",
    [{}, {"clients": 1000, "client_arrival": "bursty"}],
    ids=["plain", "bursty-population"],
)
def test_arrivals_follow_the_simulators_gap_sampler(population):
    instants = []

    def handler(message):
        instants.append(loop.now)
        worker.sender.on_own_delivery(message)

    worker, loop = ticking_worker(200.0, 2.0, handler, **population)
    worker._schedule_arrivals()
    loop.run_until(3.0)
    rng = random.Random(worker.spec.seed * 1000 + worker.pid)
    sampler = make_gap_sampler(worker.config.workload, 3, rng)
    expected = [sampler.first_delay()]
    while len(expected) < 50:
        expected.append(expected[-1] + sampler.gap(expected[-1]))
    assert instants[:50] == pytest.approx(expected, rel=0, abs=1e-9)
