"""Symmetric workload generators (paper §5.1).

Every process abcasts fixed-size messages at a constant rate; the global
rate across all processes is the *offered load*. Attempts that hit the
flow-control window block and are injected as soon as a slot frees — the
paper's semantics, where the offered load is what the application tries
to abcast and the flow-control mechanism throttles it.

The early-latency clock ``t0`` of a message is the time its
``abcast(m)`` completes, i.e. when the message actually enters the stack
(after any flow-control blocking), matching the paper's definition.
"""

from __future__ import annotations

import random
from typing import Callable, Protocol

from repro.config import ArrivalProcess, WorkloadConfig
from repro.errors import ConfigurationError
from repro.flowcontrol.window import BacklogWindow
from repro.sim.kernel import Kernel
from repro.stack.events import AbcastRequest
from repro.stack.runtime import StackRuntime
from repro.types import AppMessage, MessageId, SimTime

#: Called when a message is accepted into the stack (for metrics).
AcceptListener = Callable[[AppMessage], None]

#: Called with the number of abcast attempts just made, before flow
#: control (for metrics).
OfferListener = Callable[[int], None]

#: Called on every arrival, live or lazily materialized, before the
#: offer hits flow control (client-population attribution).
ArrivalListener = Callable[[], None]


class GapSampler(Protocol):
    """Inter-arrival law of one sender, decoupled from the scheduler.

    Every arrival process — the paper's two laws and the population
    layer's bursty/diurnal mixes — implements this protocol; the
    schedule itself never branches on the law. Samplers may be
    stateful; they must draw all randomness from the stream they were
    constructed with, so lazy materialization replays the exact draws
    the live ticking would have made.
    """

    def first_delay(self) -> float:
        """Delay of the first arrival (the schedule's random phase)."""
        ...

    def gap(self, at: SimTime) -> float:
        """Seconds until the next arrival, given the current one at *at*."""
        ...


class UniformGaps:
    """The paper's constant-rate law: fixed spacing, random phase."""

    def __init__(self, rate: float, rng: random.Random) -> None:
        self._interval = 1.0 / rate
        self._rng = rng

    def first_delay(self) -> float:
        return self._rng.random() * self._interval

    def gap(self, at: SimTime) -> float:
        return self._interval


class PoissonGaps:
    """Poisson arrivals at a fixed mean rate."""

    def __init__(self, rate: float, rng: random.Random) -> None:
        self._rate = rate
        self._interval = 1.0 / rate
        self._rng = rng

    def first_delay(self) -> float:
        return self._rng.random() * self._interval

    def gap(self, at: SimTime) -> float:
        return self._rng.expovariate(self._rate)


#: Registry of symmetric-workload arrival laws. Dispatch is by lookup,
#: not if/else chains, so an :class:`ArrivalProcess` member without a
#: registered sampler is a loud ConfigurationError — it can no longer
#: silently fall through to the constant-rate path.
GAP_SAMPLER_FACTORIES: dict[
    ArrivalProcess, Callable[[float, random.Random], GapSampler]
] = {
    ArrivalProcess.UNIFORM: UniformGaps,
    ArrivalProcess.POISSON: PoissonGaps,
}


def make_gap_sampler(
    workload: WorkloadConfig, n: int, rng: random.Random
) -> GapSampler:
    """The gap sampler for one process's share of *workload*.

    A configured client population takes precedence: its aggregate
    arrival law replaces the symmetric :class:`ArrivalProcess`.
    """
    rate = workload.per_process_rate(n)
    if workload.population is not None:
        from repro.workload.population import population_gap_sampler

        return population_gap_sampler(workload.population, rate, rng)
    factory = GAP_SAMPLER_FACTORIES.get(workload.arrival)
    if factory is None:
        raise ConfigurationError(
            f"no gap sampler registered for arrival process "
            f"{workload.arrival!r} (registered: "
            f"{', '.join(sorted(p.value for p in GAP_SAMPLER_FACTORIES))})"
        )
    return factory(rate, rng)


class FlowControlledSender:
    """Per-process workload source behind a flow-control window."""

    def __init__(
        self,
        runtime: StackRuntime,
        window: BacklogWindow,
        message_size: int,
        *,
        on_accept: AcceptListener | None = None,
        on_offer: OfferListener | None = None,
    ) -> None:
        self.runtime = runtime
        self.window = window
        self.message_size = message_size
        self._on_accept = on_accept
        self._on_offer = on_offer
        self._schedule: "ArrivalSchedule | None" = None
        self._next_seq = 0
        self._queued_attempts = 0
        self._offered = 0
        #: Ids of messages this sender injected and has not yet seen
        #: adelivered locally (the messages holding window slots).
        self._holding_slots: set[MessageId] = set()

    @property
    def offered(self) -> int:
        """Total abcast attempts made so far."""
        return self._offered

    @property
    def accepted(self) -> int:
        """Attempts that entered the stack so far."""
        return self._next_seq

    @property
    def queued(self) -> int:
        """Attempts currently blocked by flow control."""
        return self._queued_attempts

    def offer(self) -> bool:
        """One abcast attempt (an arrival of the offered load).

        Returns:
            ``True`` if the attempt entered the stack, ``False`` if flow
            control blocked it (it stays queued until a slot frees).
        """
        self._offered += 1
        if self._on_offer is not None:
            self._on_offer(1)
        if self.window.try_acquire():
            self._inject()
            return True
        self._queued_attempts += 1
        return False

    def offer_refused(self, count: int) -> None:
        """*count* abcast attempts that all found the window full.

        What *count* refused :meth:`offer` calls leave behind, booked at
        once; the window raises if a slot is free (such an attempt would
        have entered the stack).
        """
        self.window.refuse(count)
        self._offered += count
        if self._on_offer is not None:
            self._on_offer(count)
        self._queued_attempts += count

    def attach_schedule(self, schedule: "ArrivalSchedule") -> None:
        """Couple this sender to its arrival schedule (for lazy ticks)."""
        self._schedule = schedule

    def resume_from(self, next_seq: int) -> None:
        """Continue sequence numbering at *next_seq* (crash recovery).

        ``(sender, seq)`` is the global message identity; a restarted
        live worker must never reuse a sequence number its previous
        incarnation already accepted, or two distinct payloads would
        collide on one id. Never moves the counter backwards.
        """
        self._next_seq = max(self._next_seq, next_seq)

    def on_own_delivery(self, message: AppMessage) -> None:
        """Local adelivery of one of this process's own messages.

        Ignores messages this sender did not inject (an application may
        drive the same stack directly, outside the workload generator).
        """
        if message.msg_id not in self._holding_slots:
            return
        schedule = self._schedule
        if schedule is not None:
            # Account for arrivals that occurred while the window was
            # full (the schedule stops ticking when blocked); they must
            # be counted before this release, in their original order.
            schedule.catch_up()
        self._holding_slots.discard(message.msg_id)
        self.window.release()
        if self._queued_attempts > 0 and self.window.try_acquire():
            self._queued_attempts -= 1
            self._inject()
        if schedule is not None:
            schedule.resume()

    def _inject(self) -> None:
        message = AppMessage(
            msg_id=MessageId(self.runtime.pid, self._next_seq),
            size=self.message_size,
            abcast_time=self.runtime.now,
        )
        self._next_seq += 1
        self._holding_slots.add(message.msg_id)
        if self._on_accept is not None:
            self._on_accept(message)
        self.runtime.inject(AbcastRequest(message))


class ArrivalSchedule:
    """Schedules the offer() calls of one sender on the kernel.

    Blocked-tick batching: once an offer is refused by flow control,
    every subsequent arrival is also refused until a slot frees (slots
    free only on local adelivery of an own message). The schedule
    therefore stops posting per-arrival kernel events while blocked and
    reconstructs the skipped arrivals arithmetically — same counters,
    same RNG draws, same next-arrival times — when the sender releases a
    slot (:meth:`catch_up` / :meth:`resume`) or at the end of the run
    (:meth:`finalize`). Under saturation this removes roughly half of
    all kernel events.
    """

    def __init__(
        self,
        kernel: Kernel,
        sender: FlowControlledSender,
        workload: WorkloadConfig,
        n: int,
        *,
        stop_at: SimTime,
        rng_name: str,
        on_arrival: ArrivalListener | None = None,
    ) -> None:
        self._kernel = kernel
        self._sender = sender
        self._runtime = sender.runtime
        self._stop_at = stop_at
        self._rng = kernel.rng.stream(rng_name)
        self._sampler = make_gap_sampler(workload, n, self._rng)
        self._on_arrival = on_arrival
        #: Absolute time of the next (possibly unmaterialized) arrival.
        self._next_due: SimTime = 0.0
        #: True while the schedule is dormant behind a full window.
        self._lazy = False
        #: True once arrivals have permanently ended (past stop_at, or
        #: the process crashed).
        self._done = False
        sender.attach_schedule(self)

    def start(self) -> None:
        """Begin generating arrivals (with a random initial phase)."""
        self._next_due = self._kernel.now + self._sampler.first_delay()
        self._kernel.post(self._next_due, self._tick)

    def _tick(self) -> None:
        kernel = self._kernel
        now = kernel.now
        if now > self._stop_at or not self._runtime.alive:
            self._done = True
            return
        if self._on_arrival is not None:
            self._on_arrival()
        accepted = self._sender.offer()
        # Same now + gap arithmetic as the always-ticking variant; gap is
        # never negative, so the unchecked absolute-time post is safe.
        self._next_due = now + self._sampler.gap(now)
        if accepted:
            kernel.post(self._next_due, self._tick)
        else:
            # Window full: every arrival until the next release would be
            # refused too. Go dormant; the sender wakes us on release.
            self._lazy = True

    def _materialize_until(self, limit: SimTime) -> None:
        """Replay skipped arrivals with ``due <= limit``, in order."""
        crashed_at = self._runtime.crashed_at
        stop_at = self._stop_at
        gap = self._sampler.gap
        on_arrival = self._on_arrival
        due = self._next_due
        # The window is full, so every one of these arrivals is refused:
        # one gap draw and one hook call each, the refusals booked once.
        refused = 0
        while due <= limit:
            if due > stop_at or (crashed_at is not None and due >= crashed_at):
                self._done = True
                break
            if on_arrival is not None:
                on_arrival()
            refused += 1
            due = due + gap(due)
        self._next_due = due
        if refused:
            self._sender.offer_refused(refused)

    def catch_up(self) -> None:
        """Account for arrivals skipped while dormant (before a release)."""
        if self._lazy and not self._done:
            self._materialize_until(self._kernel.now)

    def resume(self) -> None:
        """Return to live per-arrival ticking after a slot was released."""
        if not self._lazy or self._done:
            return
        self._lazy = False
        self._kernel.post(self._next_due, self._tick)

    def finalize(self) -> None:
        """Materialize arrivals still pending at the end of the run."""
        if self._lazy and not self._done:
            self._materialize_until(min(self._stop_at, self._kernel.now))
            self._done = True
