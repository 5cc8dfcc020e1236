"""Compile link-level faults (partitions, loss, delay) onto the injector.

The simulator's :class:`~repro.net.faults.FaultInjector` judges every
message at transmit time with a chain of filters. This module turns the
declarative :class:`~repro.config.FaultloadConfig` link events into such
filters, closed over the simulation kernel for the clock and a named RNG
stream for loss/jitter draws — so any schedule replays bit-for-bit from
the run seed.

Semantics (see :class:`~repro.config.LinkFaultMode`):

* ``HOLD`` partitions delay severed messages until the heal time (plus a
  small jitter so the heal is not a synchronized burst) — the TCP
  picture, where retransmission carries traffic across a transient
  outage. Per-pair FIFO is preserved by the network's arrival clamp.
* ``HOLD`` loss bursts charge a matched message one retransmission
  delay. ``DROP`` variants destroy the message outright; they model
  broken channels, under which safety must still hold but liveness may
  legitimately stall.

Messages are judged when the sender's CPU hands them to the NIC, so a
message sent just *before* a partition starts slips through even if its
propagation overlaps the outage — a deliberate simplification (real
switches drain in-flight frames too).
"""

from __future__ import annotations

import random

from repro.config import DelaySpike, FaultloadConfig, LinkFaultMode, LossBurst, PartitionEvent
from repro.net.faults import FaultInjector
from repro.net.message import NetMessage
from repro.sim.kernel import Kernel

#: Maximum random spread (seconds) of arrivals released by a heal, so
#: held messages do not land in one synchronized burst.
HEAL_JITTER = 0.005

#: Name of the RNG stream all link-fault draws come from.
RNG_STREAM = "nemesis.links"


def install_link_faults(
    injector: FaultInjector, faultload: FaultloadConfig, kernel: Kernel
) -> None:
    """Register filters for every link fault of *faultload*.

    Filters are only installed for fault kinds actually present, so a
    plain crash faultload (or a good run) pays nothing.
    """
    rng = kernel.rng.stream(RNG_STREAM)
    for partition in faultload.partitions:
        injector.add_filter(_partition_filter(partition, kernel, rng))
    for burst in faultload.loss_bursts:
        injector.add_filter(_loss_filter(burst, kernel, rng))
    for spike in faultload.delay_spikes:
        injector.add_filter(_delay_filter(spike, kernel, rng))


def _partition_filter(
    partition: PartitionEvent, kernel: Kernel, rng: random.Random
):
    def judge(message: NetMessage) -> float | None:
        now = kernel.now
        if not partition.start <= now < partition.heal:
            return 0.0
        if not partition.severs(message.src, message.dst):
            return 0.0
        if partition.mode is LinkFaultMode.DROP:
            return None
        hold = (partition.heal - now) + rng.random() * HEAL_JITTER
        return hold

    return judge


def _loss_filter(burst: LossBurst, kernel: Kernel, rng: random.Random):
    def judge(message: NetMessage) -> float | None:
        now = kernel.now
        if not burst.start <= now < burst.end:
            return 0.0
        if not burst.matches(message.src, message.dst):
            return 0.0
        if rng.random() >= burst.probability:
            return 0.0
        if burst.mode is LinkFaultMode.DROP:
            return None
        # One TCP-style retransmission: the message arrives, late.
        retry = burst.retry_delay * (0.5 + rng.random())
        return retry

    return judge


def _delay_filter(spike: DelaySpike, kernel: Kernel, rng: random.Random):
    def judge(message: NetMessage) -> float | None:
        now = kernel.now
        if not spike.start <= now < spike.end:
            return 0.0
        if not spike.matches(message.src, message.dst):
            return 0.0
        jitter = rng.random() * spike.jitter if spike.jitter else 0.0
        return spike.extra_delay + jitter

    return judge
