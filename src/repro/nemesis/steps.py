"""Compile a faultload, once, into the timed steps every runtime executes.

:func:`compile_faultload` is the one reader of a
:class:`~repro.config.FaultloadConfig`'s five event lists. In
declaration order, a crash becomes one ``crash`` step, a wrong
suspicion a ``suspect`` and a ``retract`` step, and a partition, loss
burst or delay spike an ``on`` and an ``off`` step sharing one
:class:`LinkFault`. Each step carries its timeline text, so the
simulator's trace and the live report print the same words. The
simulator schedules the crash and suspicion steps and installs one
filter per link fault (:func:`install_link_faults`); the invariant
monitor notes each step; :func:`repro.live.faults.compile_live_faultload`
maps them onto ``SIGKILL``/restart pairs and transport directives.

A link fault's verb says what it does to a message it matches while
active (see :class:`~repro.config.LinkFaultMode`): ``hold`` delays it
until the heal, plus a small jitter so the heal is not a synchronized
burst — TCP retransmission across a transient outage, with per-pair
FIFO kept by the network's arrival clamp; ``drop`` destroys it (a
broken channel: safety must hold, liveness may stall); ``lose`` catches
it with a probability, then charges one retransmission delay or
destroys it; ``delay`` adds a fixed latency plus jitter. Messages are
judged when the sender's CPU hands them to the NIC, so one sent just
before a partition starts slips through — a deliberate simplification.
Draws come from a named stream of the kernel's RNG, so a schedule
replays bit-for-bit from the run seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.config import FaultloadConfig, LinkFaultMode
from repro.net.faults import FaultInjector
from repro.net.message import NetMessage
from repro.sim.kernel import Kernel

#: Maximum random spread (seconds) of arrivals released by a heal, so
#: held messages do not land in one synchronized burst.
HEAL_JITTER = 0.005

#: Name of the RNG stream all link-fault draws come from.
RNG_STREAM = "nemesis.links"


@dataclass(frozen=True, slots=True)
class LinkFault:
    """What one link event does, while active, to a message it matches."""

    #: ``hold``, ``drop``, ``lose`` or ``delay`` (see the module doc).
    verb: str
    #: The window ``[start, end)`` in which the fault is active.
    start: float
    end: float
    #: Whether the fault applies to the ``(src, dst)`` link.
    matches: Callable[[int, int], bool]
    #: ``delay``: fixed extra latency, plus up to ``jitter`` seconds.
    extra: float = 0.0
    jitter: float = 0.0
    #: ``lose``: chance that a matched message is caught.
    probability: float = 1.0
    #: ``lose``: mean retransmission delay of a caught message, or
    #: ``None`` when a caught message is destroyed.
    retry: float | None = None


@dataclass(frozen=True, slots=True)
class FaultStep:
    """One timed step of a compiled faultload."""

    #: Seconds since the start of the run.
    at: float
    #: ``crash``, ``suspect``, ``retract``, ``on`` or ``off``.
    kind: str
    #: The step as the fault timeline prints it.
    text: str
    #: The :class:`~repro.config.FaultloadConfig` field that declared it.
    source: str
    #: The crashed process, or the observer of a wrong suspicion.
    process: int = -1
    #: The wrongly suspected process.
    suspect: int = -1
    #: The link fault an ``on`` step starts and an ``off`` step ends.
    link: LinkFault | None = None


def compile_faultload(faultload: FaultloadConfig) -> tuple[FaultStep, ...]:
    """The steps of *faultload*, event by event in declaration order."""
    steps: list[FaultStep] = []

    def switch(link: LinkFault, source: str, up: str, down: str) -> None:
        steps.append(FaultStep(link.start, "on", up, source, link=link))
        steps.append(FaultStep(link.end, "off", down, source, link=link))

    for crash in faultload.crashes:
        steps.append(
            FaultStep(
                crash.time, "crash", f"crash p{crash.process}", "crashes",
                process=crash.process,
            )
        )
    for p in faultload.partitions:
        verb = "hold" if p.mode is LinkFaultMode.HOLD else "drop"
        groups = "|".join(",".join(map(str, g)) for g in p.groups)
        switch(
            LinkFault(verb, p.start, p.heal, p.severs),
            "partitions",
            f"partition [{groups}] up",
            f"partition [{groups}] healed",
        )
    for b in faultload.loss_bursts:
        retry = b.retry_delay if b.mode is LinkFaultMode.HOLD else None
        link = f"{'*' if b.src is None else b.src}->{'*' if b.dst is None else b.dst}"
        switch(
            LinkFault(
                "lose", b.start, b.end, b.matches,
                probability=b.probability, retry=retry,
            ),
            "loss_bursts",
            f"loss burst {link} p={b.probability:.2f}",
            f"loss burst {link} over",
        )
    for s in faultload.delay_spikes:
        switch(
            LinkFault(
                "delay", s.start, s.end, s.matches,
                extra=s.extra_delay, jitter=s.jitter,
            ),
            "delay_spikes",
            f"delay spike +{s.extra_delay * 1e3:.1f}ms",
            "delay spike over",
        )
    for w in faultload.wrong_suspicions:
        for at, kind, text in (
            (w.time, "suspect", f"p{w.observer} wrongly suspects p{w.suspect}"),
            (w.time + w.duration, "retract", f"p{w.observer} retracts p{w.suspect}"),
        ):
            steps.append(
                FaultStep(
                    at, kind, text, "wrong_suspicions",
                    process=w.observer, suspect=w.suspect,
                )
            )
    return tuple(steps)


def last_disruption_time(steps: Iterable[FaultStep]) -> float:
    """Time after which the network and FDs are quiet again: the last step.

    Crashes disrupt forever in one sense, but the protocols are designed
    to make progress once the crash is *detected*; for the watchdog's
    purposes a crash's disruption ends at the crash time itself
    (detection latency is covered by the watchdog bound).
    """
    return max([0.0, *(step.at for step in steps)])


def install_link_faults(
    injector: FaultInjector, steps: Iterable[FaultStep], kernel: Kernel
) -> None:
    """Register one filter per link fault of *steps*, in their order.

    A faultload without link faults (or a good run) installs nothing
    and pays nothing.
    """
    rng = kernel.rng.stream(RNG_STREAM)
    for step in steps:
        if step.kind == "on":
            assert step.link is not None
            injector.add_filter(_link_filter(step.link, kernel, rng))


def _link_filter(fault: LinkFault, kernel: Kernel, rng: random.Random):
    def judge(message: NetMessage) -> float | None:
        now = kernel.now
        if not fault.start <= now < fault.end:
            return 0.0
        if not fault.matches(message.src, message.dst):
            return 0.0
        if fault.verb == "hold":
            return (fault.end - now) + rng.random() * HEAL_JITTER
        if fault.verb == "delay":
            jitter = rng.random() * fault.jitter if fault.jitter else 0.0
            return fault.extra + jitter
        if fault.verb == "lose":
            if rng.random() >= fault.probability:
                return 0.0
            if fault.retry is not None:
                # One TCP-style retransmission: the message arrives, late.
                return fault.retry * (0.5 + rng.random())
        return None

    return judge
