"""Online invariant checking for atomic broadcast runs.

Judging a run only after it ends is too late and too coarse for
adversarial sweeps: a violation surfaces as one opaque exception, with
no notion of *when* the execution went wrong. The
:class:`InvariantMonitor` steps the executable contract,
:class:`~repro.metrics.ordering.AbcastSpec`, *online*, as every
adelivery happens: a delivery the spec refuses (uniform integrity,
total order) is flagged at the exact instant it forks, with its time and
a slice of the recent trace; the "eventually" half (uniform agreement,
validity) is asked at :meth:`~InvariantMonitor.finalize` of the
processes that survived.

Plus a **liveness watchdog**: once the last fault has healed, correct
processes holding undelivered messages must keep making delivery
progress within a bound, or the run fails with a
:class:`~repro.errors.LivenessViolation` carrying the outstanding ids
and a slice of the recent event trace. The watchdog only arms for
faultloads that preserve quasi-reliable channels
(:attr:`~repro.config.FaultloadConfig.liveness_safe`); under DROP-mode
faults liveness is not guaranteed by the model and only safety is
checked.

Every violation carries a ring-buffer slice of recent events (accepts,
deliveries, faults, suspicions) as ``(time, proc, layer, event)`` rows —
the first thing one wants when debugging a schedule found by the swarm;
:func:`repro.obs.format.format_trace_slice` renders them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.errors import LivenessViolation, OrderingViolation
from repro.metrics.ordering import AbcastSpec
from repro.nemesis.steps import last_disruption_time
from repro.types import AppMessage, MessageId, SimTime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import Simulation

#: Default seconds of post-heal silence the watchdog tolerates before
#: declaring a stall. Must exceed the slowest recovery path: guard
#: timeout (0.5 s) + detection delay + a round trip.
DEFAULT_LIVENESS_BOUND = 1.0

#: Default ring-buffer capacity for the diagnostic trace slice.
DEFAULT_HISTORY = 80


@dataclass(frozen=True, slots=True)
class Violation:
    """One detected invariant violation."""

    invariant: str
    time: SimTime
    description: str
    #: ``(time, proc, layer, event)`` rows leading up to the violation.
    trace_slice: tuple[tuple[SimTime, str, str, str], ...] = ()

    def __str__(self) -> str:
        return f"[{self.invariant} @ t={self.time:.4f}] {self.description}"


@dataclass
class LivenessState:
    """Watchdog bookkeeping between checks."""

    armed: bool = False
    last_progress_count: int = -1


class InvariantMonitor:
    """Checks the atomic broadcast contract online during a run.

    Wire it to a :class:`~repro.experiments.runner.Simulation` with
    :meth:`attach` *before* ``sim.run()``. Violations accumulate in
    :attr:`violations`; with ``raise_on_violation=True`` the first
    safety violation raises immediately (useful in tests, where the
    stack trace then points at the offending delivery).
    """

    def __init__(
        self,
        n: int,
        *,
        liveness_bound: float = DEFAULT_LIVENESS_BOUND,
        history: int = DEFAULT_HISTORY,
        raise_on_violation: bool = False,
    ) -> None:
        self.n = n
        self.liveness_bound = liveness_bound
        self.raise_on_violation = raise_on_violation
        self.violations: list[Violation] = []
        self._spec = AbcastSpec(n)
        self._delivery_count = 0
        self._trace: deque[tuple[SimTime, str, str, str]] = deque(maxlen=history)
        self._liveness = LivenessState()
        self._simulation: "Simulation | None" = None
        self._finalized = False

    # -- wiring ----------------------------------------------------------

    def attach(self, simulation: "Simulation") -> "InvariantMonitor":
        """Subscribe to a simulation and arm the liveness watchdog."""
        self._simulation = simulation
        simulation.add_accept_listener(self.on_abcast)
        simulation.add_adeliver_listener(self.on_adeliver)
        steps = simulation.fault_steps
        for step in steps:
            # Put each declared fault on the trace as it happens.
            simulation.kernel.schedule_at(
                step.at, partial(self._note, step.at, "-", "fault", step.text)
            )
        if simulation.config.faultload.liveness_safe:
            self._liveness.armed = True
            first_check = (
                max(last_disruption_time(steps), simulation.config.warmup)
                + self.liveness_bound
            )
            simulation.kernel.schedule_at(first_check, self._liveness_check)
        else:
            self._note(
                0.0, "-", "watchdog", "watchdog disarmed: faultload destroys messages"
            )
        return self

    # -- event listeners ----------------------------------------------------

    def on_abcast(self, message: AppMessage) -> None:
        """Accept listener: record that *message* entered some stack."""
        self._spec.sent.add(message.msg_id)

    def on_adeliver(self, pid: int, message: AppMessage, time: SimTime) -> None:
        """Adeliver listener: step the spec, flag the step it refuses."""
        self._note(time, f"p{pid}", "abcast", f"adeliver {message.msg_id}")
        finding = self._spec.adeliver(pid, message.msg_id)
        if finding is None:
            self._delivery_count += 1
        else:
            self._flag(*finding, time)

    # -- liveness watchdog ---------------------------------------------------

    def _correct_now(self) -> set[int]:
        assert self._simulation is not None
        return set(range(self.n)) - set(self._simulation.faults.crashed)

    def _liveness_check(self) -> None:
        assert self._simulation is not None
        kernel = self._simulation.kernel
        outstanding = self._spec.outstanding(self._correct_now())
        if outstanding and self._delivery_count == self._liveness.last_progress_count:
            sample = sorted(outstanding)[:5]
            self._flag(
                "liveness",
                f"no delivery progress for {self.liveness_bound:.2f}s after the "
                f"last fault healed; {len(outstanding)} message(s) outstanding, "
                f"e.g. {sample}",
                kernel.now,
                error=LivenessViolation,
            )
            return  # a stalled run stays stalled; one report is enough
        self._liveness.last_progress_count = self._delivery_count
        kernel.schedule_at(kernel.now + self.liveness_bound, self._liveness_check)

    # -- end of run -----------------------------------------------------------

    def finalize(
        self,
        *,
        expect_all_delivered: bool = True,
        now: float | None = None,
        crashed: set[int] | None = None,
    ) -> list[Violation]:
        """Run the end-of-run checks and return all violations.

        Args:
            expect_all_delivered: Check uniform agreement and validity
                to completion. Only meaningful when the run had enough
                drain for deliveries to finish and the faultload kept
                channels quasi-reliable; automatically skipped otherwise.
            now: End-of-run timestamp for the violation records. Taken
                from the attached simulation when omitted; offline users
                (the live merged-log check) pass it explicitly.
            crashed: Processes that were down at the end of the run.
                Taken from the attached simulation when omitted. A
                killed-and-recovered live worker is *not* crashed: it
                owes every delivery like anyone else.
        """
        if self._finalized:
            return self.violations
        self._finalized = True
        simulation = self._simulation
        if now is None:
            now = simulation.kernel.now if simulation is not None else 0.0
        if crashed is None:
            crashed = set(simulation.faults.crashed) if simulation is not None else set()
        if simulation is not None and not simulation.config.faultload.liveness_safe:
            expect_all_delivered = False
        if expect_all_delivered:
            for finding in self._spec.unmet(set(range(self.n)) - crashed):
                self._flag(*finding, now)
        return self.violations

    @property
    def passed(self) -> bool:
        """Whether no invariant has been violated so far."""
        return not self.violations

    @property
    def delivery_count(self) -> int:
        """Total adeliveries that passed the online checks."""
        return self._delivery_count

    def sequence(self, pid: int) -> tuple[MessageId, ...]:
        """The (checked prefix of the) adelivery sequence of *pid*."""
        return tuple(self._spec.order[: self._spec.cursor[pid]])

    @property
    def trace_slice(self) -> tuple[tuple[SimTime, str, str, str], ...]:
        """Recent events (ring buffer), oldest first."""
        return tuple(self._trace)

    # -- internals -------------------------------------------------------------

    def _note(self, time: SimTime, proc: str, layer: str, event: str) -> None:
        self._trace.append((time, proc, layer, event))

    def _flag(
        self,
        invariant: str,
        description: str,
        time: SimTime,
        *,
        error: type[Exception] = OrderingViolation,
    ) -> None:
        violation = Violation(
            invariant=invariant,
            time=time,
            description=description,
            trace_slice=self.trace_slice,
        )
        self.violations.append(violation)
        self._note(time, "-", "violation", f"{invariant}: {description}")
        if self.raise_on_violation:
            raise error(str(violation))
