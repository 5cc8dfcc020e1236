"""The atomic broadcast contract, executable.

:class:`AbcastSpec` is the one definition of what it means for a set of
delivery logs to satisfy atomic broadcast (Hadzilacos & Toueg), as a
reference model: abcast adds an id to a set, adelivery moves one
process's cursor along a single group order.

* **Uniform integrity** — each process adelivers each message at most
  once, and only messages that were abcast.
* **Total order** — any two processes adeliver common messages in the
  same relative order. Every stack adelivers batches in instance order
  with a deterministic intra-batch order, so the stronger form is
  stepped: every process's sequence is a prefix of one group order.
* **Uniform agreement** — if *any* process (even one that later
  crashes) adelivers m, every correct process adelivers m.
* **Validity** — every message abcast by a correct process is
  adelivered by every correct process.

The first two are the step rule, :meth:`AbcastSpec.adeliver`; the last
two are "eventually" properties, asked with :meth:`AbcastSpec.unmet`
once a run is over. No other module compares message ids:
:class:`OrderingChecker` records a run and steps the spec afterwards,
:class:`~repro.nemesis.invariants.InvariantMonitor` steps it as each
delivery happens (PROTOCOLS.md, "The abcast contract, executable").
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import OrderingViolation
from repro.types import AppMessage, MessageId, SimTime


class AbcastSpec:
    """Reference model of atomic broadcast for a group of *n* processes."""

    def __init__(self, n: int) -> None:
        #: Ids that entered some process's stack; the drivers add to it.
        self.sent: set[MessageId] = set()
        #: The group order: grown by whichever process delivers furthest.
        self.order: list[MessageId] = []
        #: How far along :attr:`order` each process has adelivered.
        self.cursor = [0] * n
        #: ``set(order[:cursor[pid]])``, kept for the membership tests.
        self.delivered: list[set[MessageId]] = [set() for __ in range(n)]

    def adeliver(self, pid: int, mid: MessageId) -> tuple[str, str] | None:
        """Process *pid* adelivers *mid*: take the step, or refuse it.

        Returns ``None`` after taking the step, or the ``(invariant,
        description)`` the delivery would break — then nothing changes,
        so the process is still expected to deliver what the group order
        holds at its cursor.
        """
        if mid in self.delivered[pid]:
            return "uniform-integrity", f"p{pid} adelivered {mid} twice"
        if mid not in self.sent:
            return (
                "uniform-integrity",
                f"p{pid} adelivered never-abcast message {mid}",
            )
        position = self.cursor[pid]
        if position == len(self.order):
            self.order.append(mid)
        elif self.order[position] != mid:
            return (
                "total-order",
                f"p{pid} diverges at position {position}: delivered {mid}, "
                f"group order has {self.order[position]}",
            )
        self.cursor[pid] = position + 1
        self.delivered[pid].add(mid)
        return None

    def _missing(self, correct: set[int]) -> Iterator[tuple[str, str, int, set]]:
        """Each ``(invariant, why, pid, ids)`` a correct process still owes."""
        for invariant, why, owed in (
            ("uniform-agreement", "delivered elsewhere", set(self.order)),
            (
                "validity",
                "abcast by correct processes",
                {mid for mid in self.sent if mid.sender in correct},
            ),
        ):
            for pid in sorted(correct):
                if missing := owed - self.delivered[pid]:
                    yield invariant, why, pid, missing

    def outstanding(self, correct: set[int]) -> set[MessageId]:
        """Ids some process in *correct* has yet to adeliver."""
        return set().union(*(ids for *__, ids in self._missing(correct)))

    def unmet(self, correct: set[int]) -> list[tuple[str, str]]:
        """The ``(invariant, description)`` of every "eventually" still open.

        Only meaningful once the run had enough quiet time at the end for
        all deliveries to finish: one entry per correct process that
        misses something, uniform agreement before validity.
        """
        return [
            (
                invariant,
                f"p{pid} never adelivered {len(ids)} message(s) {why}, "
                f"e.g. {sorted(ids)[:5]}",
            )
            for invariant, why, pid, ids in self._missing(correct)
        ]


class OrderingChecker:
    """Records a run's abcasts and adeliveries; :meth:`verify` judges them.

    The two hooks only record (the benchmark suite calls them inside its
    stop-watched loop); the contract is :class:`AbcastSpec`'s.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._sequences: list[list[MessageId]] = [[] for __ in range(n)]
        self._abcast: set[MessageId] = set()

    def on_abcast(self, message: AppMessage) -> None:
        """Record that *message* entered some process's stack."""
        self._abcast.add(message.msg_id)

    def on_adeliver(self, pid: int, message: AppMessage, time: SimTime) -> None:
        """Record one adelivery (signature matches the runtime listener)."""
        self._sequences[pid].append(message.msg_id)

    def sequence(self, pid: int) -> tuple[MessageId, ...]:
        """The adelivery sequence of process *pid*, as recorded."""
        return tuple(self._sequences[pid])

    def verify(
        self,
        correct: set[int] | None = None,
        *,
        expect_all_delivered: bool = False,
    ) -> None:
        """Step a fresh spec over the record; raise on the first finding.

        Args:
            correct: Processes that never crashed (default: all).
            expect_all_delivered: Additionally require validity and
                uniform agreement to have fully completed — only
                meaningful when the run had enough quiet time at the end
                for all deliveries to finish.

        Raises:
            OrderingViolation: ``"<invariant>: <description>"``.
        """
        spec = AbcastSpec(self.n)
        spec.sent = self._abcast
        for pid, sequence in enumerate(self._sequences):
            for mid in sequence:
                _raise(spec.adeliver(pid, mid))
        if expect_all_delivered:
            for finding in spec.unmet(
                set(range(self.n)) if correct is None else correct
            ):
                _raise(finding)


def _raise(finding: tuple[str, str] | None) -> None:
    if finding is not None:
        raise OrderingViolation("%s: %s" % finding)
