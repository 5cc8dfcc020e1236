"""Failure detector interface.

The paper's system model (§2.1) equips every process with a local
failure detector module whose output — a possibly inaccurate set of
suspected processes — can change over time. Protocol modules query the
current output through their :class:`~repro.stack.module.ModuleContext`
and are notified of changes via ``handle_suspicion``.

A detector is attached to exactly one
:class:`~repro.stack.runtime.StackRuntime`; it uses the runtime for
timers (:meth:`fd_schedule`) and, for the heartbeat implementation, real
network messages (:meth:`fd_send`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ProtocolError
from repro.net.message import NetMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.stack.runtime import StackRuntime


class FailureDetector:
    """Base failure detector: maintains and publishes a suspect set.

    Detectors talk to their process exclusively through the
    :class:`~repro.stack.runtime.StackRuntime` surface (``now``,
    ``n``, ``fd_send``, ``fd_schedule``, ``on_suspicion_change``), so the
    same detector runs unchanged on the simulated and the live runtime.
    """

    def __init__(self) -> None:
        self._suspects: frozenset[int] = frozenset()
        self._runtime: "StackRuntime | None" = None

    @property
    def runtime(self) -> "StackRuntime":
        """The runtime this detector is attached to."""
        if self._runtime is None:
            raise ProtocolError("failure detector is not attached to a runtime")
        return self._runtime

    def attach(self, runtime: "StackRuntime") -> None:
        """Bind this detector to its process runtime (called by the runtime)."""
        self._runtime = runtime

    def start(self) -> None:
        """Hook invoked when the process stack starts. Default: nothing."""

    def suspects(self) -> frozenset[int]:
        """Current detector output."""
        return self._suspects

    def handle_message(self, message: NetMessage) -> None:
        """React to a network message routed to the ``fd`` module."""
        raise ProtocolError(
            f"failure detector received unexpected message {message.kind!r}"
        )

    def force_suspect(self, process: int) -> None:
        """Externally inject a (possibly wrong) suspicion.

        Nemesis hook: models the detector's permitted inaccuracy (◇S
        output may be arbitrarily wrong for a while). Works on every
        detector kind; a heartbeat detector will naturally retract the
        suspicion when the suspect is next heard from.
        """
        self._suspect(process)

    def retract_suspicion(self, process: int) -> None:
        """Externally retract a suspicion (nemesis hook)."""
        self._unsuspect(process)

    def _publish(self, new_suspects: frozenset[int]) -> None:
        """Update the suspect set and notify the stack if it changed."""
        if new_suspects == self._suspects:
            return
        self._suspects = new_suspects
        self.runtime.on_suspicion_change(new_suspects)

    def _suspect(self, process: int) -> None:
        self._publish(self._suspects | {process})

    def _unsuspect(self, process: int) -> None:
        self._publish(self._suspects - {process})
