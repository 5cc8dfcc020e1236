"""Oracle failure detector.

An omniscient detector used by the performance experiments: it suspects
a process a fixed ``detection_delay`` after its actual crash and never
suspects a live process. This keeps FD traffic off the network so that
good-run measurements (the paper's workload) are not perturbed, while
still driving the protocols' round-change logic correctly in the
fault-tolerance integration tests.

In failure-detector terms this implements an eventually perfect detector
(◇P ⊆ ◇S), which is stronger than the ◇S the algorithms require —
acceptable because the experiments never rely on wrong suspicions (a
faultload's :class:`~repro.config.WrongSuspicion` events inject those).
"""

from __future__ import annotations

from repro.fd.base import FailureDetector


class OracleFailureDetector(FailureDetector):
    """Suspects crashed processes after a fixed detection delay."""

    def __init__(self, detection_delay: float) -> None:
        super().__init__()
        if detection_delay < 0:
            raise ValueError(f"detection delay must be >= 0: {detection_delay}")
        self.detection_delay = detection_delay

    def observe_crash(self, process: int) -> None:
        """Inform the oracle that *process* just crashed.

        Called by the experiment runner at crash-injection time; the
        suspicion is published ``detection_delay`` seconds later.
        """
        self.runtime.fd_schedule(
            self.detection_delay, lambda: self._suspect(process)
        )
