"""Exception hierarchy for the repro library.

All exceptions raised by this library derive from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Raised when the simulation kernel is used incorrectly.

    Examples: scheduling an event in the past, running a kernel that has
    already been stopped, or exceeding the configured event budget.
    """


class ConfigurationError(ReproError):
    """Raised when an experiment or stack configuration is invalid."""


class NetworkError(ReproError):
    """Raised on invalid network operations (unknown process, bad size)."""


class ProtocolError(ReproError):
    """Raised when a protocol module receives an event it cannot handle.

    A ``ProtocolError`` in a simulation run indicates a bug in a protocol
    implementation, never an expected runtime condition: protocols are
    required to tolerate crashes and suspicions without raising.
    """


class DeploymentError(ReproError):
    """Raised when a live deployment fails to come up or report back.

    Examples: a worker process dying before the run completes, the group
    not becoming ready within the deadline, or the control channel
    closing before every worker sent its final counters.
    """


class FlowControlError(ReproError):
    """Raised on invalid flow-control usage (e.g. releasing unheld slots)."""


class MetricsError(ReproError):
    """Raised when metric collection is queried in an invalid state."""


class OrderingViolation(ReproError):
    """Raised by the safety checker when an atomic broadcast property fails.

    The message carries a human-readable description of the violated
    property (validity, uniform agreement, integrity or total order) and
    the processes/messages involved.
    """


class LivenessViolation(ReproError):
    """Raised by the nemesis liveness watchdog when progress stalls.

    Emitted when, after the last injected fault has healed, correct
    processes hold undelivered messages yet make no delivery progress
    within the configured bound. The message carries the outstanding
    message ids and a slice of the recent event trace.
    """


class StationarityWarning(UserWarning):
    """Warning emitted when a run did not reach a stationary state.

    Measurements from such runs are still returned, but the harness flags
    them so that sweep results can highlight unreliable points.
    """
