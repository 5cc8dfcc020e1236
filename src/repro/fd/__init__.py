"""Failure detectors (the paper's FD module, §2.1).

Two implementations behind one interface: an omniscient oracle for
clean performance runs and a heartbeat-based ◇S detector exchanging real
network messages. The base :class:`FailureDetector` suspects nothing on
its own; wrong suspicions reach any detector only through the
faultload's :class:`~repro.config.WrongSuspicion` events.
"""

from repro.fd.base import FailureDetector
from repro.fd.heartbeat import HEARTBEAT_SIZE, HeartbeatFailureDetector
from repro.fd.oracle import OracleFailureDetector

__all__ = [
    "HEARTBEAT_SIZE",
    "FailureDetector",
    "HeartbeatFailureDetector",
    "OracleFailureDetector",
]
