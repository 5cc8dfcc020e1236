"""Network substrate: quasi-reliable FIFO channels over a modelled LAN.

Replaces the paper's TCP-over-Gigabit-Ethernet transport with a timing
model (NIC serialization + propagation + per-pair FIFO) plus fault
injection and message/byte accounting.
"""

from repro.net.faults import FaultInjector
from repro.net.message import NetMessage
from repro.net.network import Network
from repro.net.stats import NetworkStats

__all__ = [
    "FaultInjector",
    "NetMessage",
    "Network",
    "NetworkStats",
]
