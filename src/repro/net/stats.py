"""Network accounting.

Counts messages and bytes put on the wire, broken down by message kind
and by sending module. These counters are what we check the paper's §5.2
analytical formulas against: the per-consensus message counts of the
modular and monolithic stacks must match
``(n-1)(M + 2 + ⌊(n+1)/2⌋)`` and ``2(n-1)`` respectively in good runs.
"""

from __future__ import annotations

from collections import Counter

from repro.net.message import NetMessage


class NetworkStats:
    """Mutable per-run network counters.

    :meth:`on_transmit` touches one ``[messages, wire bytes, payload
    bytes]`` cell per ``(kind, module)``; the totals and the per-kind /
    per-module breakdowns are sums over the cells, taken when read —
    each read returns a fresh value, so writing into a returned
    ``Counter`` changes nothing here.
    """

    def __init__(self) -> None:
        #: Transmit attempts stifled because the sender had already
        #: crashed (fail-stop: a dead process must not put new frames
        #: on the wire).
        self.sends_after_crash = 0
        self._cells: dict[tuple[str, str], list[int]] = {}

    def on_transmit(self, message: NetMessage) -> None:
        """Record one message put on the wire."""
        key = (message.kind, message.module)
        try:
            cell = self._cells[key]
        except KeyError:
            cell = self._cells[key] = [0, 0, 0]
        cell[0] += 1
        cell[1] += message.wire_size
        cell[2] += message.payload_size

    def on_send_after_crash(self, message: NetMessage) -> None:  # noqa: ARG002
        """Record one transmit attempt by an already-crashed sender."""
        self.sends_after_crash += 1

    def _total(self, column: int) -> int:
        return sum(cell[column] for cell in self._cells.values())

    def _tally(self, key_part: int, column: int) -> Counter:
        """Column *column* summed per kind (*key_part* 0) or module (1)."""
        tally: Counter = Counter()
        for key, cell in self._cells.items():
            tally[key[key_part]] += cell[column]
        return tally

    @property
    def messages_sent(self) -> int:
        """Messages put on the wire."""
        return self._total(0)

    @property
    def bytes_sent(self) -> int:
        """Wire bytes (payload plus headers) put on the wire."""
        return self._total(1)

    @property
    def payload_bytes_sent(self) -> int:
        """Payload bytes put on the wire."""
        return self._total(2)

    @property
    def messages_by_kind(self) -> Counter:
        """Messages per protocol message kind."""
        return self._tally(0, 0)

    @property
    def bytes_by_kind(self) -> Counter:
        """Wire bytes per protocol message kind."""
        return self._tally(0, 1)

    @property
    def messages_by_module(self) -> Counter:
        """Messages per sending module."""
        return self._tally(1, 0)

    def reset(self) -> None:
        """Zero all counters (called at the end of warm-up)."""
        self.sends_after_crash = 0
        self._cells.clear()

    def snapshot(self) -> dict:
        """A plain-dict copy, convenient for reports and assertions."""
        return {
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "payload_bytes_sent": self.payload_bytes_sent,
            "sends_after_crash": self.sends_after_crash,
            "messages_by_kind": dict(self.messages_by_kind),
            "bytes_by_kind": dict(self.bytes_by_kind),
            "messages_by_module": dict(self.messages_by_module),
        }
