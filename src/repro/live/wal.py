"""Write-ahead delivery log for live workers (crash recovery).

Each live worker appends its measurement-relevant state transitions to
one append-only log file so a SIGKILLed worker can be restarted and
rejoin the group without violating the abcast contract (see
PROTOCOLS.md, "Crash recovery"). Three record types exist:

* ``accept`` — one of this worker's own messages entered the stack.
  Written *and fsynced before* the matching
  :class:`~repro.stack.events.AbcastRequest` is injected (true
  write-ahead: a message can never be on the wire without its accept
  record being durable — the merged-log integrity check depends on it).
* ``deliver`` — one message was adelivered locally, with the top
  module's next consensus instance after the delivery. Buffered and
  fsynced in batches (the periodic flush), so a crash may lose a
  *suffix* of deliveries — which state transfer re-fetches — but never
  reorders or invents one.
* ``resume`` — a snapshot of the transport's per-peer delivered frame
  counts (the reconnect resume points). Last one wins on recovery.

Framing: every record is ``[4-byte BE length][4-byte BE CRC32][JSON
body]``. A crash can tear the tail of the file mid-record (partial
write, or a page of garbage after a power cut); :func:`recover_wal`
scans from the front and truncates the file at the first incomplete or
corrupt record, keeping the longest valid prefix. Records before the
torn tail were fsynced in order, so the prefix is exactly the state the
worker is entitled to claim.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.config import read_fields
from repro.errors import ConfigurationError, DeploymentError

_HEADER = struct.Struct(">II")  # (body length, CRC32 of body)

#: Refuse record bodies bigger than this on read: a corrupt length
#: prefix must not ask the reader to allocate gigabytes.
MAX_RECORD_SIZE = 16 * 1024 * 1024


def encode_record(record: dict) -> bytes:
    """Frame one record for the log: length + CRC32 + JSON body."""
    body = json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_records(data: bytes) -> tuple[list[dict], int]:
    """Parse every valid record at the front of *data*.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the
    offset of the first incomplete or corrupt record (== ``len(data)``
    when the whole buffer parsed). Everything from that offset on is a
    torn tail: recovery truncates it and proceeds with the prefix.
    """
    records: list[dict] = []
    offset = 0
    total = len(data)
    while total - offset >= _HEADER.size:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        if length > MAX_RECORD_SIZE or start + length > total:
            break  # torn or corrupt length prefix
        body = data[start : start + length]
        if zlib.crc32(body) != crc:
            break  # corrupt body
        try:
            record = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break  # CRC collision on garbage; treat as torn
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = start + length
    return records, offset


class WalWriter:
    """Appends framed records to a log file, fsyncing in batches.

    ``append(record, sync=True)`` makes the record (and everything
    buffered before it) durable before returning — used for ``accept``
    records, which must hit the disk before the message hits the wire.
    ``append(record)`` only buffers; the worker's periodic flush loop
    calls :meth:`flush` to batch the fsyncs (one per ~250 ms instead of
    one per delivery).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = open(self.path, "ab")
        self._buffer = bytearray()
        #: Number of fsyncs issued (a telemetry counter: the worker's
        #: durability cost, surfaced on the control channel).
        self.fsyncs = 0

    def append(self, record: dict, *, sync: bool = False) -> None:
        """Buffer one record; with ``sync=True``, make it durable now."""
        self._buffer += encode_record(record)
        if sync:
            self.flush()

    def flush(self) -> None:
        """Write every buffered record and fsync the file."""
        if not self._buffer:
            return
        self._file.write(self._buffer)
        self._buffer.clear()
        self._file.flush()
        os.fsync(self._file.fileno())
        self.fsyncs += 1

    def close(self) -> None:
        """Flush outstanding records and close the file."""
        try:
            self.flush()
        finally:
            self._file.close()


def read_wal(path: str | Path) -> tuple[list[dict], int]:
    """Read a log file; returns ``(records, torn_tail_bytes)``.

    Missing file reads as empty (a worker killed before its first
    append leaves no file). Never modifies the file — use
    :func:`recover_wal` at worker restart, where the torn tail must
    also be removed before appending resumes.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return [], 0
    records, valid = decode_records(data)
    return records, len(data) - valid


def recover_wal(path: str | Path) -> tuple[list[dict], int]:
    """Like :func:`read_wal`, but truncates the torn tail in place.

    The log must end exactly at the last valid record before a
    restarted worker appends new ones — otherwise the next append would
    splice valid frames after garbage and strand them forever.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0
    records, valid = decode_records(data)
    torn = len(data) - valid
    if torn:
        with open(path, "r+b") as handle:
            handle.truncate(valid)
    return records, torn


@dataclass(frozen=True, slots=True)
class _Accept:
    """An ``accept`` record: own message ``(s, q)`` entered the stack at ``at``."""

    s: int
    q: int
    at: float


@dataclass(frozen=True, slots=True)
class _Deliver:
    """A ``deliver`` record: ``(s, q)`` was adelivered at ``at``, and the
    top module's next consensus instance was then ``i``."""

    s: int
    q: int
    at: float
    i: int


@dataclass(frozen=True, slots=True)
class _Resume:
    """A ``resume`` record: ``peer -> [incarnation nonce, frame count]``."""

    counts: dict[int, tuple[int, int]]
    at: float = 0.0


_RECORD_TYPES = {"accept": _Accept, "deliver": _Deliver, "resume": _Resume}


def _read_records(records: list[dict]) -> Iterator[_Accept | _Deliver | _Resume]:
    """Each parsed record as its typed form, in log order.

    The one reader behind both readers of a log: the restart fold
    (:meth:`WalState.from_records`) and the merged-log check of
    :mod:`repro.live.faults`. A CRC-valid record can still hold anything
    JSON can: an unknown ``t``, a missing or ill-typed field, or a time
    too large for a float. Each is refused with :class:`DeploymentError`
    naming the record's index and the field.
    """
    for index, record in enumerate(records):
        where = f"WAL record {index}"
        kind = record.get("t")
        record_type = _RECORD_TYPES.get(kind) if isinstance(kind, str) else None
        if record_type is None:
            raise DeploymentError(f"unknown WAL record type {kind!r} in {where}")
        body = {key: value for key, value in record.items() if key != "t"}
        try:
            typed = read_fields(record_type, body, where)
            float(typed.at)  # a 400-digit JSON integer reads, but is no time
        except ConfigurationError as error:
            raise DeploymentError(str(error)) from None
        except OverflowError:
            raise DeploymentError(
                f"field '{where}.at' must be a finite number, got {typed.at!r}"
            ) from None
        yield typed


@dataclass
class WalState:
    """The recovered state a restarted worker resumes from."""

    #: Locally adelivered (sender, seq) pairs, in delivery order.
    delivered: list[tuple[int, int]] = field(default_factory=list)
    #: Own messages accepted into the stack: (sender, seq, abcast_time).
    accepted: list[tuple[int, int, float]] = field(default_factory=list)
    #: Transport resume points from the latest snapshot record:
    #: ``peer -> (incarnation nonce, delivered frame count)``.
    resume_counts: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: The top module's next consensus instance after the last logged
    #: delivery (0 for an empty log).
    next_instance: int = 0

    def max_own_seq(self, pid: int) -> int:
        """Highest own sequence number ever accepted (-1 if none)."""
        own = [q for s, q, __ in self.accepted if s == pid]
        return max(own) if own else -1

    @classmethod
    def from_records(cls, records: list[dict]) -> "WalState":
        """Fold a parsed record list into the resumable state."""
        state = cls()
        seen: set[tuple[int, int]] = set()
        for record in _read_records(records):
            if isinstance(record, _Accept):
                state.accepted.append((record.s, record.q, float(record.at)))
            elif isinstance(record, _Deliver):
                pair = (record.s, record.q)
                if pair in seen:
                    continue  # re-synced after a partial flush; keep first
                seen.add(pair)
                state.delivered.append(pair)
                state.next_instance = max(state.next_instance, record.i)
            else:
                state.resume_counts = record.counts
        return state


def load_wal_state(path: str | Path) -> tuple[WalState, int]:
    """Recover a log file and fold it: ``(state, torn_tail_bytes)``."""
    records, torn = recover_wal(path)
    return WalState.from_records(records), torn
