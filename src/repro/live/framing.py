"""Length-prefixed framing, the byte layout of every live stream.

Each frame is a 4-byte big-endian length prefix followed by the body.
The same framing carries protocol frames between workers
(:mod:`repro.live.transport`) and control documents between the
orchestrator and its workers (:mod:`repro.live.deploy`). It is plain
byte arithmetic with no event loop, so a process that only describes a
deployment never loads asyncio.
"""

from __future__ import annotations

import struct

from repro.errors import NetworkError

#: Refuse frames bigger than this (a corrupt length prefix otherwise
#: asks the decoder to buffer gigabytes).
MAX_FRAME_SIZE = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def encode_frame(body: bytes) -> bytes:
    """Length-prefix *body* for the stream."""
    if len(body) > MAX_FRAME_SIZE:
        raise NetworkError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_SIZE}")
    return _LENGTH.pack(len(body)) + body


def _scan_frames(
    view: memoryview, end: int, max_frame: int
) -> tuple[list[bytes], int, int]:
    """Split ``view[:end]`` into the complete frames it starts with.

    Returns ``(frames, consumed, need)``: the frame bodies in order, how
    many bytes they and their prefixes took, and the total size (prefix
    included) of the incomplete frame that follows — 0 while not even
    its length prefix is complete.
    """
    frames: list[bytes] = []
    cursor = 0
    need = 0
    prefix = _LENGTH.size
    while end - cursor >= prefix:
        (length,) = _LENGTH.unpack_from(view, cursor)
        if length > max_frame:
            raise NetworkError(f"incoming frame of {length} bytes exceeds {max_frame}")
        stop = cursor + prefix + length
        if stop > end:
            need = prefix + length
            break
        frames.append(bytes(view[cursor + prefix : stop]))
        cursor = stop
    return frames, cursor, need


class FrameDecoder:
    """Incremental frame parser tolerant of split and coalesced reads.

    TCP is a byte stream: one ``read()`` may return half a frame or
    twelve frames and a half. Feed whatever arrives; complete frames
    come out, the remainder stays buffered.
    """

    def __init__(self, max_frame: int = MAX_FRAME_SIZE) -> None:
        self._buffer = bytearray()
        self._max_frame = max_frame

    def feed(self, data: bytes | bytearray | memoryview) -> list[bytes]:
        """Absorb *data*; return every frame it completed, in order."""
        buffer = self._buffer
        buffer += data
        # The view must be gone before the bytearray is resized.
        with memoryview(buffer) as view:
            frames, consumed, __ = _scan_frames(view, len(buffer), self._max_frame)
        if consumed:
            del buffer[:consumed]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered waiting for the rest of a frame."""
        return len(self._buffer)
