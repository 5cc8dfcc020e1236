"""Wire message model.

Messages carry a protocol *kind* (e.g. ``"PROPOSAL"``), the name of the
destination *module* (so the receiving stack can route them), an opaque
payload, and explicit size accounting. Sizes are modelled, not measured:
``payload_size`` is the number of bytes the real system would serialize,
and ``header_size`` covers transport framing plus the stacked per-module
headers of the composition framework.

For the live runtime (:mod:`repro.live`) messages must actually cross
process boundaries: :func:`encode_message` / :func:`decode_message`
round-trip a :class:`NetMessage` through an explicit, versioned JSON
wire format: one array per message, the envelope's fields in a fixed
order around the payload (see :mod:`repro.net.wire` — no pickling,
unregistered payload types are rejected loudly).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from repro.errors import NetworkError
from repro.net.wire import WIRE_FORMAT_VERSION, check_version, decode_value, encode_text

_MSG_COUNTER = itertools.count()


@lru_cache(maxsize=256)
def _head(kind: str, module: str) -> str:
    """A frame's text up to ``src``; a stack sends a handful of kinds."""
    return f"[{WIRE_FORMAT_VERSION},{json.dumps(kind)},{json.dumps(module)},"


#: Parses one JSON value at an offset into a string: ``json.loads``
#: without its whitespace skipping, so a frame is exactly one array.
_scan = json.JSONDecoder().scan_once

#: ``uid`` default of :class:`NetMessage`: draw the next uid (``None``
#: cannot mean that; a wire document may carry it).
_DRAW_UID: Any = object()


@dataclass(slots=True, init=False)
class NetMessage:
    """One point-to-point message on the simulated network.

    Attributes:
        kind: Protocol-level message type, used for statistics and traces.
        module: Name of the module that sent it; the receiving stack
            dispatches it to the module registered under the same name.
        src: Sending process.
        dst: Receiving process.
        payload: Opaque protocol content (never serialized in the
            simulator; only its modelled size matters for timing).
        payload_size: Modelled serialized size of the payload in bytes.
        header_size: Modelled framing bytes (transport + module headers).
        uid: Unique id for tracing and FIFO bookkeeping; drawn from a
            process-wide counter unless given.
        wire_size: Total bytes occupying the link (computed; a plain
            attribute rather than a property because it is read several
            times per message on the simulator's hottest paths).
    """

    kind: str
    module: str
    src: int
    dst: int
    payload: Any
    payload_size: int
    header_size: int
    uid: int
    wire_size: int = field(init=False, repr=False, compare=False)

    # Hand-written so that building a message, checks included, is one frame.
    def __init__(
        self, kind: str, module: str, src: int, dst: int, payload: Any,
        payload_size: int, header_size: int, uid: int = _DRAW_UID,
    ) -> None:
        if payload_size < 0:
            raise NetworkError(f"negative payload size: {payload_size}")
        if header_size < 0:
            raise NetworkError(f"negative header size: {header_size}")
        if src == dst:
            raise NetworkError(f"message from {src} to itself")
        self.kind = kind
        self.module = module
        self.src = src
        self.dst = dst
        self.payload = payload
        self.payload_size = payload_size
        self.header_size = header_size
        self.uid = next(_MSG_COUNTER) if uid is _DRAW_UID else uid
        self.wire_size = payload_size + header_size

    def __str__(self) -> str:
        return (
            f"{self.kind}({self.src}->{self.dst}, {self.wire_size}B, "
            f"module={self.module})"
        )


def encode_message(message: NetMessage, payload_json: str | None = None) -> bytes:
    """Serialize *message* for the live transport (versioned, no pickle).

    The frame is one JSON array, ``[version, kind, module, src, dst,
    payload, payload_size, header_size, uid]``. ``uid`` travels too: it
    is only unique per sending process, but the receiving side uses it
    for tracing, never as a global key. *payload_json*, when given, must
    be ``encode_text(message.payload)``: a sender addressing one payload
    to several destinations serializes it once and splices the same text
    into every envelope.
    """
    if payload_json is None:
        payload_json = encode_text(message.payload)
    uid = message.uid
    # Hand-assembled, byte-identical to dumping the equivalent list with
    # compact separators (pinned by a golden test).
    return (
        f"{_head(message.kind, message.module)}"
        f"{message.src},{message.dst},{payload_json},{message.payload_size},"
        f"{message.header_size},{'null' if uid is None else uid}]"
    ).encode("utf-8")


def decode_message(data: bytes) -> NetMessage:
    """Inverse of :func:`encode_message`.

    Raises :class:`~repro.errors.NetworkError` — and nothing else — on
    malformed input or a wire-format version this build does not speak.
    The frame must be exactly one envelope array, and the envelope is
    checked before anything is built: ``kind`` and ``module`` are
    strings, ``src``, ``dst`` and both sizes are ``int`` (not ``bool``),
    and ``uid`` is an ``int`` or ``null``.
    """
    try:
        text = data.decode("utf-8")
        document, end = _scan(text, 0)
    except (ValueError, RecursionError) as exc:
        raise NetworkError(f"malformed wire message: {exc}") from exc
    except StopIteration:
        raise NetworkError("malformed wire message: no JSON value") from None
    if end != len(text) or document.__class__ is not list or len(document) != len(_ENVELOPE):
        raise NetworkError(_envelope_fault(document, text[end:]))
    version, kind, module, src, dst, payload, payload_size, header_size, uid = document
    if (
        version.__class__ is not int
        or version != WIRE_FORMAT_VERSION
        or kind.__class__ is not str
        or module.__class__ is not str
        or src.__class__ is not int
        or dst.__class__ is not int
        or payload_size.__class__ is not int
        or header_size.__class__ is not int
        or (uid is not None and uid.__class__ is not int)
    ):
        raise NetworkError(_envelope_fault(document, ""))
    return NetMessage(
        kind, module, src, dst, decode_value(payload), payload_size, header_size, uid
    )


#: The envelope's fields in wire order, with the class each must have
#: (``uid`` may also be ``null``; the payload is checked by its decoder).
_ENVELOPE = (
    ("v", int), ("kind", str), ("module", str), ("src", int), ("dst", int),
    ("payload", None), ("payload_size", int), ("header_size", int), ("uid", int),
)


def _envelope_fault(document: Any, rest: str) -> str:
    """Why *document*, followed by *rest*, is not one envelope array."""
    if rest:
        return f"malformed wire message: {rest!r:.80} after the envelope"
    if document.__class__ is not list:
        return f"malformed wire message: {document!r:.80} is not an array"
    if len(document) != len(_ENVELOPE):
        if len(document) < len(_ENVELOPE):
            return f"wire message missing field {_ENVELOPE[len(document)][0]!r}"
        return f"malformed wire message: {len(document)} fields, not {len(_ENVELOPE)}"
    check_version(document[0])
    for (name, wanted), value in zip(_ENVELOPE, document):
        if wanted not in (None, value.__class__) and not (name == "uid" and value is None):
            article = "a str" if wanted is str else "an int"
            return f"malformed wire message: {name} {value!r:.80} is not {article}"
    raise AssertionError(f"no fault in envelope {document!r:.80}")
