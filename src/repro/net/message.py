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
wire format (see :mod:`repro.net.wire` — no pickling, unregistered
payload types are rejected loudly).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import NetworkError
from repro.net.wire import WIRE_FORMAT_VERSION, check_version, decode_value, encode_text

_MSG_COUNTER = itertools.count()

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

    ``uid`` travels too: it is only unique per sending process, but the
    receiving side uses it for tracing, never as a global key.
    *payload_json*, when given, must be ``encode_text(message.payload)``:
    a sender addressing one payload to several destinations serializes
    it once and splices the same text into every envelope.
    """
    if payload_json is None:
        payload_json = encode_text(message.payload)
    # Hand-assembled envelope, byte-identical to dumping the equivalent
    # dict with compact separators (pinned by a golden test).
    return (
        f'{{"v":{WIRE_FORMAT_VERSION},"kind":{json.dumps(message.kind)},'
        f'"module":{json.dumps(message.module)},"src":{message.src},'
        f'"dst":{message.dst},"payload":{payload_json},'
        f'"payload_size":{message.payload_size},'
        f'"header_size":{message.header_size},"uid":{message.uid}}}'
    ).encode("utf-8")


def decode_message(data: bytes) -> NetMessage:
    """Inverse of :func:`encode_message`.

    Raises :class:`~repro.errors.NetworkError` — and nothing else — on
    malformed input or a wire-format version this build does not speak.
    """
    try:
        document = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise NetworkError(f"malformed wire message: {exc}") from exc
    if not isinstance(document, dict):
        raise NetworkError(f"malformed wire message: {document!r}")
    check_version(document.get("v"))
    for name in ("payload_size", "header_size"):
        size = document.get(name, 0)  # a missing one is reported below
        if type(size) is not int:  # refuses bool, 1.5 and Infinity too
            raise NetworkError(f"malformed wire message: {name} {size!r} is not an int")
    try:
        return NetMessage(
            kind=document["kind"],
            module=document["module"],
            src=document["src"],
            dst=document["dst"],
            payload=decode_value(document["payload"]),
            payload_size=document["payload_size"],
            header_size=document["header_size"],
            uid=document["uid"],
        )
    except KeyError as exc:
        raise NetworkError(f"wire message missing field {exc}") from exc
