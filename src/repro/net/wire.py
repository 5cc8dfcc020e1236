"""Versioned wire codec for protocol payloads.

The simulator never serializes payloads (only their modelled sizes
matter), but the live runtime puts real bytes on real TCP sockets, so
every payload type needs an explicit, versioned encoding. Rather than
pickling — fragile across versions and an arbitrary-code-execution hole
on untrusted input — payloads are encoded as tagged JSON:

* scalars (``None``, ``bool``, ``int``, ``float``, ``str``) pass through;
* containers become ``{"$t": "tuple"|"list"|"dict"|"frozenset", ...}``;
* ``bytes`` become ``{"$t": "bytes", "hex": ...}``;
* registered dataclasses become ``{"$t": "<tag>", "f": {field: value}}``.

Payload dataclasses opt in with the :func:`wire_payload` decorator; the
codec refuses anything unregistered, loudly, in both directions. The
overall wire format (including the :class:`~repro.net.message.NetMessage`
envelope built on top of this codec) is versioned by
:data:`WIRE_FORMAT_VERSION`; decoders reject frames from a different
version instead of guessing.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from math import isfinite
from typing import Any, TypeVar

from repro.errors import NetworkError

#: Version of the whole wire format (payload codec + message envelope).
#: Bump on any incompatible change; decoders reject other versions.
WIRE_FORMAT_VERSION = 1

_T = TypeVar("_T")

#: Reserved container tags (not usable by payload classes).
_CONTAINER_TAGS = frozenset({"tuple", "list", "dict", "frozenset", "bytes"})

_BY_TAG: dict[str, type] = {}
#: Registered class -> (wire tag, text head, per-field ``("name":, name)``
#: pairs), resolved once at registration so encoding never reflects on
#: the class again. Head and keys are the constant pieces of the class's
#: JSON text (see :func:`encode_text`).
_SCHEMAS: dict[type, tuple[str, str, tuple[tuple[str, str], ...]]] = {}
_payloads_loaded = False

#: Exact scalar classes; subclasses (enums, ...) take the isinstance path.
_SCALARS = frozenset({bool, int, float, str})

#: Compact JSON text of one encoded structure.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def wire_payload(cls: type[_T]) -> type[_T]:
    """Class decorator registering a payload class with the codec.

    Payloads are dataclasses or NamedTuples (both expose their fields by
    name and reconstruct from keyword arguments). The class name is its
    wire tag, so renaming a registered class is a wire-format change
    (bump :data:`WIRE_FORMAT_VERSION`).
    """
    tag = cls.__name__
    if not is_dataclass(cls) and not (
        issubclass(cls, tuple) and hasattr(cls, "_fields")
    ):
        raise TypeError(f"wire payloads must be dataclasses or NamedTuples: {cls!r}")
    if tag in _CONTAINER_TAGS:
        raise TypeError(f"payload tag {tag!r} collides with a container tag")
    registered = _BY_TAG.get(tag)
    if registered is not None and registered is not cls:
        raise TypeError(f"duplicate wire payload tag {tag!r}")
    _BY_TAG[tag] = cls
    if is_dataclass(cls):
        names = tuple(f.name for f in fields(cls))
    else:
        names = cls._fields  # NamedTuple
    head = f'{{"$t":{_dumps(tag)},"f":{{'
    _SCHEMAS[cls] = (tag, head, tuple((_dumps(n) + ":", n) for n in names))
    return cls


def _ensure_payloads() -> None:
    """Import every module that declares wire payloads (idempotent).

    Decoding may run before any payload class has been touched (e.g. the
    first frame a live worker receives), so the codec pulls the known
    payload modules in lazily; their :func:`wire_payload` decorators do
    the actual registration. Core value types register here directly
    because :mod:`repro.types` is a leaf module that must not depend on
    the network layer.
    """
    global _payloads_loaded
    if _payloads_loaded:
        return
    _payloads_loaded = True
    from repro import types

    for core in (types.MessageId, types.AppMessage, types.Batch):
        wire_payload(core)
    import repro.abcast.indirect  # noqa: F401  (registers IdBatch)
    import repro.abcast.messages  # noqa: F401
    import repro.abcast.ringpaxos  # noqa: F401  (registers RingToken)
    import repro.abcast.sequencer  # noqa: F401  (registers Sequenced)
    import repro.broadcast.reliable  # noqa: F401  (registers RbMessage)
    import repro.consensus.messages  # noqa: F401


def encode_value(value: Any) -> Any:
    """Encode *value* into a JSON-serializable structure."""
    _ensure_payloads()
    return _encode(value)


def _encode(value: Any) -> Any:
    cls = value.__class__
    if value is None or cls in _SCALARS:
        return value
    # Registered payloads take precedence over the container branches:
    # NamedTuple payloads (e.g. MessageId) are tuples too, and must
    # round-trip as their registered type, not as a bare tuple.
    schema = _SCHEMAS.get(cls)
    if schema is not None:
        tag, __, pairs = schema
        return {"$t": tag, "f": {name: _encode(getattr(value, name)) for __, name in pairs}}
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {"$t": "bytes", "hex": value.hex()}
    if isinstance(value, tuple):
        return {"$t": "tuple", "items": [_encode(v) for v in value]}
    if isinstance(value, list):
        return {"$t": "list", "items": [_encode(v) for v in value]}
    if isinstance(value, frozenset):
        items = sorted((_encode(v) for v in value), key=repr)
        return {"$t": "frozenset", "items": items}
    if isinstance(value, dict):
        return {
            "$t": "dict",
            "items": [[_encode(k), _encode(v)] for k, v in value.items()],
        }
    raise NetworkError(
        f"cannot serialize unregistered payload type {cls.__name__!r}; "
        "register it with @repro.net.wire.wire_payload"
    )


def encode_text(value: Any) -> str:
    """The compact JSON text of ``encode_value(value)``, as it travels.

    What protocol messages are made of — registered payloads, ints,
    finite floats, ``None`` and plain tuples — is written straight from
    the precomputed schema pieces, without building the intermediate
    structure; anything else takes the structural encoder. Both paths
    yield the same text (property-tested).
    """
    _ensure_payloads()
    return _text(value)


def _text(value: Any) -> str:
    cls = value.__class__
    if cls is int:
        return repr(value)
    if value is None:
        return "null"
    schema = _SCHEMAS.get(cls)
    if schema is not None:
        __, head, pairs = schema
        return (
            head
            + ",".join([key + _text(getattr(value, name)) for key, name in pairs])
            + "}}"
        )
    if cls is float and isfinite(value):
        return repr(value)
    if cls is tuple:
        return '{"$t":"tuple","items":[' + ",".join([_text(v) for v in value]) + "]}"
    return _dumps(_encode(value))


def decode_value(encoded: Any) -> Any:
    """Decode a structure produced by :func:`encode_value`.

    Anything else — wrong shapes, bad hex, unhashable keys, nesting
    deeper than the interpreter's stack — raises
    :class:`~repro.errors.NetworkError`, never a bare built-in error.
    """
    _ensure_payloads()
    try:
        return _decode(encoded)
    except (KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise NetworkError(f"malformed wire value: {exc!r}") from exc


def _decode(encoded: Any) -> Any:
    if encoded is None or encoded.__class__ in _SCALARS:
        return encoded
    if isinstance(encoded, list):  # only produced inside container tags
        return [_decode(v) for v in encoded]
    if not isinstance(encoded, dict):
        if isinstance(encoded, (bool, int, float, str)):
            return encoded
        raise NetworkError(f"malformed wire value: {encoded!r}")
    tag = encoded.get("$t")
    cls = _BY_TAG.get(tag)
    if cls is not None:
        return cls(**{name: _decode(v) for name, v in encoded["f"].items()})
    if tag == "bytes":
        return bytes.fromhex(encoded["hex"])
    if tag == "tuple":
        return tuple([_decode(v) for v in encoded["items"]])
    if tag == "list":
        return [_decode(v) for v in encoded["items"]]
    if tag == "frozenset":
        return frozenset([_decode(v) for v in encoded["items"]])
    if tag == "dict":
        return {_decode(k): _decode(v) for k, v in encoded["items"]}
    raise NetworkError(f"unknown wire payload tag {tag!r}")


def check_version(version: Any) -> None:
    """Reject frames from an incompatible wire-format version."""
    if version != WIRE_FORMAT_VERSION:
        raise NetworkError(
            f"unsupported wire format version {version!r} "
            f"(this build speaks version {WIRE_FORMAT_VERSION})"
        )
