"""Versioned wire codec for protocol payloads.

The simulator never serializes payloads (only their modelled sizes
matter), but the live runtime puts real bytes on real TCP sockets, so
every payload type needs an explicit, versioned encoding. Rather than
pickling — fragile across versions and an arbitrary-code-execution hole
on untrusted input — payloads are encoded as positional JSON arrays:

* scalars (``None``, ``bool``, ``int``, ``float``, ``str``) pass through;
* containers become ``["tuple", …]``, ``["list", …]``,
  ``["frozenset", …]`` (items sorted) and ``["dict", [k, v], …]``;
* ``bytes`` become ``["bytes", "<hex>"]``;
* registered dataclasses become ``["<tag>", field1, field2, …]``, the
  fields in declaration order.

An array is always tagged by its first element, so a value is never
ambiguous, and a JSON object is never valid anywhere. Payload
dataclasses opt in with the :func:`wire_payload` decorator, which
compiles the class's encoder and decoder once; the codec refuses
anything unregistered, loudly, in both directions. The overall wire
format (including the :class:`~repro.net.message.NetMessage` envelope
built on top of this codec) is versioned by :data:`WIRE_FORMAT_VERSION`;
decoders reject frames from a different version instead of guessing.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from itertools import islice
from math import isfinite
from typing import Any, Callable, TypeVar

from repro.errors import NetworkError

#: Version of the whole wire format (payload codec + message envelope).
#: Bump on any incompatible change; decoders reject other versions.
WIRE_FORMAT_VERSION = 2

_T = TypeVar("_T")

#: Classes that are their own encoding, in both directions. Subclasses
#: (enums, ...) take the isinstance path of :func:`_text`.
_SCALARS = frozenset({bool, int, float, str, type(None)})

#: Reserved container tags (not usable by payload classes).
_CONTAINER_TAGS = frozenset({"tuple", "list", "dict", "frozenset", "bytes"})

#: Wire tag -> registered payload class.
_BY_TAG: dict[str, type] = {}
#: Wire tag -> decoder of an array with that tag (containers included).
_DECODERS: dict[Any, Callable[[list], Any]] = {}
#: Registered class -> writer of its tagged array's JSON text.
_ENCODERS: dict[type, Callable[[Any], str]] = {}
_payloads_loaded = False

#: What exceptions a malformed structure raises from the decoders.
_DECODE_ERRORS = (KeyError, IndexError, TypeError, ValueError, RecursionError)


def _text(value: Any) -> str:
    """The JSON text of *value*'s encoding."""
    cls = value.__class__
    if cls is int:
        return repr(value)
    if value is None:
        return "null"
    # Registered payloads take precedence over the container branches:
    # NamedTuple payloads (e.g. MessageId) are tuples too, and must
    # round-trip as their registered type, not as a bare tuple.
    encoder = _ENCODERS.get(cls)
    if encoder is not None:
        return encoder(value)
    if cls is float and isfinite(value):
        return repr(value)
    if isinstance(value, (bool, int, float, str)):
        return json.dumps(value)  # ASCII-escaped; Infinity and NaN spelt out
    if isinstance(value, bytes):
        return f'["bytes","{value.hex()}"]'
    if isinstance(value, tuple):
        return '["tuple"' + "".join(["," + _text(v) for v in value]) + "]"
    if isinstance(value, list):
        return '["list"' + "".join(["," + _text(v) for v in value]) + "]"
    if isinstance(value, frozenset):
        return '["frozenset"' + "".join(sorted(["," + _text(v) for v in value])) + "]"
    if isinstance(value, dict):
        pairs = [f",[{_text(k)},{_text(v)}]" for k, v in value.items()]
        return '["dict"' + "".join(pairs) + "]"
    raise NetworkError(
        f"cannot serialize unregistered payload type {cls.__name__!r}; "
        "register it with @repro.net.wire.wire_payload"
    )


# Decoding. Every non-scalar is decoded by ``_DECODERS[x[0]](x)``,
# written out at each use: a JSON array is dispatched on its tag, an
# unknown tag raises KeyError, and so does a JSON object, whose keys are
# strings, never ``0``. The entry points turn that, an arity mismatch
# (ValueError) and every other shape error into a NetworkError.


def _items(encoded: list) -> list:
    return [
        v if v.__class__ in _SCALARS else _DECODERS[v[0]](v)
        for v in islice(encoded, 1, None)
    ]


def _decode_dict(encoded: list) -> dict:
    decoded = {}
    for pair in islice(encoded, 1, None):
        if pair.__class__ is not list:
            raise NetworkError(f"malformed wire dict item: {pair!r}")
        key, value = pair
        if key.__class__ not in _SCALARS:
            key = _DECODERS[key[0]](key)
        decoded[key] = value if value.__class__ in _SCALARS else _DECODERS[value[0]](value)
    return decoded


def _decode_bytes(encoded: list) -> bytes:
    __, text = encoded
    return bytes.fromhex(text)


_DECODERS.update(
    tuple=lambda encoded: tuple(_items(encoded)),
    list=_items,
    frozenset=lambda encoded: frozenset(_items(encoded)),
    dict=_decode_dict,
    bytes=_decode_bytes,
)


def wire_payload(cls: type[_T]) -> type[_T]:
    """Class decorator registering a payload class with the codec.

    Payloads are dataclasses or NamedTuples (both expose their fields by
    name and reconstruct from positional arguments). The class name is
    its wire tag and its fields travel in declaration order, so renaming
    a registered class or changing its fields is a wire-format change
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
    if _payloads_loaded:
        _compile(cls)
    return cls


def _compile(cls: type) -> None:
    """Compile *cls*'s encoder and decoder, as ``frozen_record`` compiles
    ``__init__``: each reads or passes the fields by name, an ``int``
    field (encoding) or any scalar field (decoding) without a call, and
    the decoder refuses an array whose length is not the class's arity
    plus its tag. Deferred to the codec's first use, so a process that
    never touches the wire (a simulation) never pays for it.
    """
    tag = cls.__name__
    names = [f.name for f in fields(cls)] if is_dataclass(cls) else cls._fields
    args = [f"a{i}" for i in range(len(names))]
    encoded = "".join(f",{{{a} if {a}.__class__ is int else _text({a})}}" for a in args)
    decoded = "".join(f"{a} if {a}.__class__ in _SCALARS else _D[{a}[0]]({a}), " for a in args)
    # A NamedTuple is built by tuple.__new__, not by its Python __new__.
    build = f"_cls({decoded})" if is_dataclass(cls) else f"_new(_cls, ({decoded}))"
    source = (
        "def encode(value):\n"
        + "".join(f"    {a} = value.{name}\n" for a, name in zip(args, names))
        + f"    return f'[\"{tag}\"{encoded}]'\n"
        + f"def decode(encoded):\n    _,{''.join(f' {a},' for a in args)} = encoded\n"
        + f"    return {build}\n"
    )
    namespace = {
        "_cls": cls, "_new": tuple.__new__,
        "_text": _text, "_D": _DECODERS, "_SCALARS": _SCALARS,
    }
    exec(compile(source, f"<wire {tag}>", "exec"), namespace)
    _ENCODERS[cls] = namespace["encode"]
    _DECODERS[tag] = namespace["decode"]


def _ensure_payloads() -> None:
    """Import every module that declares wire payloads, and compile every
    registered class's encoder and decoder (idempotent).

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
    from repro import types

    for core in (types.MessageId, types.AppMessage, types.Batch):
        wire_payload(core)
    import repro.abcast.indirect  # noqa: F401  (registers IdBatch)
    import repro.abcast.messages  # noqa: F401
    import repro.abcast.ringpaxos  # noqa: F401  (registers RingToken)
    import repro.abcast.sequencer  # noqa: F401  (registers Sequenced)
    import repro.broadcast.reliable  # noqa: F401  (registers RbMessage)
    import repro.consensus.messages  # noqa: F401

    for cls in _BY_TAG.values():
        _compile(cls)
    _payloads_loaded = True


def encode_text(value: Any) -> str:
    """The compact JSON text of *value*'s encoding, as it travels."""
    _ensure_payloads()
    return _text(value)


def encode_value(value: Any) -> Any:
    """Encode *value* into the JSON structure that travels."""
    return json.loads(encode_text(value))


def decode_value(encoded: Any) -> Any:
    """Decode a structure produced by :func:`encode_value`.

    Anything else — wrong shapes or arities, objects, bad hex,
    unhashable keys, nesting deeper than the interpreter's stack —
    raises :class:`~repro.errors.NetworkError`, never a bare built-in
    error.
    """
    _ensure_payloads()
    if encoded.__class__ in _SCALARS:
        return encoded
    try:
        return _DECODERS[encoded[0]](encoded)
    except _DECODE_ERRORS as exc:
        raise NetworkError(f"malformed wire value: {exc!r}") from exc


def check_version(version: Any) -> None:
    """Reject frames from an incompatible wire-format version."""
    if version.__class__ is not int or version != WIRE_FORMAT_VERSION:
        raise NetworkError(
            f"unsupported wire format version {version!r} "
            f"(this build speaks version {WIRE_FORMAT_VERSION})"
        )
