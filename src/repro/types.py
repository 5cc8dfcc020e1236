"""Core value types shared across the library.

These are deliberately tiny: process identifiers, message identifiers and
the application-level message record used by the atomic broadcast stacks.
Keeping them in one leaf module avoids import cycles between the network,
protocol and metrics packages.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from operator import attrgetter
from typing import Any, Iterable, NamedTuple, NewType, TypeVar

_T = TypeVar("_T")

#: Identifier of a process in the group ``{0, 1, ..., n-1}``.
ProcessId = NewType("ProcessId", int)

#: Simulated time, in seconds.
SimTime = float


class MessageId(NamedTuple):
    """Globally unique identifier of an application (abcast) message.

    The identifier orders messages deterministically: first by sender,
    then by the sender-local sequence number. Atomic broadcast uses this
    order to adeliver the messages of a decided batch deterministically.

    A NamedTuple rather than a frozen dataclass: ids are hashed, compared
    and sorted on the simulator's hottest paths (delivery bookkeeping is
    all dict/set operations keyed by id), and tuple hash/eq/lt run in C.
    """

    sender: int
    seq: int

    def __str__(self) -> str:
        return f"m({self.sender}:{self.seq})"


def frozen_record(cls: type[_T]) -> type[_T]:
    """``dataclass(frozen=True, slots=True)`` whose ``__init__`` sets slots.

    The dataclass's own ``__init__`` assigns each field through
    ``object.__setattr__``, a generic lookup per field, on records the
    simulator builds about twenty times per abcast; this one calls each
    slot's member descriptor. Equality, hashing, ``repr``, ``fields()``,
    ``replace()``, pickling and the refused assignment are unchanged. It
    is compiled as file ``<record NAME>``, so a profile keeps one row per
    class. Fields must be plain (positional, no ``InitVar``, ``ClassVar``
    or ``default_factory``) and there may be no ``__post_init__``; anything
    else raises :class:`TypeError` when the class is decorated.
    """
    record = dataclass(frozen=True, slots=True, init=False)(cls)
    plain = fields(record)
    if (
        hasattr(record, "__post_init__")
        or len(plain) != len(record.__dataclass_fields__)
        or any(f.default_factory is not MISSING or not f.init or f.kw_only for f in plain)
    ):
        raise TypeError(f"{cls.__qualname__} is not a plain frozen record")
    namespace = {f"_set_{f.name}": record.__dict__[f.name].__set__ for f in plain}
    namespace.update({f"_default_{f.name}": f.default for f in plain})
    params = "".join(
        f", {f.name}" + ("" if f.default is MISSING else f"=_default_{f.name}")
        for f in plain
    )
    body = "".join(f"\n    _set_{f.name}(self, {f.name})" for f in plain) or "\n    pass"
    source = f"def __init__(self{params}):{body}\n"
    exec(compile(source, f"<record {cls.__qualname__}>", "exec"), namespace)
    record.__init__ = namespace["__init__"]  # type: ignore[misc]
    record.__init__.__qualname__ = f"{record.__qualname__}.__init__"
    return record


@frozen_record
class AppMessage:
    """An application payload handed to ``abcast``.

    Attributes:
        msg_id: Unique identifier assigned by the sending stack.
        size: Payload size in bytes (the paper's message size ``s``).
        abcast_time: Simulated time at which the ``abcast(m)`` event
            completed at the sender (the paper's ``t0`` for early latency).
        payload: Optional opaque application data. Experiments leave this
            ``None`` and account for ``size`` only; examples use it to
            carry real commands (e.g. key-value store operations).
    """

    msg_id: MessageId
    size: int
    abcast_time: SimTime
    payload: Any = None

    def __str__(self) -> str:
        return f"{self.msg_id}[{self.size}B]"


@frozen_record
class Batch:
    """An ordered batch of application messages decided by one consensus.

    Consensus instances agree on batches; atomic broadcast adelivers the
    batch contents in the deterministic :class:`MessageId` order.
    """

    instance: int
    messages: tuple[AppMessage, ...] = ()

    @property
    def size_bytes(self) -> int:
        """Total payload bytes carried by the batch."""
        return sum(m.size for m in self.messages)

    def in_delivery_order(self) -> tuple[AppMessage, ...]:
        """Messages sorted in the canonical adelivery order."""
        return tuple(sorted(self.messages, key=attrgetter("msg_id")))

    def __len__(self) -> int:
        return len(self.messages)

    def __str__(self) -> str:
        inner = ", ".join(str(m.msg_id) for m in self.messages)
        return f"batch(k={self.instance}, [{inner}])"


class DeliveryLedger:
    """The set of ``(sender, seq)`` ids recorded so far, kept as a
    watermark per sender plus the few ids above it.

    Sequence numbers are per sender and dense from 0, so every id a
    module ever delivered is, per sender, a prefix ``0..w-1`` plus a few
    ids above ``w`` that arrived ahead of a gap. The ledger keeps ``w``
    per sender and a sparse set of the ids above it; an id joins the
    watermark as soon as the gap below it closes. It answers ``in``
    exactly as a ``set`` of every recorded id would, for any pair of
    ints — a negative or huge ``seq`` off the wire, or a sender outside
    the group, is simply kept in the sparse set.
    """

    __slots__ = ("_next", "_above")

    def __init__(self) -> None:
        #: Per sender, the first seq not yet recorded: every seq in
        #: ``0..next-1`` is.
        self._next: dict[int, int] = {}
        #: Recorded ids that are not below their sender's watermark.
        self._above: set[tuple[int, int]] = set()

    def __contains__(self, msg_id: tuple[int, int]) -> bool:
        sender, seq = msg_id
        return 0 <= seq < self._next.get(sender, 0) or msg_id in self._above

    def add(self, msg_id: tuple[int, int]) -> bool:
        """Record *msg_id*; ``False`` if it was already recorded."""
        sender, seq = msg_id
        watermark = self._next.get(sender, 0)
        if seq == watermark:
            watermark += 1
            above = self._above
            while above and (sender, watermark) in above:
                above.remove((sender, watermark))
                watermark += 1
            self._next[sender] = watermark
            return True
        if 0 <= seq < watermark or msg_id in self._above:
            return False
        self._above.add(msg_id)
        return True

    def update(self, ids: Iterable[tuple[int, int]]) -> None:
        """Record every id of *ids*."""
        for msg_id in ids:
            self.add(msg_id)
