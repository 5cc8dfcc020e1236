"""``frozen_record``: a frozen slotted dataclass built through its slots.

Every record class of the package (actions, events, application
messages and batches, protocol payloads) must behave exactly like the
plain ``dataclass(frozen=True, slots=True)`` it replaced; only its
``__init__`` differs. Each class is compared with a twin made by
``dataclasses.make_dataclass`` from the same fields.
"""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from typing import ClassVar

import pytest

import repro
from repro.types import frozen_record


def record_classes():
    """Every class in the package whose ``__init__`` frozen_record made."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            init = getattr(value, "__init__", None)
            code = getattr(init, "__code__", None)
            if isinstance(value, type) and code and code.co_filename.startswith("<record "):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return [found[name] for name in sorted(found)]


RECORDS = record_classes()


def twin_of(cls):
    specs = [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, f.default)
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, slots=True)


def values_for(cls, salt=""):
    return [f"{f.name}{salt}" for f in dataclasses.fields(cls)]


def test_the_vocabulary_is_covered():
    names = {cls.__name__ for cls in RECORDS}
    assert {
        "Send", "SendToAll", "EmitUp", "EmitDown", "StartTimer", "CancelTimer",
        "AbcastRequest", "AdeliverIndication", "ProposeRequest", "DecideIndication",
        "RbcastRequest", "RdeliverIndication", "AppMessage", "Batch", "Proposal",
        "Ack", "DecisionTag", "CombinedProposal", "RbMessage",
    } <= names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestSameAsAPlainFrozenDataclass:
    def test_assignment_and_deletion_are_refused(self, cls):
        record = cls(*values_for(cls))
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, "other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        assert not hasattr(record, "__dict__")

    def test_eq_hash_and_repr(self, cls):
        twin = twin_of(cls)
        values = values_for(cls)
        record, plain = cls(*values), twin(*values)
        assert repr(record) == repr(plain)
        assert hash(record) == hash(plain)
        assert record == cls(*values) and record != cls(*values_for(cls, "'"))
        kwargs = {f.name: value for f, value in zip(dataclasses.fields(cls), values)}
        assert cls(**kwargs) == record

    def test_signature_and_fields(self, cls):
        twin = twin_of(cls)
        # Parameter names, kinds and defaults; the annotations are not copied.
        assert [
            (p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()
        ] == [(p.name, p.kind, p.default) for p in inspect.signature(twin).parameters.values()]
        assert [(f.name, f.default) for f in dataclasses.fields(cls)] == [
            (f.name, f.default) for f in dataclasses.fields(twin)
        ]
        assert cls.__init__.__code__.co_filename == f"<record {cls.__qualname__}>"

    def test_replace(self, cls):
        twin = twin_of(cls)
        values = values_for(cls)
        last = dataclasses.fields(cls)[-1].name
        replaced = dataclasses.replace(cls(*values), **{last: "new"})
        assert type(replaced) is cls
        assert repr(replaced) == repr(dataclasses.replace(twin(*values), **{last: "new"}))

    def test_pickle_round_trip(self, cls):
        record = cls(*values_for(cls))
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert type(copy) is cls and copy == record


def test_defaults_are_the_declared_ones():
    @frozen_record
    class Record:
        a: int
        b: object = None
        c: tuple = ()

    assert Record(1) == Record(1, None, ())
    assert Record(1, c=(2,)).c == (2,)
    with pytest.raises(TypeError):
        Record()
    with pytest.raises(TypeError):
        Record(1, d=2)


def test_a_record_without_fields():
    @frozen_record
    class Empty:
        pass

    assert Empty() == Empty() and repr(Empty()) == "test_a_record_without_fields.<locals>.Empty()"


def _post_init():
    class Record:
        a: int

        def __post_init__(self):
            pass

    return Record


def _init_var():
    class Record:
        a: int
        b: dataclasses.InitVar[int]

    return Record


def _class_var():
    class Record:
        a: int
        b: ClassVar[int] = 1

    return Record


def _default_factory():
    class Record:
        a: list = dataclasses.field(default_factory=list)

    return Record


def _not_in_init():
    class Record:
        a: int = dataclasses.field(default=0, init=False)

    return Record


def _keyword_only():
    class Record:
        a: int = dataclasses.field(kw_only=True)

    return Record


@pytest.mark.parametrize(
    "declare",
    [_post_init, _init_var, _class_var, _default_factory, _not_in_init, _keyword_only],
    ids=lambda declare: declare.__name__.strip("_"),
)
def test_anything_but_plain_fields_is_refused_at_decoration(declare):
    with pytest.raises(TypeError, match="not a plain frozen record"):
        frozen_record(declare())
