"""Hostile input for the one reader of every document that crosses a
process boundary.

``repro.config.read_fields`` builds faultloads and nemesis replay cases
from user files, and a live worker's spec and every control message
from the other side of a pipe or socket. Whatever JSON it is handed, it
returns an instance of the type asked for or raises
``ConfigurationError`` naming the culprit — never anything else.
"""

import asyncio
import enum
import json
from dataclasses import is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    CrashEvent,
    DelaySpike,
    FaultloadConfig,
    LinkFaultMode,
    LossBurst,
    PartitionEvent,
    WrongSuspicion,
    plain,
    read_fields,
)
from repro.errors import ConfigurationError
from repro.live.deploy import (
    CONTROL_TYPES,
    Done,
    Fault,
    LinkVerb,
    LiveSpec,
    Ready,
    Recovered,
    Samples,
    Start,
    Stop,
    Telemetry,
    WorkerSpec,
    control_documents,
    worker_spec,
)
from repro.live.transport import encode_frame
from repro.nemesis.swarm import NemesisCase

#: Every type read_fields builds from a whole document.
ROOTS = [FaultloadConfig, NemesisCase, WorkerSpec, *CONTROL_TYPES.values()]

#: Any JSON value, integers unbounded and floats non-finite included.
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def mostly(shape, *rarely):
    """Draws of *shape*, and about one in eight of *rarely*."""
    return st.integers(0, 7).flatmap(lambda k: st.one_of(*rarely) if k == 0 else shape)


def shaped(hint):
    """JSON shaped like the declared type *hint* — all the way down, or
    with any JSON value, or keys missing, standing in at some level."""
    origin, args = get_origin(hint) or hint, get_args(hint)
    if is_dataclass(hint):
        fields = {name: shaped(h) for name, h in get_type_hints(hint).items()}
        partial = st.fixed_dictionaries({}, optional=fields)
        return mostly(st.fixed_dictionaries(fields), partial, JSON)
    if origin is UnionType:
        shape = st.none() | shaped(args[0])
    elif origin is tuple and args[1:] != (...,):
        shape = st.tuples(*map(shaped, args)).map(list)
    elif origin in (tuple, list):
        shape = st.lists(shaped(args[0]) if args else JSON, max_size=4)
    elif origin is dict:
        keys = st.integers().map(str) if args[0] is int else st.text(max_size=8)
        shape = st.dictionaries(keys, shaped(args[1]), max_size=4)
    elif isinstance(hint, type) and issubclass(hint, enum.Enum):
        shape = st.sampled_from([member.value for member in hint])
    else:
        shape = {
            bool: st.booleans(),
            int: st.integers(),
            float: st.floats() | st.integers(),
            str: st.text(max_size=8),
        }[hint]
    return mostly(shape, JSON)


SHAPES = {root: shaped(root) for root in ROOTS}


@pytest.mark.parametrize("root", ROOTS, ids=lambda root: root.__name__)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_the_reader_builds_the_root_or_refuses(root, data):
    document = data.draw(SHAPES[root])
    try:
        value = read_fields(root, document)
    except ConfigurationError:
        return
    assert isinstance(value, root)


FAULTLOAD = FaultloadConfig(
    crashes=(CrashEvent(time=0.5, process=1),),
    partitions=(
        PartitionEvent(0.1, 0.2, ((0,), (1, 2)), mode=LinkFaultMode.DROP),
    ),
    loss_bursts=(LossBurst(start=0.1, end=0.2, probability=0.5, src=0),),
    delay_spikes=(DelaySpike(start=0.1, end=0.2, extra_delay=0.01, jitter=0.002),),
    wrong_suspicions=(WrongSuspicion(time=0.3, observer=1, suspect=0),),
)

#: One valid document of each root, with every optional part present.
VALID = [
    FAULTLOAD,
    NemesisCase("modular", seed=7, n=3, fd="heartbeat", faultload=FAULTLOAD),
    worker_spec(
        LiveSpec(senders=(0, 2), max_batch=None, wal_dir="wal", clients=3000),
        1,
        {pid: ("127.0.0.1", 5000 + pid) for pid in range(3)},
        6000,
        recover=True,
    ),
    Ready(1),
    Start(12.5),
    Fault(LinkVerb.DELAY, True, (0, 2), extra=0.01, jitter=0.002),
    Samples(0, [(0, 1, 64, 0.25)], [(0, 1, 0.5), (2, 0, 0.75)], 3),
    Telemetry(2, 3, 12, True, 1, 0, 17),
    Stop(),
    Recovered(2),
    Done(
        0, {"messages_sent": 10}, 0.5, 1, 9, 2, 0, True, 0, 0, 40,
        [(0.125, "span.recv", 0, ["consensus", 0.001, "PROPOSE"])], 0,
    ),
]


def test_every_root_has_a_valid_document():
    assert [type(document) for document in VALID] == ROOTS


@pytest.mark.parametrize("document", VALID, ids=lambda d: type(d).__name__)
def test_a_document_reads_back_as_itself(document):
    text = json.dumps(plain(document))
    assert read_fields(type(document), json.loads(text)) == document


def channel(*bodies):
    """The documents ``control_documents`` reads from frames of *bodies*."""

    async def read():
        reader = asyncio.StreamReader()
        for body in bodies:
            reader.feed_data(encode_frame(json.dumps(body).encode("utf-8")))
        reader.feed_eof()
        return [document async for document in control_documents(reader)]

    return asyncio.run(read())


def test_the_channel_carries_every_control_document():
    documents = VALID[3:]
    bodies = [
        {"type": type(document).__name__.lower(), **plain(document)}
        for document in documents
    ]
    assert channel(*bodies) == documents


@pytest.mark.parametrize(
    "body, named",
    [
        ({"type": "hello", "pid": 0}, "'hello'"),
        ({"pid": 0}, "None"),
        ({"type": "ready", "pid": 0, "t": 1.0}, "'t'"),
        ({"type": "recovered"}, "'pid'"),
        ({"type": "start", "epoch": "soon"}, "'start.epoch'"),
        ({"type": "fault", "verb": "explode", "on": True, "peers": [1]}, "'fault.verb'"),
        (
            {"type": "samples", "pid": 0, "accepts": [[0, 1, 64, None]],
             "delivers": [], "offered": 1},
            "'samples.accepts[0][3]'",
        ),
        (
            {"type": "samples", "pid": 0, "accepts": [],
             "delivers": [[0, 1]], "offered": 1},
            "'samples.delivers[0]'",
        ),
    ],
)
def test_the_channel_refuses_a_malformed_document_by_name(body, named):
    with pytest.raises(ConfigurationError) as refused:
        channel(body)
    assert named in str(refused.value)


def test_an_unknown_fault_verb_is_refused_naming_the_choices():
    with pytest.raises(ConfigurationError, match="hold, drop, delay"):
        channel({"type": "fault", "verb": "explode", "on": True, "peers": [1]})
