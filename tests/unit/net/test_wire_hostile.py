"""Hostile input to everything that parses wire bytes.

Whatever arrives on a socket, the codec and the frame parser either
produce a value or raise :class:`NetworkError` — the one exception the
transport turns into "close this connection". The fuzz also pins the
two properties the encode-once fast path rests on: round-trips hold,
and the text encoder writes exactly what dumping the structural
encoding would.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.messages import Ack, DecisionTag, Proposal
from repro.errors import NetworkError
from repro.live.transport import FrameDecoder, encode_frame
from repro.net.message import NetMessage, decode_message, encode_message
from repro.net import wire
from repro.net.wire import (
    WIRE_FORMAT_VERSION,
    decode_value,
    encode_text,
    encode_value,
)
from repro.types import AppMessage, Batch, MessageId
from tests.harness import envelope, frame_of

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),
    st.binary(max_size=8),
)
message_ids = st.builds(
    MessageId, st.integers(0, 10**6), st.integers(0, 10**9)
)
app_messages = st.builds(
    AppMessage,
    message_ids,
    st.integers(0, 10**6),
    st.floats(0, 1e6),
    st.one_of(st.none(), st.binary(max_size=8), st.text(max_size=8)),
)
batches = st.builds(
    Batch, st.integers(0, 10**6), st.lists(app_messages, max_size=4).map(tuple)
)
payloads = st.recursive(
    st.one_of(
        scalars,
        message_ids,
        batches,
        st.builds(Ack, st.integers(0, 99), st.integers(0, 9)),
        st.builds(Proposal, st.integers(0, 99), st.integers(0, 9), batches),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.frozensets(st.one_of(st.integers(), st.text(max_size=3)), max_size=3),
        st.dictionaries(
            st.one_of(st.integers(), st.text(max_size=3), message_ids),
            children,
            max_size=3,
        ),
    ),
    max_leaves=8,
)
net_messages = st.builds(
    NetMessage,
    kind=st.text(max_size=12),
    module=st.text(max_size=12),
    src=st.integers(0, 4),
    dst=st.integers(5, 9),
    payload=payloads,
    payload_size=st.integers(0, 10**6),
    header_size=st.integers(0, 200),
    uid=st.integers(0, 10**9),
)


def proposal_message() -> NetMessage:
    value = Batch(
        instance=7,
        messages=(
            AppMessage(MessageId(0, 3), 1024, 1.25),
            AppMessage(MessageId(2, 11), 1024, 1.5, payload=b"\x00\xff"),
        ),
    )
    return NetMessage(
        kind="PROPOSAL",
        module="consensus",
        src=0,
        dst=1,
        payload=Proposal(instance=7, round=1, value=value),
        payload_size=2072,
        header_size=74,
        uid=42,
    )


#: ``encode_message(proposal_message())``, written by hand from the
#: layout in PROTOCOLS.md ("Wire format"): the envelope array, the
#: payload's records as ``[tag, fields...]`` in field order.
GOLDEN_PROPOSAL = (
    b'[2,"PROPOSAL","consensus",0,1,'
    b'["Proposal",7,1,["Batch",7,["tuple",'
    b'["AppMessage",["MessageId",0,3],1024,1.25,null],'
    b'["AppMessage",["MessageId",2,11],1024,1.5,["bytes","00ff"]]]]],'
    b"2072,74,42]"
)

#: A message of containers and awkward strings, same provenance: a dict
#: is its pairs, a frozenset its items sorted by their JSON text.
GOLDEN_CONTAINERS = (
    b'[2,"x","abcast",0,1,'
    b'["dict",["k",["tuple",1,["list",2.5,null,true],["frozenset","a",3]]],'
    b'[["tuple","t",1],"\\u00e9\\"\\\\"]],'
    b"1,1,1]"
)


class TestGoldenBytes:
    def test_wire_format_version_is_still_one(self):
        # The name predates version 2, the positional format.
        assert WIRE_FORMAT_VERSION == 2

    def test_proposal_carrying_a_batch(self):
        assert encode_message(proposal_message()) == GOLDEN_PROPOSAL

    def test_spliced_payload_text_gives_the_same_bytes(self):
        message = proposal_message()
        text = encode_text(message.payload)
        assert encode_message(message, text) == GOLDEN_PROPOSAL

    def test_containers_and_escapes(self):
        message = NetMessage(
            kind="x",
            module="abcast",
            src=0,
            dst=1,
            payload={
                "k": (1, [2.5, None, True], frozenset({3, "a"})),
                ("t", 1): 'é"\\',
            },
            payload_size=1,
            header_size=1,
            uid=1,
        )
        assert encode_message(message) == GOLDEN_CONTAINERS


class TestRoundtripProperties:
    @given(payloads)
    def test_value_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    @given(payloads)
    def test_text_encoder_matches_the_structural_one(self, value):
        reference = json.dumps(encode_value(value), separators=(",", ":"))
        assert encode_text(value) == reference

    @given(st.floats())
    def test_non_finite_floats_take_the_reference_spelling(self, value):
        assert encode_text(value) == json.dumps(value)

    @given(net_messages)
    def test_message_roundtrip(self, message):
        assert decode_message(encode_message(message)) == message

    @given(net_messages)
    def test_envelope_matches_a_dumped_array(self, message):
        document = [
            WIRE_FORMAT_VERSION,
            message.kind,
            message.module,
            message.src,
            message.dst,
            encode_value(message.payload),
            message.payload_size,
            message.header_size,
            message.uid,
        ]
        reference = json.dumps(document, separators=(",", ":")).encode("utf-8")
        assert encode_message(message) == reference
        assert envelope(encode_message(message))["payload"] == document[5]


def document(**overrides) -> bytes:
    fields = envelope(encode_message(proposal_message()))
    fields.update(overrides)
    return frame_of(fields)


#: Each registered record with one field too many and one too few.
def arity_mismatches():
    wire._ensure_payloads()
    for tag, cls in sorted(wire._BY_TAG.items()):
        arity = len(cls._fields) if issubclass(cls, tuple) else len(dataclasses.fields(cls))
        for fields in ([0] * (arity + 1), [0] * (arity - 1)):
            yield pytest.param([tag, *fields], id=f"{tag}-{len(fields)}-of-{arity}")


class TestMalformedFrames:
    @pytest.mark.parametrize(
        "frame",
        [
            document(payload=["bytes", "zz"]),
            document(payload=["bytes", 5]),
            document(payload=["bytes"]),
            document(payload_size="x"),
            document(header_size=None),
            document(payload=["dict", [["list"], 1]]),
            document(payload=["dict", [1, 2, 3]]),
            document(payload=["dict", 5]),
            document(payload=["frozenset", ["list"]]),
            document(payload=[]),
            document(payload=[["unhashable"]]),
            document(payload=["Ack", [1, 2]]),
            document(payload=["Ack", 1]),
            document(payload=["Ack", 1, 2, 3]),
            document(payload=["MessageId", 1]),
            document(payload=["no tag"]),
            document(payload={"$t": "Ack", "f": {"instance": 1, "round": 2}}),
            document(payload=["Ack", {"n": 1}, 2]),
            document(payload=["tuple", 1, {}]),
            document(payload=["dict", [{}, 1]]),
            document(src=3, dst=3),
            document(v=[WIRE_FORMAT_VERSION]),
            document(v=1),
            json.dumps(dict(envelope(GOLDEN_PROPOSAL))).encode(),
            GOLDEN_PROPOSAL + b" ",
            b" " + GOLDEN_PROPOSAL,
            GOLDEN_PROPOSAL + b"[]",
            b"[" * 100_000,
            b'[2,"k","m",0,1,' + b'["list",' * 20_000,
            b"\xff\xfe",
            b"",
        ],
    )
    def test_only_network_error_escapes(self, frame):
        with pytest.raises(NetworkError):
            decode_message(frame)

    @pytest.mark.parametrize("record", arity_mismatches())
    def test_a_record_of_the_wrong_arity_is_refused(self, record):
        with pytest.raises(NetworkError, match="malformed wire value"):
            decode_message(document(payload=record))

    @pytest.mark.parametrize("field", ["kind", "module", "src", "dst", "payload", "uid"])
    def test_an_object_in_an_envelope_field_is_refused(self, field):
        with pytest.raises(NetworkError):
            decode_message(document(**{field: {"n": 1}}))

    @pytest.mark.parametrize("depth", [300, 440, 470, 499, 2000])
    def test_well_formed_deep_nesting_decodes_or_is_refused(self, depth):
        # Around the interpreter's recursion limit either the JSON
        # parser or the value decoder gives up first, depending on how
        # deep the caller's own stack is; neither may leak.
        nested = b'["list",' * depth + b"1" + b"]" * depth
        frame = b'[2,"k","m",0,1,' + nested + b",1,1,1]"
        try:
            decode_message(frame)
        except NetworkError:
            pass

    def test_decode_value_alone_is_as_strict(self):
        for encoded in (["bytes", "zz"], ["Ack", 5], {"$t": "Ack"}, [], object()):
            with pytest.raises(NetworkError):
                decode_value(encoded)


class TestEnvelopeChecks:
    """What NetMessage's own ``__init__`` does with what the wire hands it.

    The constructor is written out by hand (one frame per message), so
    these pin the behaviour of the generated one it replaced.
    """

    def test_a_null_uid_is_kept_not_drawn(self):
        assert decode_message(document(uid=None)).uid is None

    def test_a_missing_uid_is_refused(self):
        fields = envelope(document())
        del fields["uid"]
        with pytest.raises(NetworkError, match="missing field 'uid'"):
            decode_message(frame_of(fields))

    @pytest.mark.parametrize("field", ["payload_size", "header_size"])
    @pytest.mark.parametrize(
        "value", ["12", None, [12], {"n": 12}, 1.5, 12.0, True, float("inf")]
    )
    def test_sizes_that_are_not_integers_are_refused(self, field, value):
        with pytest.raises(NetworkError, match="is not an int"):
            decode_message(document(**{field: value}))

    @pytest.mark.parametrize("field", ["src", "dst"])
    @pytest.mark.parametrize("value", ["x", "1", None, True, False, 1.0, [1], {"n": 1}])
    def test_endpoints_that_are_not_integers_are_refused(self, field, value):
        with pytest.raises(NetworkError, match=f"{field} .* is not an int"):
            decode_message(document(**{field: value}))

    @pytest.mark.parametrize("value", ["42", True, 42.0, 4.2, [42], {"n": 42}])
    def test_a_uid_that_is_neither_an_int_nor_null_is_refused(self, value):
        with pytest.raises(NetworkError, match="uid .* is not an int"):
            decode_message(document(uid=value))

    @pytest.mark.parametrize("field", ["kind", "module"])
    @pytest.mark.parametrize("value", [None, 1, True, ["PROPOSAL"]])
    def test_names_that_are_not_strings_are_refused(self, field, value):
        with pytest.raises(NetworkError, match=f"{field} .* is not a str"):
            decode_message(document(**{field: value}))

    @pytest.mark.parametrize("field", ["payload_size", "header_size"])
    def test_negative_sizes_are_refused(self, field):
        with pytest.raises(NetworkError, match="negative"):
            decode_message(document(**{field: -1}))

    def test_decoded_fields_and_wire_size(self):
        message = decode_message(GOLDEN_PROPOSAL)
        assert message == proposal_message()
        assert message.wire_size == 2072 + 74

    def test_a_local_message_draws_the_next_uid(self):
        first = NetMessage("k", "m", 0, 1, None, 1, 1)
        second = NetMessage("k", "m", 0, 1, None, 1, 1)
        assert second.uid == first.uid + 1
        assert first != second and repr(first).endswith(f"uid={first.uid})")

    def test_replace_keeps_the_uid_and_recomputes_the_size(self):
        message = proposal_message()
        bigger = dataclasses.replace(message, payload_size=3000)
        assert (bigger.uid, bigger.wire_size) == (42, 3074)


class TestFuzz:
    @given(st.binary(max_size=400))
    def test_arbitrary_bytes_into_decode_message(self, data):
        try:
            decode_message(data)
        except NetworkError:
            pass

    @settings(max_examples=300)
    @given(
        st.sampled_from([GOLDEN_PROPOSAL, GOLDEN_CONTAINERS]),
        st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    )
    def test_mutated_valid_frames(self, golden, edits, truncate):
        data = bytearray(golden)
        for position, byte in edits:
            data[position % len(data)] = byte
        if truncate:
            del data[edits[0][0] % len(data) :]
        try:
            decode_message(bytes(data))
        except NetworkError:
            pass

    @given(st.lists(st.binary(max_size=64), max_size=8))
    def test_arbitrary_bytes_into_the_frame_decoder(self, chunks):
        decoder = FrameDecoder(max_frame=256)
        try:
            for chunk in chunks:
                for frame in decoder.feed(chunk):
                    assert len(frame) <= 256
        except NetworkError:
            pass

    @given(
        st.lists(st.binary(max_size=40), max_size=6),
        st.integers(0, 300),
        st.integers(0, 255),
        st.integers(1, 17),
    )
    def test_mutated_frame_stream_never_yields_oversized_frames(
        self, bodies, position, byte, step
    ):
        stream = bytearray(b"".join(encode_frame(body) for body in bodies))
        if stream:
            stream[position % len(stream)] = byte
        decoder = FrameDecoder(max_frame=64)
        try:
            for start in range(0, len(stream), step):
                for frame in decoder.feed(bytes(stream[start : start + step])):
                    assert len(frame) <= 64
        except NetworkError:
            pass

    @given(
        st.lists(st.binary(max_size=40), max_size=8),
        st.binary(max_size=6),
        st.lists(st.integers(1, 23), min_size=1, max_size=12),
        st.sampled_from([bytes, bytearray, memoryview]),
    )
    def test_chunked_bytes_like_feeds_equal_the_one_shot_parse(
        self, bodies, torn_tail, cuts, kind
    ):
        # The tail is cut from a frame with a 41-byte body: a valid prefix
        # plus at most two body bytes, so it never completes.
        stream = b"".join(encode_frame(body) for body in bodies) + (
            encode_frame(b"t" * 41)[: len(torn_tail)]
        )
        one_shot = FrameDecoder()
        assert one_shot.feed(stream) == bodies
        assert one_shot.pending_bytes == len(torn_tail)

        decoder = FrameDecoder()
        frames, start, fed = [], 0, 0
        for step in cuts * (len(stream) // len(cuts) + 1):
            if start >= len(stream):
                break
            chunk = stream[start : start + step]
            start += step
            completed = decoder.feed(kind(chunk))
            frames.extend(completed)
            fed += len(chunk)
            # Exact after every compaction: all that was fed, minus every
            # frame handed out with its prefix.
            assert decoder.pending_bytes == fed - sum(4 + len(f) for f in frames)
        assert frames == bodies
        assert all(type(frame) is bytes for frame in frames)
        assert decoder.pending_bytes == len(torn_tail)
