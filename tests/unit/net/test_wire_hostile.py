"""Hostile input to everything that parses wire bytes.

Whatever arrives on a socket, the codec and the frame parser either
produce a value or raise :class:`NetworkError` — the one exception the
transport turns into "close this connection". The fuzz also pins the
two properties the encode-once fast path rests on: round-trips hold,
and the text encoder writes exactly what dumping the structural
encoding would.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.messages import Ack, DecisionTag, Proposal
from repro.errors import NetworkError
from repro.live.transport import FrameDecoder, encode_frame
from repro.net.message import NetMessage, decode_message, encode_message
from repro.net.wire import (
    WIRE_FORMAT_VERSION,
    decode_value,
    encode_text,
    encode_value,
)
from repro.types import AppMessage, Batch, MessageId

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


#: ``encode_message(proposal_message())`` as produced by the
#: dict-and-``json.dumps`` encoder this one replaced.
GOLDEN_PROPOSAL = (
    b'{"v":1,"kind":"PROPOSAL","module":"consensus","src":0,"dst":1,'
    b'"payload":{"$t":"Proposal","f":{"instance":7,"round":1,"value":'
    b'{"$t":"Batch","f":{"instance":7,"messages":{"$t":"tuple","items":['
    b'{"$t":"AppMessage","f":{"msg_id":{"$t":"MessageId","f":{"sender":0,'
    b'"seq":3}},"size":1024,"abcast_time":1.25,"payload":null}},'
    b'{"$t":"AppMessage","f":{"msg_id":{"$t":"MessageId","f":{"sender":2,'
    b'"seq":11}},"size":1024,"abcast_time":1.5,"payload":{"$t":"bytes",'
    b'"hex":"00ff"}}}]}}}}},"payload_size":2072,"header_size":74,"uid":42}'
)

#: A message of containers and awkward strings, same provenance.
GOLDEN_CONTAINERS = (
    b'{"v":1,"kind":"x","module":"abcast","src":0,"dst":1,"payload":'
    b'{"$t":"dict","items":[["k",{"$t":"tuple","items":[1,{"$t":"list",'
    b'"items":[2.5,null,true]},{"$t":"frozenset","items":["a",3]}]}],'
    b'[{"$t":"tuple","items":["t",1]},"\\u00e9\\"\\\\"]]},'
    b'"payload_size":1,"header_size":1,"uid":1}'
)


class TestGoldenBytes:
    def test_wire_format_version_is_still_one(self):
        assert WIRE_FORMAT_VERSION == 1

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
    def test_envelope_matches_a_dumped_dict(self, message):
        document = {
            "v": WIRE_FORMAT_VERSION,
            "kind": message.kind,
            "module": message.module,
            "src": message.src,
            "dst": message.dst,
            "payload": encode_value(message.payload),
            "payload_size": message.payload_size,
            "header_size": message.header_size,
            "uid": message.uid,
        }
        reference = json.dumps(document, separators=(",", ":")).encode("utf-8")
        assert encode_message(message) == reference


def document(**overrides) -> bytes:
    fields = json.loads(encode_message(proposal_message()))
    fields.update(overrides)
    return json.dumps(fields).encode("utf-8")


class TestMalformedFrames:
    @pytest.mark.parametrize(
        "frame",
        [
            document(payload={"$t": "bytes", "hex": "zz"}),
            document(payload={"$t": "bytes", "hex": 5}),
            document(payload={"$t": "bytes"}),
            document(payload_size="x"),
            document(header_size=None),
            document(payload={"$t": "dict", "items": [[{"$t": "list", "items": []}, 1]]}),
            document(payload={"$t": "dict", "items": [[1, 2, 3]]}),
            document(payload={"$t": "dict", "items": 5}),
            document(payload={"$t": "frozenset", "items": [{"$t": "list", "items": []}]}),
            document(payload={"$t": "tuple"}),
            document(payload={"$t": ["unhashable"]}),
            document(payload={"$t": "Ack", "f": [1, 2]}),
            document(payload={"$t": "Ack", "f": {"instance": 1}}),
            document(payload={"$t": "Ack", "f": {"instance": 1, "round": 2, "x": 3}}),
            document(payload={"$t": "MessageId", "f": {"sender": 1}}),
            document(payload={"no": "tag"}),
            document(src=3, dst=3),
            document(v=[WIRE_FORMAT_VERSION]),
            b"[" * 100_000,
            b'{"v":1,"payload":' + b'{"$t":"list","items":[' * 20_000,
            b"\xff\xfe",
            b"",
        ],
    )
    def test_only_network_error_escapes(self, frame):
        with pytest.raises(NetworkError):
            decode_message(frame)

    @pytest.mark.parametrize("depth", [300, 440, 470, 499, 2000])
    def test_well_formed_deep_nesting_decodes_or_is_refused(self, depth):
        # Around the interpreter's recursion limit either the JSON
        # parser or the value decoder gives up first, depending on how
        # deep the caller's own stack is; neither may leak.
        nested = b'{"$t":"list","items":[' * depth + b"]}" * depth
        frame = (
            b'{"v":1,"kind":"k","module":"m","src":0,"dst":1,"payload":'
            + nested
            + b',"payload_size":1,"header_size":1,"uid":1}'
        )
        try:
            decode_message(frame)
        except NetworkError:
            pass

    def test_decode_value_alone_is_as_strict(self):
        for encoded in ({"$t": "bytes", "hex": "zz"}, {"$t": "Ack", "f": 5}, object()):
            with pytest.raises(NetworkError):
                decode_value(encoded)


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
