"""Versioned wire codec: round-trips and rejection of bad input."""

import json

import pytest

from repro.abcast.messages import AckWithDiffusion, CombinedProposal
from repro.broadcast.reliable import RbMessage
from repro.consensus.messages import Ack, DecisionTag, DecisionValue, Estimate, Proposal
from repro.errors import NetworkError
from repro.net.message import NetMessage, decode_message, encode_message
from repro.net.wire import (
    WIRE_FORMAT_VERSION,
    check_version,
    decode_value,
    encode_value,
    wire_payload,
)
from repro.types import AppMessage, Batch, MessageId
from tests.harness import envelope, frame_of


def roundtrip(value):
    encoded = encode_value(value)
    json.dumps(encoded)  # must be JSON-representable
    return decode_value(encoded)


def batch(instance=0, *messages):
    return Batch(instance=instance, messages=tuple(messages))


class TestValueRoundtrip:
    def test_scalars(self):
        for value in (None, True, 0, -7, 3.25, "text", ""):
            assert roundtrip(value) == value

    def test_bytes(self):
        assert roundtrip(b"\x00\xffpayload") == b"\x00\xffpayload"

    def test_containers(self):
        value = {"a": (1, 2), "b": [frozenset({3, 4}), {"nested": "dict"}]}
        result = roundtrip(value)
        assert result == value
        assert isinstance(result["a"], tuple)
        assert isinstance(result["b"][0], frozenset)

    def test_non_string_dict_keys(self):
        value = {MessageId(1, 2): 3.5, 7: "seven"}
        assert roundtrip(value) == value

    def test_app_message_batch(self):
        value = batch(
            4,
            AppMessage(MessageId(0, 1), size=100, abcast_time=0.25),
            AppMessage(MessageId(2, 0), size=0, abcast_time=1.5),
        )
        assert roundtrip(value) == value

    def test_nested_protocol_payloads(self):
        proposal = CombinedProposal(
            proposal=Proposal(
                instance=3,
                round=1,
                value=batch(3, AppMessage(MessageId(1, 4), 10, 0.0)),
            ),
            decided=DecisionTag(instance=2, round=1),
        )
        assert roundtrip(proposal) == proposal

    def test_ack_with_diffusion(self):
        value = AckWithDiffusion(
            ack=Ack(instance=5, round=2),
            messages=(AppMessage(MessageId(0, 0), 8, 0.125),),
        )
        assert roundtrip(value) == value

    def test_rb_wrapped_decision(self):
        message = RbMessage(
            origin=1, seq=9, inner=DecisionTag(instance=5, round=2), inner_size=12
        )
        assert roundtrip(message) == message

    def test_unregistered_dataclass_rejected(self):
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class NotRegistered:
            x: int

        with pytest.raises(NetworkError):
            encode_value(NotRegistered(1))

    def test_unknown_tag_rejected(self):
        with pytest.raises(NetworkError):
            decode_value(["NoSuchTag"])

    def test_wire_payload_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            wire_payload(type("Plain", (), {}))


class TestVersion:
    def test_current_version_accepted(self):
        check_version(WIRE_FORMAT_VERSION)

    def test_other_versions_rejected(self):
        for bad in (0, WIRE_FORMAT_VERSION + 1, None, "1"):
            with pytest.raises(NetworkError):
                check_version(bad)


class TestMessageRoundtrip:
    def message(self, payload=None):
        if payload is None:
            payload = Estimate(instance=1, round=2, value=batch(1), ts=0)
        return NetMessage(
            kind="estimate",
            module="consensus",
            src=0,
            dst=2,
            payload=payload,
            payload_size=64,
            header_size=12,
        )

    def test_roundtrip(self):
        message = self.message()
        decoded = decode_message(encode_message(message))
        assert decoded.kind == message.kind
        assert decoded.module == message.module
        assert decoded.src == message.src
        assert decoded.dst == message.dst
        assert decoded.payload == message.payload
        assert decoded.payload_size == message.payload_size
        assert decoded.header_size == message.header_size

    def test_roundtrip_decision_value(self):
        message = self.message(DecisionValue(instance=7, value=batch(7)))
        assert decode_message(encode_message(message)).payload == message.payload

    def test_malformed_json_rejected(self):
        with pytest.raises(NetworkError):
            decode_message(b"{not json")

    def test_non_envelope_rejected(self):
        for frame in (b"[1, 2, 3]", b'{"v": 2}', b"2"):
            with pytest.raises(NetworkError):
                decode_message(frame)

    def test_wrong_version_rejected(self):
        doc = envelope(encode_message(self.message()))
        doc["v"] = WIRE_FORMAT_VERSION + 1
        with pytest.raises(NetworkError):
            decode_message(frame_of(doc))

    def test_missing_field_rejected(self):
        doc = envelope(encode_message(self.message()))
        del doc["module"]
        with pytest.raises(NetworkError):
            decode_message(frame_of(doc))

    def test_no_pickle_on_the_wire(self):
        encoded = encode_message(self.message())
        json.loads(encoded.decode("utf-8"))  # plain JSON text, not pickle
