"""Length-prefixed framing: split reads, coalesced reads, bad lengths."""

import pytest

from repro.errors import NetworkError
from repro.live.transport import FrameDecoder, encode_frame, hello_frame, parse_hello


class TestFrameDecoder:
    def test_one_frame_one_read(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"hello")) == [b"hello"]
        assert decoder.pending_bytes == 0

    def test_empty_body(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"")) == [b""]

    def test_byte_by_byte_split(self):
        decoder = FrameDecoder()
        stream = encode_frame(b"split across many reads")
        frames = []
        for i in range(len(stream)):
            frames.extend(decoder.feed(stream[i : i + 1]))
        assert frames == [b"split across many reads"]
        assert decoder.pending_bytes == 0

    def test_coalesced_frames_in_one_read(self):
        decoder = FrameDecoder()
        bodies = [b"a", b"bb", b"", b"dddd"]
        stream = b"".join(encode_frame(body) for body in bodies)
        assert decoder.feed(stream) == bodies

    def test_coalesced_plus_partial_tail(self):
        decoder = FrameDecoder()
        stream = encode_frame(b"whole") + encode_frame(b"partial")[:3]
        assert decoder.feed(stream) == [b"whole"]
        assert decoder.pending_bytes == 3
        assert decoder.feed(encode_frame(b"partial")[3:]) == [b"partial"]

    def test_twelve_frames_and_a_half_in_one_read(self):
        decoder = FrameDecoder()
        bodies = [f"frame-{i}".encode() * (i + 1) for i in range(13)]
        stream = b"".join(encode_frame(body) for body in bodies)
        half = len(stream) - (4 + len(bodies[-1])) // 2
        assert decoder.feed(stream[:half]) == bodies[:12]
        assert decoder.pending_bytes == half - sum(4 + len(b) for b in bodies[:12])
        assert decoder.feed(stream[half:]) == bodies[12:]
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_any_bytes_like_is_accepted_and_frames_are_bytes(self, kind):
        decoder = FrameDecoder()
        stream = encode_frame(b"first") + encode_frame(b"second")
        source = bytearray(stream)
        view = memoryview(source)
        frames = decoder.feed(kind(view[:7]))
        # The caller may reuse its buffer at once: what is pending, and
        # every frame handed out, is a copy.
        source[:7] = bytes(7)
        frames += decoder.feed(kind(view[7:]))
        source[7:] = bytes(len(source) - 7)
        assert frames == [b"first", b"second"]
        assert all(type(frame) is bytes for frame in frames)

    def test_interleaving_preserves_order(self):
        decoder = FrameDecoder()
        bodies = [f"frame-{i}".encode() for i in range(50)]
        stream = b"".join(encode_frame(body) for body in bodies)
        out = []
        for start in range(0, len(stream), 7):
            out.extend(decoder.feed(stream[start : start + 7]))
        assert out == bodies

    def test_oversize_length_rejected(self):
        decoder = FrameDecoder(max_frame=16)
        with pytest.raises(NetworkError):
            decoder.feed(encode_frame(b"x" * 17))

    def test_oversize_encode_rejected(self):
        import repro.live.transport as transport

        body = b"x" * (transport.MAX_FRAME_SIZE + 1)
        with pytest.raises(NetworkError):
            encode_frame(body)


class TestHello:
    def test_roundtrip(self):
        assert parse_hello(hello_frame(5)) == (5, 0)

    def test_roundtrip_with_incarnation_nonce(self):
        assert parse_hello(hello_frame(5, 12345)) == (5, 12345)

    def test_garbage_rejected(self):
        with pytest.raises(NetworkError):
            parse_hello(b"\xff\xfe not json")

    def test_missing_pid_rejected(self):
        with pytest.raises(NetworkError):
            parse_hello(b'{"v": 1}')

    def test_wrong_version_rejected(self):
        with pytest.raises(NetworkError):
            parse_hello(b'{"v": 999, "hello": 1}')
