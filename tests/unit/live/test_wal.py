"""Write-ahead delivery log: framing, torn tails, recovered state."""

import json
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import DeploymentError
from repro.live.faults import check_merged_logs
from repro.live.wal import (
    WalState,
    WalWriter,
    decode_records,
    encode_record,
    load_wal_state,
    read_wal,
    recover_wal,
)


def deliver(s, q, i=0, at=0.0):
    return {"t": "deliver", "s": s, "q": q, "at": at, "i": i}


def accept(s, q, at=0.0):
    return {"t": "accept", "s": s, "q": q, "at": at}


class TestFraming:
    def test_roundtrip_many_records(self):
        records = [deliver(0, q, i=q + 1) for q in range(20)]
        blob = b"".join(encode_record(r) for r in records)
        parsed, valid = decode_records(blob)
        assert parsed == records
        assert valid == len(blob)

    def test_empty_buffer(self):
        assert decode_records(b"") == ([], 0)

    def test_partial_header_is_a_torn_tail(self):
        blob = encode_record(deliver(0, 1)) + b"\x00\x00"
        parsed, valid = decode_records(blob)
        assert parsed == [deliver(0, 1)]
        assert valid == len(blob) - 2

    def test_partial_body_is_a_torn_tail(self):
        whole = encode_record(deliver(0, 1))
        torn = encode_record(deliver(0, 2))[:-3]
        parsed, valid = decode_records(whole + torn)
        assert parsed == [deliver(0, 1)]
        assert valid == len(whole)

    def test_corrupt_crc_stops_the_scan(self):
        first = encode_record(deliver(0, 1))
        second = bytearray(encode_record(deliver(0, 2)))
        second[-1] ^= 0xFF  # flip a body byte; CRC no longer matches
        after = encode_record(deliver(0, 3))
        parsed, valid = decode_records(first + bytes(second) + after)
        # Everything from the corrupt record on is discarded: resuming
        # the scan past garbage would re-admit records whose ordering
        # context is gone.
        assert parsed == [deliver(0, 1)]
        assert valid == len(first)

    def test_insane_length_prefix_is_torn_not_allocated(self):
        blob = encode_record(deliver(0, 1)) + struct.pack(">II", 2**31, 0)
        parsed, valid = decode_records(blob)
        assert parsed == [deliver(0, 1)]
        assert valid == len(blob) - 8


class TestWriterAndRecovery:
    def test_unsynced_appends_are_buffered_not_written(self, tmp_path):
        path = tmp_path / "w.wal"
        writer = WalWriter(path)
        writer.append(deliver(0, 1))
        assert read_wal(path) == ([], 0)  # still only in the buffer
        writer.flush()
        assert read_wal(path)[0] == [deliver(0, 1)]
        writer.close()

    def test_sync_append_is_durable_immediately(self, tmp_path):
        path = tmp_path / "w.wal"
        writer = WalWriter(path)
        writer.append(accept(0, 1), sync=True)
        assert read_wal(path)[0] == [accept(0, 1)]
        writer.close()

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_wal(tmp_path / "absent.wal") == ([], 0)
        assert recover_wal(tmp_path / "absent.wal") == ([], 0)

    def test_recover_truncates_torn_tail_in_place(self, tmp_path):
        path = tmp_path / "w.wal"
        writer = WalWriter(path)
        for q in range(3):
            writer.append(deliver(0, q), sync=True)
        writer.close()
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(encode_record(deliver(0, 3))[:-5])  # crash mid-write
        records, torn = recover_wal(path)
        assert [r["q"] for r in records] == [0, 1, 2]
        assert torn > 0
        assert path.stat().st_size == intact
        # A new writer appends after the truncation point and the log
        # stays fully parseable.
        writer = WalWriter(path)
        writer.append(deliver(0, 3), sync=True)
        writer.close()
        records, torn = read_wal(path)
        assert [r["q"] for r in records] == [0, 1, 2, 3]
        assert torn == 0


class TestHostileTail:
    """Whatever a crash leaves after k intact records, reload keeps
    exactly those k, cuts the file back to them, and appending resumes."""

    @given(
        st.integers(0, 6),
        st.one_of(
            st.binary(min_size=1, max_size=64).map(lambda tail: ("bytes", tail)),
            st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
        ),
    )
    def test_reload_keeps_exactly_the_intact_prefix(self, k, damage):
        records = [deliver(k % 3, q, i=q + 1, at=q / 8) for q in range(k)]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "w.wal"
            writer = WalWriter(path)
            for record in records:
                writer.append(record, sync=True)
            writer.close()
            intact = path.stat().st_size
            if damage[0] == "bytes":
                tail = damage[1]
                assume(not decode_records(tail)[0])  # not itself a valid record
            else:
                __, position, mask = damage
                tail = bytearray(encode_record(accept(1, k, at=0.5)))
                tail[position % len(tail)] ^= mask
            with open(path, "ab") as handle:
                handle.write(tail)

            recovered, torn = recover_wal(path)
            assert recovered == records
            assert torn == len(tail)
            assert path.stat().st_size == intact

            writer = WalWriter(path)
            writer.append(accept(1, k), sync=True)
            writer.close()
            assert read_wal(path) == (records + [accept(1, k)], 0)


class TestWalState:
    def test_folds_records_into_resumable_state(self):
        records = [
            accept(1, 0, at=0.1),
            deliver(0, 0, i=1, at=0.2),
            deliver(1, 0, i=2, at=0.3),
            {"t": "resume", "counts": {"0": [7, 40], "2": [9, 13]}, "at": 0.4},
            accept(1, 1, at=0.5),
        ]
        state = WalState.from_records(records)
        assert state.delivered == [(0, 0), (1, 0)]
        assert set(state.delivered) == {(0, 0), (1, 0)}
        assert state.accepted == [(1, 0, 0.1), (1, 1, 0.5)]
        assert state.next_instance == 2
        assert state.resume_counts == {0: (7, 40), 2: (9, 13)}
        assert state.max_own_seq(1) == 1
        assert state.max_own_seq(0) == -1

    def test_duplicate_delivers_kept_once(self):
        records = [deliver(0, 0, i=1), deliver(0, 0, i=1), deliver(0, 1, i=2)]
        state = WalState.from_records(records)
        assert state.delivered == [(0, 0), (0, 1)]

    def test_last_resume_snapshot_wins(self):
        records = [
            {"t": "resume", "counts": {"0": [7, 10]}},
            {"t": "resume", "counts": {"0": [7, 25]}},
        ]
        state = WalState.from_records(records)
        assert state.resume_counts == {0: (7, 25)}

    def test_unknown_record_type_rejected(self):
        with pytest.raises(DeploymentError):
            WalState.from_records([{"t": "mystery"}])

    def test_load_wal_state_end_to_end(self, tmp_path):
        path = tmp_path / "w.wal"
        writer = WalWriter(path)
        writer.append(accept(2, 0, at=0.1), sync=True)
        writer.append(deliver(2, 0, i=1, at=0.2), sync=True)
        writer.close()
        with open(path, "ab") as handle:
            handle.write(b"\x00\x01garbage")
        state, torn = load_wal_state(path)
        assert state.delivered == [(2, 0)]
        assert state.next_instance == 1
        assert torn == len(b"\x00\x01garbage")

    def test_record_encoding_is_compact_json(self):
        blob = encode_record({"t": "accept", "s": 1, "q": 2, "at": 0.5})
        body = blob[8:]
        assert json.loads(body) == {"t": "accept", "s": 1, "q": 2, "at": 0.5}
        assert b" " not in body


# Any JSON a CRC-valid body can hold, including 400-digit integers and
# the NaN / Infinity that json reads back.
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.integers(10**399, 10**400)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
SMALL_INTS = st.integers(-2, 4)
# Each key is usually shaped like what the worker writes, sometimes not.
RECORD_FIELDS = {
    "t": st.sampled_from(["accept", "deliver", "resume", "mystery"]) | JSON_VALUES,
    "s": SMALL_INTS | JSON_VALUES,
    "q": SMALL_INTS | JSON_VALUES,
    "i": SMALL_INTS | JSON_VALUES,
    "at": st.floats(0.0, 10.0) | JSON_VALUES,
    "counts": st.dictionaries(
        st.sampled_from(["0", "1", "-1", "x"]),
        st.lists(SMALL_INTS, max_size=3) | JSON_VALUES,
        max_size=2,
    )
    | JSON_VALUES,
    "extra": JSON_VALUES,
}
RECORDS = st.lists(
    st.fixed_dictionaries({}, optional=RECORD_FIELDS), max_size=4
)


class TestMalformedRecords:
    """Both readers of a log — the restart fold and the merged-log check —
    take any CRC-valid body and either succeed or refuse it with a
    DeploymentError; nothing else escapes."""

    @settings(deadline=None)
    @given(RECORDS)
    @example([{"t": "accept"}])
    @example([{"t": "resume", "counts": [1]}])
    @example([{"t": "deliver", "s": "x", "q": 1}])
    def test_both_readers_succeed_or_refuse_by_name(self, bodies):
        blob = b"".join(encode_record(body) for body in bodies)
        records, valid = decode_records(blob)
        assert valid == len(blob)
        with tempfile.TemporaryDirectory() as directory:
            with open(Path(directory) / "worker-0.wal", "wb") as handle:
                handle.write(blob)
            for read in (
                lambda: WalState.from_records(records),
                lambda: check_merged_logs(1, directory, check_liveness=True),
            ):
                try:
                    read()
                except DeploymentError as error:
                    assert "WAL record" in str(error)

    @pytest.mark.parametrize(
        "record, named",
        [
            ({"t": "accept"}, "WAL record 0 is missing required key 's'"),
            ({"t": "resume", "counts": [1]}, "'WAL record 0.counts' must be a JSON object"),
            ({"t": "deliver", "s": "x", "q": 1}, "'WAL record 0.s' must be a number"),
            ({"t": "mystery"}, "unknown WAL record type 'mystery' in WAL record 0"),
            ({"t": "accept", "s": 0, "q": 0}, "WAL record 0 is missing required key 'at'"),
            ({"t": "accept", "s": 0, "q": 0, "at": 10**400}, "'WAL record 0.at' must be a finite number"),
        ],
    )
    def test_the_two_readers_refuse_the_same_record_alike(self, tmp_path, record, named):
        good = accept(0, 0)
        path = tmp_path / "worker-0.wal"
        path.write_bytes(encode_record(good) + encode_record(record))
        with pytest.raises(DeploymentError) as fold:
            WalState.from_records([good, record])
        with pytest.raises(DeploymentError) as merged:
            check_merged_logs(1, tmp_path)
        assert named.replace("record 0", "record 1") in str(fold.value)
        assert str(fold.value) == str(merged.value)
