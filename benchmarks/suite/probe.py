"""Wire-path probe: what one frame costs the live runtime's codec,
framing and write-ahead log, timed in a single process.

The live workload's per-layer numbers come from whole worker processes;
this probe isolates the three byte-handling layers by calling their
public functions over a corpus of *real* protocol messages: every
``NetMessage`` a one-simulated-second modular n=3 run hands to
``Network.transmit`` (the class is left unslotted so it can be spied
on). The messages are the simulator's, so application payloads carry no
body, exactly as in a live run.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

from repro.config import (
    FailureDetectorConfig,
    FailureDetectorKind,
    RunConfig,
    StackConfig,
    StackKind,
    WorkloadConfig,
)
from repro.experiments.runner import Simulation
from repro.live.transport import FrameDecoder, encode_frame
from repro.live.wal import WalWriter, recover_wal
from repro.net.message import NetMessage, decode_message, encode_message

#: Passes over the corpus per timed function; the median pass is kept.
PASSES = 5
#: Buffered appends, then fsynced appends, timed per probe.
WAL_RECORDS = 2000
WAL_SYNC_RECORDS = 200


def capture_messages(seed: int) -> list[NetMessage]:
    """Every message the live workload's stack puts on the network in
    one simulated second (same stack, load, size and detector)."""
    config = RunConfig(
        n=3,
        stack=StackConfig(kind=StackKind.MODULAR),
        workload=WorkloadConfig(offered_load=20000.0, message_size=1024),
        failure_detector=FailureDetectorConfig(kind=FailureDetectorKind.HEARTBEAT),
        duration=1.0,
        warmup=0.0,
    )
    sim = Simulation(config, seed=seed)
    corpus: list[NetMessage] = []
    transmit = sim.network.transmit

    def spy(message: NetMessage, depart_time: float) -> None:
        corpus.append(message)
        transmit(message, depart_time)

    sim.network.transmit = spy  # type: ignore[method-assign]
    sim.run()
    return corpus


def _median_pass_us(run_pass, items: int) -> float:
    """Median over PASSES of one pass's microseconds per item."""
    costs = []
    for _ in range(PASSES):
        t0 = time.perf_counter_ns()
        run_pass()
        costs.append((time.perf_counter_ns() - t0) / 1e3 / items)
    return statistics.median(costs)


def wire_path(seed: int, scratch: Path) -> dict[str, float]:
    """Probe metrics by name. WAL files are written under *scratch*."""
    corpus = capture_messages(seed)
    if len(corpus) < 5000:
        raise RuntimeError(f"probe corpus too small: {len(corpus)} messages")
    bodies = [encode_message(message) for message in corpus]
    stream = b"".join(encode_frame(body) for body in bodies)

    def encode_all() -> None:
        for message in corpus:
            encode_message(message)

    def decode_all() -> None:
        for body in bodies:
            decode_message(body)

    def frame_all() -> None:
        for body in bodies:
            encode_frame(body)
        decoder = FrameDecoder()
        # 64 KiB reads, as the transport's stream reader delivers them.
        frames = 0
        for start in range(0, len(stream), 65536):
            frames += len(decoder.feed(stream[start : start + 65536]))
        if frames != len(bodies):
            raise RuntimeError(f"framing lost frames: {frames} of {len(bodies)}")

    if [decode_message(body) for body in bodies[:100]] != corpus[:100]:
        raise RuntimeError("wire codec did not round-trip the corpus")

    with tempfile.TemporaryDirectory(prefix=".wal-", dir=scratch) as directory:
        path = Path(directory) / "probe.wal"
        writer = WalWriter(path)
        try:
            t0 = time.perf_counter_ns()
            for seq in range(WAL_RECORDS):
                writer.append({"t": "deliver", "s": seq % 3, "q": seq, "at": 1.5, "i": seq // 4})
            t1 = time.perf_counter_ns()
            writer.flush()
            t2 = time.perf_counter_ns()
            for seq in range(WAL_SYNC_RECORDS):
                writer.append({"t": "accept", "s": 0, "q": seq, "at": 1.5}, sync=True)
            t3 = time.perf_counter_ns()
        finally:
            writer.close()
        t4 = time.perf_counter_ns()
        records, torn = recover_wal(path)
        t5 = time.perf_counter_ns()
    if len(records) != WAL_RECORDS + WAL_SYNC_RECORDS or torn:
        raise RuntimeError(f"WAL recovered {len(records)} records, {torn} torn bytes")

    return {
        "net.wire.encode_us_per_frame": _median_pass_us(encode_all, len(corpus)),
        "net.wire.decode_us_per_frame": _median_pass_us(decode_all, len(corpus)),
        "net.wire.encoded_bytes_per_frame": sum(map(len, bodies)) / len(bodies),
        "live.transport.frame_us_per_frame": _median_pass_us(frame_all, len(corpus)),
        "live.wal.append_us": (t1 - t0) / 1e3 / WAL_RECORDS,
        "live.wal.append_sync_us": (t3 - t2) / 1e3 / WAL_SYNC_RECORDS,
        "live.wal.recover_us_per_record": (t5 - t4) / 1e3 / len(records),
    }
