"""One repetition of one workload, in a process of its own.

``python rep.py '<json request>'`` runs the workload once and prints one
JSON document: the repetition's metrics by name, how many abcasts were
attempted and how many of them failed, and (simulated workloads) the
digest of the simulated statistics. A fresh process per repetition keeps
repetitions independent (allocator state, ``ru_maxrss``) and makes
``import repro`` part of the measured set-up, as it is for a user.

Every layer is measured from outside: clock readings around the public
calls made here, and, when the request asks for a profile, a ``cProfile``
pass bucketed by ``repro`` package.
"""

from __future__ import annotations

import cProfile
import dataclasses
import hashlib
import heapq
import json
import os
import pstats
import resource
import sys
import time
import warnings

import repro
from repro.errors import DeploymentError, OrderingViolation, StationarityWarning
from repro.config import RunConfig
from repro.experiments.export import dumps_canonical
from repro.experiments.runner import DEFAULT_DRAIN, Simulation
from repro.live.deploy import LiveSpec, run_live
from repro.live.results import sim_result_to_dict
from repro.metrics.collector import MetricsCollector
from repro.metrics.ordering import OrderingChecker
from repro.obs.spans import spans_from_serialized
from repro.types import AppMessage, MessageId

from benchmarks.suite.workloads import SATURATED_LOAD, WORKLOADS, Workload

#: The packages a profile is bucketed by; everything else that runs
#: (builtins, the standard library, ``repro``'s few top-level modules
#: and this file's own listeners) is the ``python`` layer.
LAYERS = (
    "sim",
    "net",
    "stack",
    "abcast",
    "consensus",
    "broadcast",
    "fd",
    "flowcontrol",
    "workload",
    "metrics",
    "obs",
    "experiments",
    "python",
)

_PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep

#: Reference bursts (and slices of the simulated run) per repetition.
SLICES = 20
#: CPU seconds SLICES reference bursts cost on the 2-core sandbox the
#: workload sizes were chosen on; it only fixes the scale of the
#: normalised metrics, so that they read as real rates there.
REFERENCE_NOMINAL_S = 0.235

#: Ring-buffer capacity per worker of the traced live repetition.
LIVE_TRACE_CAP = 200_000


class _Cell:
    __slots__ = ("value", "seen")

    def __init__(self) -> None:
        self.value = 1
        self.seen: dict[int, int] = {}

    def touch(self, key: int) -> int:
        self.seen[key & 255] = key
        return self.value + key


def reference_burst(iterations: int = 40_000) -> int:
    """A fixed piece of work with the simulator's instruction mix: heap
    pushes and pops, dict stores, int allocation, method calls.

    This sandbox is a shared microVM on which identical repetitions
    differ by 10 % and more for seconds to minutes at a time. The
    bursts are interleaved with the measured work every few tens of
    milliseconds, so their cost tracks the host's speed while that work
    ran, and the host-time metrics of a simulated workload are divided
    by it. The burst allocates nothing the cyclic collector tracks, so
    it can never be billed a collection of the simulator's heap. It is
    part of the metrics' definition: changing it re-bases every result.
    """
    heap: list[int] = []
    cell = _Cell()
    total = 0
    for i in range(iterations):
        heapq.heappush(heap, (i * 7919) % 10007)
        total += cell.touch(i)
        if len(heap) > 64:
            heapq.heappop(heap)
    return total


class Stopwatch:
    """Accumulates CPU and wall seconds over several ``with`` blocks."""

    def __init__(self) -> None:
        self.cpu_s = self.wall_s = 0.0

    def __enter__(self) -> None:
        self._cpu0, self._wall0 = time.process_time(), time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        self.cpu_s += time.process_time() - self._cpu0
        self.wall_s += time.perf_counter() - self._wall0


def count_failures(
    accepted: dict[MessageId, float],
    sequences: dict[int, tuple[MessageId, ...]],
    window_end: float,
) -> tuple[int, int]:
    """``(attempted, failed)`` under the window rule.

    *sequences* holds the adelivery sequence of every correct process.
    An abcast is attempted when it was accepted into a stack before
    *window_end*; it failed when some correct process had not adelivered
    it by the end of the drain. Saturated senders keep getting messages
    accepted during the drain, which is why later accepts are not held
    to that. A message of a crashed sender that nobody adelivered was
    never promised (validity binds correct senders only); one that
    somebody adelivered must reach everybody (uniform agreement).
    """
    delivered = {pid: set(sequence) for pid, sequence in sequences.items()}
    attempted = failed = 0
    for msg_id, accepted_at in accepted.items():
        if accepted_at >= window_end:
            continue
        holders = sum(msg_id in ids for ids in delivered.values())
        if msg_id.sender not in delivered and holders == 0:
            continue
        attempted += 1
        failed += holders < len(delivered)
    return attempted, failed


def layer_table(profiler: cProfile.Profile) -> dict[str, list]:
    """``[self seconds, calls]`` per layer of a finished profile."""
    table = {layer: [0.0, 0] for layer in LAYERS}
    for (filename, _, _), (_, calls, self_s, _, _) in pstats.Stats(profiler).stats.items():
        layer = "python"
        if filename.startswith(_PACKAGE_DIR):
            package, nested, _ = filename[len(_PACKAGE_DIR) :].partition(os.sep)
            if nested and package in table:
                layer = package
        table[layer][0] += self_s
        table[layer][1] += calls
    return table


def sim_rep(workload: Workload, config: RunConfig, request: dict) -> dict:
    if not workload.stationary:
        warnings.simplefilter("ignore", StationarityWarning)
    crash_time = min(
        (crash.time for crash in config.faultload.crashes), default=None
    )

    t0 = time.perf_counter()
    sim = Simulation(config, seed=request["seed"])
    checker = OrderingChecker(config.n)
    accepted: dict[MessageId, float] = {}
    last_adelivery = outage = 0.0

    def on_accept(message: AppMessage) -> None:
        accepted[message.msg_id] = message.abcast_time
        checker.on_abcast(message)

    def on_adeliver(pid: int, message: AppMessage, when: float) -> None:
        nonlocal last_adelivery, outage
        checker.on_adeliver(pid, message, when)
        if when > last_adelivery:
            if crash_time is not None and when > crash_time:
                outage = max(outage, when - last_adelivery)
            last_adelivery = when

    sim.add_accept_listener(on_accept)
    sim.add_adeliver_listener(on_adeliver)
    t1 = time.perf_counter()
    sim.start()
    t2 = time.perf_counter()
    setup_s = time.monotonic() - request["spawned_at"]

    # The run is cut into SLICES equal spans of simulated time, each
    # preceded by a reference burst, so that both see the same host.
    profiler = cProfile.Profile() if request["profile"] else None
    end = config.total_time + DEFAULT_DRAIN
    measured, reference = Stopwatch(), Stopwatch()
    for k in range(1, SLICES + 1):
        with reference:
            reference_burst()
        with measured:
            if profiler is not None:
                profiler.enable()
            sim.kernel.run(until=end * k / SLICES)
            if profiler is not None:
                profiler.disable()
    kernel_run_s = measured.wall_s
    with measured:
        if profiler is not None:
            profiler.enable()
        # The kernel is already past the drain: this is the reduction alone.
        result = sim.run()
        if profiler is not None:
            profiler.disable()
    # Host seconds rescaled to the nominal host (see reference_burst).
    cpu_s = measured.cpu_s * REFERENCE_NOMINAL_S / reference.cpu_s
    wall_s = measured.wall_s * REFERENCE_NOMINAL_S / reference.wall_s

    correct = set(range(config.n)) - set(config.faultload.crashed_processes())
    checker.verify(correct=correct)
    sequences = {pid: checker.sequence(pid) for pid in correct}
    attempted, failed = count_failures(accepted, sequences, config.total_time)
    abcasts = max(len(sequence) for sequence in sequences.values())

    document = sim_result_to_dict(result)
    events = document.pop("events_executed")
    digest = hashlib.sha256(dumps_canonical(document).encode()).hexdigest()

    run = result.metrics
    network = result.network
    offered = run.offered_rate * config.total_time
    metrics = {
        "setup_s": setup_s,
        "abcasts_per_cpu_s": abcasts / cpu_s,
        "abcasts_per_wall_s": abcasts / wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "experiments.build_s": t1 - t0,
        "experiments.start_s": t2 - t1,
        "sim.kernel_run_s": kernel_run_s,
        "metrics.finalize_s": measured.wall_s - kernel_run_s,
        "host.speed_ratio": REFERENCE_NOMINAL_S / reference.cpu_s,
        "sim.events_per_abcast": events / abcasts,
        "sim.events_per_s": events / measured.cpu_s,
        "net.messages_per_abcast": network["messages_sent"] / (run.throughput * config.duration),
        "net.wire_bytes_per_abcast": network["bytes_sent"] / (run.throughput * config.duration),
        "stack.boundary_crossings_per_abcast": run.boundary_crossings / (run.throughput * config.duration),
        "consensus.instances": result.instances_decided,
        "consensus.abcasts_per_instance": result.delivered_per_consensus or 0.0,
        "flowcontrol.blocked_share": run.blocked_attempts / offered if offered else 0.0,
        "model.throughput_msgs_per_s": run.throughput,
        "model.latency_p50_ms": (run.latency_p50 or 0.0) * 1e3,
        "model.latency_p99_ms": (run.latency_p99 or 0.0) * 1e3,
        "model.cpu_utilization_max": max(result.cpu_utilization),
        "model.modularity_overhead": run.modularity_overhead or 0.0,
        "model.outage_s": outage,
    }
    if profiler is not None:
        for layer, (self_s, calls) in layer_table(profiler).items():
            metrics[f"{layer}.self_us_per_abcast"] = self_s * 1e6 / abcasts
            metrics[f"{layer}.calls_per_abcast"] = calls / abcasts
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "us_per_abcast": cpu_s * 1e6 / abcasts,
    }


def live_rep(workload: Workload, config: LiveSpec, request: dict) -> dict:
    spec = dataclasses.replace(
        config,
        seed=request["seed"],
        trace_cap=LIVE_TRACE_CAP if request["profile"] else 0,
        load=SATURATED_LOAD if request["saturated"] else config.load,
    )

    # ``run_live`` hands out every process's adelivery sequence but not
    # the accepts; its documented reduction feeds each accept through
    # ``MetricsCollector.on_accept``, so that is where they are read.
    accepted: dict[MessageId, float] = {}
    collect = MetricsCollector.on_accept

    def on_accept(self: MetricsCollector, message: AppMessage) -> None:
        accepted[message.msg_id] = message.abcast_time
        collect(self, message)

    MetricsCollector.on_accept = on_accept  # type: ignore[method-assign]

    delivery_log: dict[int, list[MessageId]] = {}
    observability: dict = {}
    t0 = time.perf_counter()
    result = run_live(spec, delivery_log=delivery_log, observability=observability)
    wall_s = time.perf_counter() - t0
    if not accepted:
        raise RuntimeError("run_live reduced no accepts through MetricsCollector")

    checker = OrderingChecker(spec.n)
    for msg_id, accepted_at in accepted.items():
        checker.on_abcast(AppMessage(msg_id, size=spec.size, abcast_time=accepted_at))
    for pid, sequence in delivery_log.items():
        for msg_id in sequence:
            checker.on_adeliver(pid, AppMessage(msg_id, size=spec.size, abcast_time=0.0), 0.0)
    checker.verify()
    sequences = {pid: checker.sequence(pid) for pid in range(spec.n)}
    window_end = spec.warmup + spec.duration
    attempted, failed = count_failures(accepted, sequences, window_end)

    run = result["metrics"]
    telemetry = observability["telemetry"]
    abcasts = run["throughput"] * spec.duration
    utilization = sum(result["cpu_utilization"])
    offered = run["offered_rate"] * window_end
    metrics = {
        # Spawn, mesh connect, ready barrier, final reports, teardown.
        "setup_s": wall_s - (spec.warmup + spec.duration + spec.drain),
        "abcasts_per_cpu_s": run["throughput"] / utilization,
        "abcasts_per_wall_s": run["throughput"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "live.latency_p50_ms": run["latency_p50"] * 1e3,
        "live.latency_p99_ms": run["latency_p99"] * 1e3,
        "live.latency_p999_ms": run["latency_p999"] * 1e3,
        "live.latency_samples": run["latency_count"],
        "live.cpu_utilization_sum": utilization,
        "live.cpu_us_per_abcast": utilization * 1e6 / run["throughput"],
        "live.frames_per_abcast": result["network"]["messages_sent"] / abcasts,
        "live.queue_depth_peak": telemetry["queue_depth_peak"],
        "live.unacked_peak": telemetry["unacked_peak"],
        "live.backpressure_stalls": run["backpressure_stalls"],
        "live.reconnects": telemetry["reconnects"],
        "live.blocked_share": run["blocked_attempts"] / offered,
        "stack.boundary_crossings_per_abcast": run["boundary_crossings"] / abcasts,
        "consensus.instances": result["instances_decided"],
        "consensus.abcasts_per_instance": abcasts / result["instances_decided"],
    }
    if request["profile"]:
        spans = spans_from_serialized(observability["spans"])
        # Each abcast is adelivered once per process.
        traced = sum(span.name == "adeliver" for span in spans) / spec.n
        for name in ("recv", "send", "cross", "adeliver"):
            total = sum(span.duration for span in spans if span.name == name)
            metrics[f"live.span_us_per_abcast.{name}"] = total * 1e6 / traced
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "us_per_abcast": 1e6 / run["throughput"],
    }


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    workload = WORKLOADS[request["workload"]]
    config = workload.build(request["scale"])
    rep = live_rep if workload.live else sim_rep
    try:
        document = rep(workload, config, request)
    except (OrderingViolation, DeploymentError) as exc:
        # A broken abcast property or a deployment that fell over fails
        # the whole repetition; the parent counts it, it does not crash.
        document = {"violation": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
