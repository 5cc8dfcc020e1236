"""Run-time metric collection: early latency and throughput (§5.1).

Definitions, from the paper:

* **early latency** of message m — ``L = (min_i t_i) - t0`` where t0 is
  when ``abcast(m)`` completed at the sender and t_i is when process p_i
  adelivered m;
* **throughput** — ``T = (1/n) Σ_i r_i`` where r_i is the adeliver rate
  at process p_i, in messages per second.

Both are computed over a measurement window that starts after warm-up;
throughput counts deliveries inside the window, latency is attributed to
messages *abcast* inside the window (their deliveries may land in the
drain period after the window closes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.stats import LatencyHistogram, is_stationary
from repro.obs.attribution import EMPTY_ATTRIBUTION, LayerAttribution
from repro.types import AppMessage, MessageId, SimTime


@dataclass(frozen=True, slots=True)
class RunMetrics:
    """Aggregated metrics of one simulation run."""

    #: Mean early latency (seconds) over measured messages; None if none.
    latency_mean: float | None
    #: Early latency percentiles (seconds): median, 95th and 99th.
    latency_p50: float | None
    latency_p95: float | None
    latency_p99: float | None
    #: Number of messages contributing to the latency mean.
    latency_count: int
    #: Throughput T in messages/second (mean per-process adeliver rate).
    throughput: float
    #: Abcast attempts per second actually generated (sanity check
    #: against the configured offered load).
    offered_rate: float
    #: Attempts that were blocked by flow control at least momentarily.
    blocked_attempts: int
    #: Whether the latency series passed the stationarity check.
    stationary: bool
    #: Arrival ticks the live runtime's backpressure gate refused (the
    #: transport's unacked-frame credit or the ordering core's backlog
    #: cap was exhausted). Always 0 in simulation, where the paper's
    #: flow-control window is the only throttle.
    backpressure_stalls: int = 0
    #: Tail latency (seconds) read from the log-bucketed histogram —
    #: the "heavy traffic from millions of users" metric; exact sample
    #: percentiles above stop being trustworthy long before p999, so
    #: this one always comes from the merged histogram.
    latency_p999: float | None = None
    #: The full latency distribution as sorted ``(bucket, count)``
    #: pairs (see :class:`~repro.metrics.stats.LatencyHistogram`);
    #: mergeable across processes, seeds and runs.
    latency_histogram: tuple[tuple[int, int], ...] = ()
    #: Distinct logical clients that generated at least one arrival
    #: (client-population workloads; 0 for the paper's symmetric load).
    active_clients: int = 0
    #: Per-layer CPU seconds over the measurement window, summed across
    #: processes, as sorted ``(layer, seconds)`` pairs (see
    #: :mod:`repro.obs.attribution`). Empty when attribution was not
    #: collected (e.g. the live runtime, which has no modelled CPU).
    layer_busy: tuple[tuple[str, float], ...] = ()
    #: CPU seconds charged to inter-module boundary crossings over the
    #: window — exactly 0.0 for a monolithic stack, by construction.
    boundary_time: float = 0.0
    #: Number of boundary crossings charged over the window.
    boundary_crossings: int = 0
    #: The cost of modularity as a fraction: boundary time over total
    #: attributed CPU time. ``None`` when attribution was not collected
    #: or the window was idle.
    modularity_overhead: float | None = None

    def histogram(self) -> LatencyHistogram:
        """The latency distribution as a live histogram object."""
        return LatencyHistogram.from_counts(self.latency_histogram)


class MetricsCollector:
    """Collects abcast/adeliver events and reduces them to RunMetrics."""

    def __init__(self, n: int, *, window_start: SimTime, window_end: SimTime) -> None:
        self.n = n
        self.window_start = window_start
        self.window_end = window_end
        #: Accept times of messages nobody has adelivered yet.
        self._abcast_times: dict[MessageId, SimTime] = {}
        self._latency_samples: list[tuple[SimTime, float]] = []
        self._deliveries_in_window: list[int] = [0] * n
        self._offered_attempts = 0

    # -- event hooks -----------------------------------------------------

    def on_offered(self, count: int = 1) -> None:
        """*count* workload arrivals occurred (before flow control)."""
        self._offered_attempts += count

    def on_accept(self, message: AppMessage) -> None:
        """A message entered the stack; starts its latency clock."""
        self._abcast_times[message.msg_id] = message.abcast_time

    def on_adeliver(self, pid: int, message: AppMessage, time: SimTime) -> None:
        """A process adelivered a message.

        The first delivery of a message takes its accept time with it;
        later ones find nothing, so the collector holds a time only for
        what is still in flight. Both feeders present every accept
        before any delivery of that message: the simulation accepts a
        message before its stack can see it, and the live reduction
        (:func:`repro.live.deploy._reduce`) replays all accepts first.
        """
        if self.window_start <= time < self.window_end:
            self._deliveries_in_window[pid] += 1
        t0 = self._abcast_times.pop(message.msg_id, None)
        if t0 is not None and self.window_start <= t0 < self.window_end:
            self._latency_samples.append((t0, time - t0))

    # -- reduction ---------------------------------------------------------

    @property
    def latency_samples(self) -> list[float]:
        """Early latencies of measured messages, in abcast order."""
        return [latency for __, latency in sorted(self._latency_samples)]

    @staticmethod
    def _percentile(ordered: list[float], fraction: float) -> float:
        """Nearest-rank percentile of an already-sorted sample."""
        index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[index]

    def finalize(
        self,
        blocked_attempts: int = 0,
        *,
        backpressure_stalls: int = 0,
        active_clients: int = 0,
        attribution: LayerAttribution = EMPTY_ATTRIBUTION,
    ) -> RunMetrics:
        """Reduce collected events to a :class:`RunMetrics`."""
        duration = self.window_end - self.window_start
        samples = self.latency_samples
        ordered = sorted(samples)
        half = len(samples) // 2
        rates = [count / duration for count in self._deliveries_in_window]
        histogram = LatencyHistogram.of(samples)
        return RunMetrics(
            latency_mean=(sum(samples) / len(samples)) if samples else None,
            latency_p50=self._percentile(ordered, 0.50) if ordered else None,
            latency_p95=self._percentile(ordered, 0.95) if ordered else None,
            latency_p99=self._percentile(ordered, 0.99) if ordered else None,
            latency_count=len(samples),
            throughput=sum(rates) / self.n,
            offered_rate=self._offered_attempts / self.window_end
            if self.window_end > 0
            else 0.0,
            blocked_attempts=blocked_attempts,
            stationary=is_stationary(samples[:half], samples[half:]),
            backpressure_stalls=backpressure_stalls,
            latency_p999=histogram.percentile(0.999),
            latency_histogram=histogram.counts(),
            active_clients=active_clients,
            layer_busy=attribution.layer_busy,
            boundary_time=attribution.boundary_time,
            boundary_crossings=attribution.boundary_crossings,
            modularity_overhead=attribution.overhead_fraction,
        )
