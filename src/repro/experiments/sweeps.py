"""Parameter sweeps with seed ensembles and confidence intervals.

The paper's evaluation varies two parameters — offered load (Figs. 8
and 10) and message size (Figs. 9 and 11) — for each group size and
stack, reporting means with 95 % confidence intervals. A sweep here runs
every (n, stack, x) point with several seeds and reduces each to a
:class:`PointSummary`; the figure emitters in
:mod:`repro.experiments.figures` then select the latency or throughput
column.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable

from repro.config import RunConfig, StackKind, WorkloadConfig
from repro.experiments.runner import RunResult
from repro.metrics.stats import (
    ConfidenceInterval,
    LatencyHistogram,
    mean,
    mean_confidence_interval,
)

#: Offered loads of the paper's load sweeps (msgs/s), Figs. 8 and 10.
PAPER_LOADS = (250, 500, 1000, 2000, 3000, 4000, 5000, 6000, 7000)
#: Message sizes of the paper's size sweeps (bytes), Figs. 9 and 11.
PAPER_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)
#: Group sizes the paper evaluates.
PAPER_GROUP_SIZES = (3, 7)
#: Fixed message size of the load sweeps.
PAPER_LOAD_SWEEP_SIZE = 16384
#: Fixed offered load of the size sweeps.
PAPER_SIZE_SWEEP_LOAD = 2000.0
#: Default seed ensemble (the paper averages several executions).
DEFAULT_SEEDS = (1, 2, 3)


@dataclass(frozen=True, slots=True)
class PointSummary:
    """Seed-ensemble summary of one sweep point: the key ``(n, stack, x)``
    plus one field per row of :data:`POINT_QUANTITIES`."""

    n: int
    stack: StackKind
    #: The swept parameter's value (offered load or message size).
    x: float
    latency: ConfidenceInterval
    #: Percentile latencies (ensemble CI over per-run percentiles).
    latency_p50: ConfidenceInterval
    latency_p99: ConfidenceInterval
    #: Tail latency p999 (ensemble CI over per-run histogram p999s).
    latency_p999: ConfidenceInterval
    throughput: ConfidenceInterval
    #: Measured messages ordered per consensus (paper's M), ensemble mean.
    delivered_per_consensus: float | None
    #: Whether every seed's run passed the stationarity check.
    stationary: bool
    runs: tuple[RunResult, ...]
    #: The seed ensemble's merged latency histogram as sorted
    #: ``(bucket, count)`` pairs — the full distribution behind p999.
    histogram: tuple[tuple[int, int], ...] = ()
    #: The measured cost of modularity: ensemble-mean fraction of
    #: attributed CPU time spent crossing module boundaries (see
    #: :mod:`repro.obs.attribution`). ``None`` when no run attributed.
    modularity_overhead: float | None = None
    #: Ensemble-total boundary crossings over the measurement windows.
    boundary_crossings: int = 0
    #: Network messages by protocol kind, summed across the ensemble's
    #: measurement windows, as sorted ``(kind, count)`` pairs.
    messages_by_kind: tuple[tuple[str, int], ...] = ()

    def merged_histogram(self) -> LatencyHistogram:
        """The ensemble's latency distribution as a live histogram."""
        return LatencyHistogram.from_counts(self.histogram)


def _interval(values: list[float]) -> ConfidenceInterval:
    """CI over the seeds that have the value; a NaN mean when none has."""
    return mean_confidence_interval(values or [float("nan")])


def _mean(values: list[float]) -> float | None:
    return mean(values) if values else None


def _merge(values: list[tuple[tuple[int, int], ...]]) -> tuple[tuple[int, int], ...]:
    merged = LatencyHistogram()
    for counts in values:
        merged = merged.merge(LatencyHistogram.from_counts(counts))
    return merged.counts()


def _tally(values: list[dict[str, int]]) -> tuple[tuple[str, int], ...]:
    total: dict[str, int] = {}
    for counts in values:
        for key, count in counts.items():
            total[key] = total.get(key, 0) + count
    return tuple(sorted(total.items()))


def _pairs(pairs: tuple[tuple[object, int], ...]) -> str:
    """``(key, count)`` pairs as space-separated ``key:count`` words."""
    return " ".join(f"{key}:{count}" for key, count in pairs)


_SECONDS, _RATE = "{:.9f}".format, "{:.3f}".format

#: Every quantity a sweep point reports, in CSV column order — the one
#: place a reported quantity is declared; :func:`summarize_point`, the
#: CSV and JSON exports, :func:`~repro.experiments.report.sweep_table`
#: and the ``sweep`` command iterate it. A row is: the
#: :class:`PointSummary` field (also the JSON key); one run's value
#: (``None`` when that seed has none); the reduction of the seeds' values
#: to the field; the CSV column(s), an interval's mean first and its
#: 95 % half-width second; the CSV text of a present value (absent ones
#: are blank cells); and, for the intervals text tables print, the
#: caption with its unit, the factor from the stored unit (latencies are
#: seconds) to the printed one, and the decimals.
POINT_QUANTITIES = (
    ("latency", attrgetter("metrics.latency_mean"), _interval,
     ("latency_mean_s", "latency_ci95_s"), _SECONDS, ("early latency (ms)", 1e3, 2)),
    ("latency_p50", attrgetter("metrics.latency_p50"), _interval,
     ("latency_p50_s",), _SECONDS, ("delivery latency p50 (ms)", 1e3, 2)),
    ("latency_p99", attrgetter("metrics.latency_p99"), _interval,
     ("latency_p99_s",), _SECONDS, ("delivery latency p99 (ms)", 1e3, 2)),
    ("latency_p999", attrgetter("metrics.latency_p999"), _interval,
     ("latency_p999_s",), _SECONDS, ("delivery latency p999 (ms)", 1e3, 2)),
    ("throughput", attrgetter("metrics.throughput"), _interval,
     ("throughput_mean", "throughput_ci95"), _RATE, ("throughput (msgs/s)", 1.0, 0)),
    ("delivered_per_consensus", attrgetter("delivered_per_consensus"), _mean,
     ("messages_per_consensus",), _RATE, None),
    ("stationary", attrgetter("metrics.stationary"), all, ("stationary",), int, None),
    # The ensemble itself: its size in the CSV, every run in the JSON.
    ("runs", lambda run: run, tuple, ("seeds",), len, None),
    # ``bucket:count`` words; LatencyHistogram.bucket_bounds maps a
    # bucket to seconds.
    ("histogram", attrgetter("metrics.latency_histogram"), _merge,
     ("histogram",), _pairs, None),
    # Blank when no run attributed (see :mod:`repro.obs.attribution`).
    ("modularity_overhead", attrgetter("metrics.modularity_overhead"), _mean,
     ("modularity_overhead",), "{:.6f}".format, None),
    ("boundary_crossings", attrgetter("metrics.boundary_crossings"), sum,
     ("boundary_crossings",), int, None),
    # ``kind:count`` words over the ensemble's measurement windows.
    ("messages_by_kind", lambda run: run.network.get("messages_by_kind", {}), _tally,
     ("messages_by_kind",), _pairs, None),
)


@dataclass(frozen=True, slots=True)
class SweepResult:
    """All points of one sweep, indexed by (n, stack, x)."""

    parameter: str
    points: tuple[PointSummary, ...]

    def series(self, n: int, stack: StackKind) -> tuple[PointSummary, ...]:
        """The curve for one (group size, stack) pair, ordered by x."""
        selected = [p for p in self.points if p.n == n and p.stack == stack]
        return tuple(sorted(selected, key=lambda p: p.x))

    def point(self, n: int, stack: StackKind, x: float) -> PointSummary:
        """A single point; raises ``KeyError`` if absent."""
        for p in self.points:
            if p.n == n and p.stack == stack and p.x == x:
                return p
        raise KeyError(f"no sweep point (n={n}, stack={stack}, x={x})")


def summarize_point(
    n: int, stack: StackKind, x: float, runs: list[RunResult]
) -> PointSummary:
    """Reduce the seed ensemble of one point."""
    fields = {}
    for field, per_run, reduce, *_ in POINT_QUANTITIES:
        values = [per_run(run) for run in runs]
        fields[field] = reduce([v for v in values if v is not None])
    return PointSummary(n=n, stack=stack, x=x, **fields)


def _sweep(
    parameter: str,
    values: tuple[float, ...],
    vary: Callable[[WorkloadConfig, float], WorkloadConfig],
    *,
    group_sizes: tuple[int, ...] = PAPER_GROUP_SIZES,
    stacks: tuple[StackKind, ...] | None = None,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    base: RunConfig | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Run every (n, stack, value) point with every seed.

    *vary* applies one swept value to the base workload; using
    ``replace()`` there keeps the workload's other dimensions — arrival
    law, client population — so a populated base sweeps the population
    too. *stacks* defaults to the paper's modular and monolithic pair.

    The (point × seed) grid is flattened so that parallel workers
    balance across the entire sweep rather than one point's seeds;
    results come back in submission order (see
    :mod:`repro.experiments.parallel`), so the regrouping — and hence
    every summary — is identical for any *jobs*.
    """
    base = base or RunConfig()
    specs = []
    for n in group_sizes:
        for stack in stacks or (StackKind.MODULAR, StackKind.MONOLITHIC):
            for value in values:
                config = base.with_changes(
                    n=n,
                    stack=replace(base.stack, kind=stack),
                    workload=vary(base.workload, value),
                )
                specs.append((n, stack, float(value), config))
    tasks = [(config, seed) for _, _, _, config in specs for seed in seeds]
    # The process pool (multiprocessing, concurrent.futures) loads when a
    # sweep runs, not with this module: the canonical-JSON export and a
    # single simulation import it too.
    from repro.experiments.parallel import run_simulations

    results = run_simulations(tasks, jobs=jobs)
    width = len(seeds)
    points = tuple(
        summarize_point(n, stack, x, list(results[i * width : (i + 1) * width]))
        for i, (n, stack, x, _) in enumerate(specs)
    )
    return SweepResult(parameter=parameter, points=points)


def run_load_sweep(
    *,
    loads: tuple[float, ...] = PAPER_LOADS,
    message_size: int = PAPER_LOAD_SWEEP_SIZE,
    **grid,
) -> SweepResult:
    """The sweep behind Figs. 8 and 10: vary offered load at fixed size.

    *grid* is :func:`_sweep`'s ``group_sizes``, ``stacks``, ``seeds``,
    ``base`` and ``jobs``, here and in :func:`run_size_sweep`.
    """

    def vary(workload: WorkloadConfig, load: float) -> WorkloadConfig:
        return replace(workload, offered_load=float(load), message_size=message_size)

    return _sweep("offered_load", loads, vary, **grid)


def run_size_sweep(
    *,
    sizes: tuple[int, ...] = PAPER_SIZES,
    offered_load: float = PAPER_SIZE_SWEEP_LOAD,
    **grid,
) -> SweepResult:
    """The sweep behind Figs. 9 and 11: vary message size at fixed load."""

    def vary(workload: WorkloadConfig, size: int) -> WorkloadConfig:
        return replace(workload, offered_load=offered_load, message_size=size)

    return _sweep("message_size", sizes, vary, **grid)
