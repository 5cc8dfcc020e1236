"""Small statistics helpers: means, confidence intervals, stationarity,
and the mergeable log-bucketed latency histogram behind p999 reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import MetricsError


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """A mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    count: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        if self.mean != self.mean:  # NaN: no samples behind this mean
            return "n/a"
        if self.count == 1:
            # One observation carries no variance information; showing
            # "± 0.000" would dress the point up as a measured zero-width
            # interval, so flag the ensemble size instead.
            return f"{self.mean:.3f} (n=1)"
        return f"{self.mean:.3f} ± {self.half_width:.3f}"


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise MetricsError("mean() of empty sequence")
    return sum(values) / len(values)


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval of the mean (the paper reports 95%).

    A single observation yields a zero-width interval (no variance
    information), which renders without a ``±`` so it cannot be misread
    as a measured zero-variance result. The half-width is always a
    finite number — even when the mean itself is NaN (a placeholder for
    "no samples"), the width degrades to 0.0 rather than NaN.

    Only the multi-observation case needs the Student-t quantile, and
    scipy is imported there and nowhere else: a process that never
    summarizes an ensemble (one simulation, a live worker, the CLI's
    ``--help``) does not pay for loading numpy and scipy.
    """
    if not 0.0 < confidence < 1.0:
        raise MetricsError(f"confidence must lie strictly in (0, 1): {confidence}")
    if not values:
        raise MetricsError("confidence interval of empty sequence")
    count = len(values)
    centre = mean(values)
    if count == 1 or centre != centre:
        return ConfidenceInterval(centre, 0.0, confidence, count)
    variance = sum((v - centre) ** 2 for v in values) / (count - 1)
    std_error = math.sqrt(variance / count)
    from scipy import stats as scipy_stats

    t_value = float(scipy_stats.t.ppf((1 + confidence) / 2, df=count - 1))
    return ConfidenceInterval(centre, t_value * std_error, confidence, count)


def relative_difference(a: float, b: float) -> float:
    """|a - b| scaled by the larger magnitude; 0 when both are 0."""
    scale = max(abs(a), abs(b))
    if scale == 0:
        return 0.0
    return abs(a - b) / scale


#: Smallest latency (seconds) the histogram resolves; everything below
#: lands in bucket 0. One microsecond is far under any modelled RTT.
HISTOGRAM_MIN = 1e-6

#: Log-spaced buckets per decade. 40 buckets/decade gives a relative
#: bucket width of 10^(1/40) - 1 ≈ 5.9 %, so a p999 read from the
#: histogram is within ~6 % of the exact sample percentile — tight
#: enough for tail reporting while a full run's histogram stays under
#: a few hundred (bucket, count) pairs.
BUCKETS_PER_DECADE = 40


class LatencyHistogram:
    """Mergeable log-bucketed histogram of latency samples.

    Buckets are geometric: bucket ``i`` covers
    ``[HISTOGRAM_MIN * g**i, HISTOGRAM_MIN * g**(i+1))`` with
    ``g = 10**(1/BUCKETS_PER_DECADE)``. The representation is a sparse
    ``bucket index -> count`` map, so merging histograms from different
    processes (or seeds) is plain counter addition — associative and
    commutative, with percentiles of the merge equal to percentiles of
    the concatenated samples up to one bucket width (the property wall
    in ``tests/unit/metrics`` pins both claims).
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: dict[int, int] | None = None) -> None:
        self._counts: dict[int, int] = dict(counts) if counts else {}

    @staticmethod
    def bucket_index(value: float) -> int:
        """The bucket a latency of *value* seconds falls into."""
        if value < HISTOGRAM_MIN:
            return 0
        return int(math.floor(math.log10(value / HISTOGRAM_MIN) * BUCKETS_PER_DECADE))

    @staticmethod
    def bucket_bounds(index: int) -> tuple[float, float]:
        """The ``[low, high)`` latency range of bucket *index*, seconds."""
        low = HISTOGRAM_MIN * 10 ** (index / BUCKETS_PER_DECADE)
        high = HISTOGRAM_MIN * 10 ** ((index + 1) / BUCKETS_PER_DECADE)
        return low, high

    def record(self, value: float) -> None:
        """Add one latency sample (seconds)."""
        if value != value or value < 0:
            raise MetricsError(f"latency sample must be a finite >= 0: {value}")
        index = self.bucket_index(value)
        self._counts[index] = self._counts.get(index, 0) + 1

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """A new histogram holding both operands' samples."""
        merged = dict(self._counts)
        for index, count in other._counts.items():
            merged[index] = merged.get(index, 0) + count
        return LatencyHistogram(merged)

    @property
    def total(self) -> int:
        """Number of recorded samples."""
        return sum(self._counts.values())

    def percentile(self, fraction: float) -> float | None:
        """Nearest-rank percentile; the bucket's upper bound is returned.

        The true sample at that rank lies inside the same bucket, so the
        reported value overestimates it by at most one bucket width
        (≈ 5.9 % relative). ``None`` when the histogram is empty.
        """
        if not 0.0 <= fraction <= 1.0:
            raise MetricsError(f"percentile fraction out of [0, 1]: {fraction}")
        total = self.total
        if total == 0:
            return None
        rank = min(total - 1, max(0, round(fraction * (total - 1))))
        seen = 0
        for index in sorted(self._counts):
            seen += self._counts[index]
            if seen > rank:
                return self.bucket_bounds(index)[1]
        raise AssertionError("unreachable: rank < total")  # pragma: no cover

    def counts(self) -> tuple[tuple[int, int], ...]:
        """Canonical immutable form: sorted ``(bucket, count)`` pairs."""
        return tuple(sorted(self._counts.items()))

    @classmethod
    def from_counts(
        cls, counts: Iterable[Sequence[int]]
    ) -> "LatencyHistogram":
        """Rebuild from :meth:`counts` output (or its JSON form)."""
        histogram = cls()
        for index, count in counts:
            if count < 0:
                raise MetricsError(f"negative histogram count: {count}")
            if count:
                index = int(index)
                histogram._counts[index] = histogram._counts.get(index, 0) + int(count)
        return histogram

    @classmethod
    def of(cls, samples: Iterable[float]) -> "LatencyHistogram":
        """Histogram of an in-memory sample sequence."""
        histogram = cls()
        for value in samples:
            histogram.record(value)
        return histogram

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return self.counts() == other.counts()

    def __repr__(self) -> str:
        return f"LatencyHistogram(total={self.total}, buckets={len(self._counts)})"


def is_stationary(
    first_half: Sequence[float], second_half: Sequence[float], tolerance: float = 0.25
) -> bool:
    """Crude stationarity check: half-window means within *tolerance*.

    The paper verifies "that the latencies of all processes stabilize
    over time"; we approximate that by requiring the mean early latency
    of the two halves of the measurement window to agree within 25 %.
    """
    if not first_half or not second_half:
        return True  # too little data to call it non-stationary
    return relative_difference(mean(first_half), mean(second_half)) <= tolerance
