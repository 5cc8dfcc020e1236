"""Gap analysis of sweep curves.

The paper's headline claims are gaps between two curves: "the
difference in latency is up to 50 %". :func:`gap_series` extracts the
modular-vs-monolithic gap at every x of a sweep, so the claims become
assertions instead of eyeballing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import StackKind
from repro.errors import MetricsError
from repro.experiments.sweeps import SweepResult


def _series_values(
    sweep: SweepResult, n: int, stack: StackKind, metric: str
) -> list[tuple[float, float]]:
    series = sweep.series(n, stack)
    if not series:
        raise MetricsError(f"sweep has no series for n={n}, {stack.value}")
    if metric not in ("latency", "throughput"):
        raise MetricsError(f"unknown metric {metric!r}")
    return [(point.x, getattr(point, metric).mean) for point in series]


@dataclass(frozen=True, slots=True)
class GapPoint:
    """Relative contender advantage at one sweep position."""

    x: float
    #: For latency: fraction by which the contender is *lower*.
    #: For throughput: fraction by which the contender is *higher*.
    gap: float


def gap_series(
    sweep: SweepResult,
    n: int,
    metric: str,
    *,
    baseline: StackKind = StackKind.MODULAR,
    contender: StackKind = StackKind.MONOLITHIC,
) -> list[GapPoint]:
    """Contender-vs-baseline gap at every x of a sweep.

    The defaults reproduce the paper's modular-vs-monolithic analysis;
    the extension stacks reuse the same machinery (e.g.
    ``baseline=SEQUENCER, contender=BATCHED_SEQUENCER`` quantifies what
    distillation buys over the raw sequencer along a load sweep).
    """
    base = dict(_series_values(sweep, n, baseline, metric))
    cont = dict(_series_values(sweep, n, contender, metric))
    shared = sorted(set(base) & set(cont))
    if not shared:
        raise MetricsError("sweeps for the two stacks share no x values")
    gaps = []
    for x in shared:
        if metric == "latency":
            gaps.append(GapPoint(x, 1.0 - cont[x] / base[x]))
        else:
            gaps.append(GapPoint(x, cont[x] / base[x] - 1.0))
    return gaps

