"""Knee and gap analysis of sweep curves.

The paper's prose claims live in curve *features*: "the latency of both
implementations remains relatively constant above a certain offered
load" (the flow-control knee, Fig. 8), "the throughput remains constant
up to messages of size 4096 for n = 7 and 16384 for n = 3" (the size
knee, Fig. 11), "the difference in latency is up to 50 %" (the peak
gap). This module extracts those features from sweep results so the
claims become assertions instead of eyeballing:

* :func:`saturation_knee` — first x beyond which a curve stays within a
  tolerance band of its final plateau;
* :func:`gap_series` — the modular-vs-monolithic gap at every x;
* :func:`peak_gap` — the paper's headline "up to X %" number.
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


def saturation_knee(
    sweep: SweepResult,
    n: int,
    stack: StackKind,
    metric: str,
    *,
    tolerance: float = 0.15,
) -> float:
    """Smallest x from which the curve stays within *tolerance* of its
    final value — the plateau onset (Fig. 8/10) or, read from the other
    side, the last x before size-degradation (Fig. 9/11).

    Returns the first x of the longest stable suffix; if the curve never
    stabilizes, returns the final x.
    """
    points = _series_values(sweep, n, stack, metric)
    final = points[-1][1]
    if final == 0:
        raise MetricsError("cannot locate a knee on an all-zero curve")
    knee = points[-1][0]
    for x, value in reversed(points):
        if abs(value - final) / abs(final) <= tolerance:
            knee = x
        else:
            break
    return knee


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


def peak_gap(
    sweep: SweepResult,
    n: int,
    metric: str,
    *,
    baseline: StackKind = StackKind.MODULAR,
    contender: StackKind = StackKind.MONOLITHIC,
) -> GapPoint:
    """The paper's headline number: the largest gap along a sweep."""
    return max(
        gap_series(sweep, n, metric, baseline=baseline, contender=contender),
        key=lambda p: p.gap,
    )
