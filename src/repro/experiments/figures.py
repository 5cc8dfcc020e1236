"""Reproduction drivers for the paper's four evaluation figures.

The evaluation is a 2 × 2 — two sweeps (offered load, message size) ×
two quantities (early latency, throughput) — and is written down as
such: :data:`SWEEPS` names the two sweeps and their grids,
:data:`FIGURES` the four (sweep, quantity) pairs, and :func:`figure`
renders any of them as a text table plus headline gap lines, running
the sweep or reusing one passed in (Figs. 8/10 share the load sweep and
Figs. 9/11 the size sweep, exactly as in the paper).
``figure8`` … ``figure11`` are :func:`figure` bound to a row.

* **Figure 8** — early latency vs offered load, message size 16384 B.
* **Figure 9** — early latency vs message size, offered load 2000 msg/s.
* **Figure 10** — throughput vs offered load, message size 16384 B.
* **Figure 11** — throughput vs message size, offered load 2000 msg/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.config import StackKind

# The sweep and report modules load when a figure is drawn, not with this
# table of figures: the command line builds its parser from FIGURES.
if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.sweeps import SweepResult

#: Reduced parameters for quick regeneration (CLI ``--fast`` and benches).
FAST_LOADS = (500, 1000, 2000, 4000, 7000)
FAST_SIZES = (64, 1024, 4096, 16384, 32768)
FAST_SEEDS = (1,)

#: The paper's two sweeps by swept parameter: the runner's keyword and
#: ``--fast`` grid of its swept values (its default is the full grid),
#: the header of the x column, and the axis label of table captions.
SWEEPS = {
    "offered_load": ("loads", FAST_LOADS, "load", "offered load (msgs/s)"),
    "message_size": ("sizes", FAST_SIZES, "size", "message size (bytes)"),
}

#: The paper's four figures: the sweep, the plotted quantity (an interval
#: row of :data:`~repro.experiments.sweeps.POINT_QUANTITIES`), which x
#: values get a modular-vs-monolithic headline gap line, and the title.
FIGURES = {
    "figure8": ("offered_load", "latency", (max,),
                "early latency (ms) vs offered load (msgs/s), size=16384"),
    "figure9": ("message_size", "latency", (min, max),
                "early latency (ms) vs message size (bytes), load=2000 msgs/s"),
    "figure10": ("offered_load", "throughput", (max,),
                 "throughput (msgs/s) vs offered load (msgs/s), size=16384"),
    "figure11": ("message_size", "throughput", (min, max),
                 "throughput (msgs/s) vs message size (bytes), load=2000 msgs/s"),
}


@dataclass(frozen=True, slots=True)
class FigureReport:
    """A regenerated figure: its data, rendering and headline gaps."""

    figure: str
    title: str
    sweep: SweepResult
    table: str
    headlines: tuple[str, ...]

    def __str__(self) -> str:
        lines = [f"{self.figure}: {self.title}", "", self.table, ""]
        lines.extend(self.headlines)
        return "\n".join(lines)


def paper_sweep(
    parameter: str,
    *,
    fast: bool = False,
    seeds: tuple[int, ...] | None = None,
    **options,
) -> SweepResult:
    """Run one of :data:`SWEEPS` with the paper's defaults.

    The swept values default to the sweep's full or (*fast*) reduced
    grid and *seeds* to the three-seed ensemble, one seed when *fast*;
    *options* are the runner's own (``jobs``, ``stacks``, ``base``, …).
    """
    from repro.experiments.sweeps import DEFAULT_SEEDS, run_load_sweep, run_size_sweep

    run = {"offered_load": run_load_sweep, "message_size": run_size_sweep}[parameter]
    keyword, reduced, _, _ = SWEEPS[parameter]
    if fast:
        options.setdefault(keyword, reduced)
    return run(seeds=seeds or (FAST_SEEDS if fast else DEFAULT_SEEDS), **options)


def figure(name: str, sweep: SweepResult | None = None, **grid) -> FigureReport:
    """Regenerate the figure *name* of :data:`FIGURES`.

    Runs the figure's sweep — *grid* is ``fast``, ``seeds``, ``jobs`` and
    ``stacks``, see :func:`paper_sweep` — unless *sweep*, its result, is
    passed in. The headline gaps are the paper's modular-vs-monolithic
    ones, for each group size present — skipped when a custom stack
    selection omits either of the two paper stacks.
    """
    from repro.experiments.report import gap_summary, sweep_table

    parameter, quantity, headline_xs, title = FIGURES[name]
    _, _, x_label, _ = SWEEPS[parameter]
    sweep = sweep or paper_sweep(parameter, **grid)
    headlines: tuple[str, ...] = ()
    if {StackKind.MODULAR, StackKind.MONOLITHIC} <= {p.stack for p in sweep.points}:
        xs = [pick(p.x for p in sweep.points) for pick in headline_xs]
        headlines = tuple(
            gap_summary(sweep, quantity, x, n)
            for n in sorted({p.n for p in sweep.points})
            for x in xs
        )
    return FigureReport(
        figure=name.replace("figure", "Figure "),
        title=title,
        sweep=sweep,
        table=sweep_table(sweep, quantity, x_label=x_label),
        headlines=headlines,
    )


figure8 = partial(figure, "figure8")
figure9 = partial(figure, "figure9")
figure10 = partial(figure, "figure10")
figure11 = partial(figure, "figure11")


def latency_distribution(
    sweep: SweepResult,
    *,
    n: int | None = None,
    stack: StackKind | None = None,
    x: float | None = None,
) -> FigureReport:
    """Latency-distribution figure: the full per-point histogram.

    Unlike Figs. 8–11 (one scalar per point), this renders the merged
    log-bucketed latency histogram of one sweep point — the shape a
    million-client population actually experiences, p999 included. The
    point defaults to the highest-x point of the first (n, stack) curve
    present; pass *n*, *stack* and *x* to select another.
    """
    from repro.experiments.report import histogram_table

    if not sweep.points:
        raise ValueError("latency distribution of an empty sweep")
    candidates = [
        p
        for p in sweep.points
        if (n is None or p.n == n)
        and (stack is None or p.stack == stack)
        and (x is None or p.x == x)
    ]
    if not candidates:
        raise KeyError(
            f"no sweep point matches (n={n}, stack={stack}, x={x})"
        )
    point = max(candidates, key=lambda p: (p.x, p.n, p.stack.value))
    return FigureReport(
        figure="Latency distribution",
        title=(
            f"early-latency histogram, n={point.n} {point.stack.value} "
            f"{sweep.parameter}={point.x:g}"
        ),
        sweep=sweep,
        table=histogram_table(point.merged_histogram()),
        headlines=(),
    )


def all_figures(**grid) -> list[FigureReport]:
    """Regenerate all four figures, sharing sweeps as the paper does.

    *grid* as for :func:`figure`.
    """
    sweeps = {parameter: paper_sweep(parameter, **grid) for parameter in SWEEPS}
    return [figure(name, sweeps[FIGURES[name][0]]) for name in FIGURES]
