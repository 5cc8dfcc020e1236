"""Experiment harness: runners, sweeps and figure/table reproduction.

Submodules:

* :mod:`~repro.experiments.runner` — assemble and run one simulation;
* :mod:`~repro.experiments.sweeps` — multi-seed parameter sweeps, and
  ``POINT_QUANTITIES``, the one table of what a sweep point reports;
* :mod:`~repro.experiments.figures` — the paper's Figs. 8-11 as a
  four-row table and one driver;
* :mod:`~repro.experiments.tables` — the design-time prediction and
  §5.2 analytical tables plus simulator validation;
* :mod:`~repro.experiments.ablation` — per-optimization ablation (§4);
* :mod:`~repro.experiments.report` — text-table rendering;
* :mod:`~repro.experiments.export` — CSV and canonical-JSON export;
* :mod:`~repro.experiments.msc` — message-sequence charts from traces;
* :mod:`~repro.experiments.calibration` — fit the cost model to
  measured operating points.
"""

from repro.experiments.calibration import (
    CalibrationResult,
    CalibrationTarget,
    calibrate,
)
from repro.experiments.crossover import (
    GapPoint,
    gap_series,
    peak_gap,
    saturation_knee,
)
from repro.experiments.export import write_sweep_csv
from repro.experiments.figures import (
    FigureReport,
    all_figures,
    figure8,
    figure9,
    figure10,
    figure11,
)
from repro.experiments.msc import Arrow, extract_arrows, render_msc
from repro.experiments.runner import (
    DEFAULT_DRAIN,
    RunResult,
    Simulation,
    run_simulation,
)
from repro.experiments.sweeps import (
    PointSummary,
    SweepResult,
    run_load_sweep,
    run_size_sweep,
)

__all__ = [
    "DEFAULT_DRAIN",
    "Arrow",
    "CalibrationResult",
    "CalibrationTarget",
    "FigureReport",
    "GapPoint",
    "PointSummary",
    "RunResult",
    "Simulation",
    "SweepResult",
    "all_figures",
    "calibrate",
    "extract_arrows",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "gap_series",
    "peak_gap",
    "render_msc",
    "run_load_sweep",
    "run_simulation",
    "saturation_knee",
    "run_size_sweep",
    "write_sweep_csv",
]
