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

from repro._lazy import lazy_exports

# A name loads its submodule on first use, so a simulated run (which
# needs only the runner) never loads the figure drivers or calibration.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".calibration": ("CalibrationResult", "CalibrationTarget", "calibrate"),
        ".crossover": ("GapPoint", "gap_series"),
        ".export": ("write_sweep_csv",),
        ".figures": (
            "FigureReport",
            "all_figures",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
        ),
        ".msc": ("Arrow", "extract_arrows", "render_msc"),
        ".runner": ("DEFAULT_DRAIN", "RunResult", "Simulation", "run_simulation"),
        ".sweeps": ("PointSummary", "SweepResult", "run_load_sweep", "run_size_sweep"),
    },
)
