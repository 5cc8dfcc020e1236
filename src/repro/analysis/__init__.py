"""The analytical model: each stack's good-run consensus walked once,
giving the paper's §5.2 message counts and data volumes and the
design-time prediction of what they cost."""

from repro.analysis.model import (
    ModularityPrediction,
    StackPrediction,
    predict_gap,
    predict_modular,
    predict_monolithic,
)

__all__ = [
    "ModularityPrediction",
    "StackPrediction",
    "predict_gap",
    "predict_modular",
    "predict_monolithic",
]
