"""The paper's analytical evaluation (§5.2) and the design-time
prediction as tables, all read off :mod:`repro.analysis.model`.

Three artifacts:

* :func:`prediction_table` — predicted saturation throughput of both
  stacks and the monolith's gain (no simulation).
* :func:`analytical_table` — the §5.2 message counts, data volumes and
  the (n-1)/(n+1) overhead for the paper's configurations.
* :func:`validation_table` — steady-state good runs of both stacks whose
  *measured* per-consensus message counts and payload volumes are put
  next to the model's, using the measured M. This is the experiment
  showing the simulator actually sends what the paper counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.model import predict_gap, predict_modular, predict_monolithic
from repro.config import RunConfig, StackConfig, StackKind, WorkloadConfig
from repro.experiments.report import format_table
from repro.experiments.runner import RunResult, run_simulation

#: The model of each stack the §5.2 tables cover.
_PREDICTORS = {StackKind.MODULAR: predict_modular, StackKind.MONOLITHIC: predict_monolithic}


def prediction_table(
    group_sizes: tuple[int, ...] = (3, 7),
    sizes: tuple[int, ...] = (64, 1024, 16384),
) -> str:
    """Design-time saturation-throughput predictions (no simulation)."""
    headers = ["n", "size (B)", "T modular (msg/s)", "T monolithic (msg/s)", "gain"]
    rows = []
    for n in group_sizes:
        for size in sizes:
            gap = predict_gap(n, 4, size)
            rows.append(
                [
                    str(n),
                    str(size),
                    f"{gap.modular.saturation_throughput:.0f}",
                    f"{gap.monolithic.saturation_throughput:.0f}",
                    f"+{100 * gap.throughput_gain:.0f}%",
                ]
            )
    return format_table(headers, rows)


def analytical_table(
    group_sizes: tuple[int, ...] = (3, 7),
    messages_per_consensus: float = 4,
    message_size: int = 16384,
) -> str:
    """The paper's §5.2 numbers for the given configurations."""
    headers = [
        "n",
        "M",
        "msgs modular",
        "msgs monolithic",
        "data modular (B)",
        "data monolithic (B)",
        "overhead",
    ]
    rows = []
    for n in group_sizes:
        gap = predict_gap(n, messages_per_consensus, message_size)
        rows.append(
            [
                str(n),
                f"{messages_per_consensus:g}",
                f"{gap.modular.messages:.0f}",
                f"{gap.monolithic.messages:.0f}",
                f"{gap.modular.data:.0f}",
                f"{gap.monolithic.data:.0f}",
                f"{100 * gap.data_overhead:.0f}%",
            ]
        )
    return format_table(headers, rows)


@dataclass(frozen=True, slots=True)
class ValidationRow:
    """Measured vs predicted per-consensus costs for one stack."""

    n: int
    stack: StackKind
    measured_m: float
    measured_messages: float
    predicted_messages: float
    measured_payload_bytes: float
    predicted_payload_bytes: float
    run: RunResult

    @property
    def message_error(self) -> float:
        """Relative error of the §5.2.1 message-count prediction."""
        return abs(self.measured_messages - self.predicted_messages) / max(
            self.predicted_messages, 1e-9
        )

    @property
    def payload_error(self) -> float:
        """Relative error of the §5.2.2 data-volume prediction."""
        return abs(self.measured_payload_bytes - self.predicted_payload_bytes) / max(
            self.predicted_payload_bytes, 1e-9
        )


def validate_stack(
    n: int,
    stack: StackKind,
    *,
    message_size: int = 16384,
    offered_load: float = 4000.0,
    seed: int = 1,
    duration: float = 1.0,
) -> ValidationRow:
    """Run one stack at saturation and compare counters with §5.2.

    The predictions take the *measured* M as input (the formulas are
    per-consensus-of-M-messages); the §5.2.2 data formulas count only
    abcast payload bytes, which is what the network's payload counter
    tracks net of the per-message metadata overhead.
    """
    config = RunConfig(
        n=n,
        stack=StackConfig(kind=stack),
        workload=WorkloadConfig(offered_load=offered_load, message_size=message_size),
        duration=duration,
        warmup=0.4,
    )
    run = run_simulation(config, seed=seed)
    measured_m = run.delivered_per_consensus or 0.0
    predicted = _PREDICTORS[stack](n, measured_m, message_size)
    return ValidationRow(
        n=n,
        stack=stack,
        measured_m=measured_m,
        measured_messages=run.messages_per_consensus or 0.0,
        predicted_messages=predicted.messages,
        measured_payload_bytes=run.payload_bytes_per_consensus or 0.0,
        predicted_payload_bytes=predicted.data,
        run=run,
    )


def validation_table(
    group_sizes: tuple[int, ...] = (3, 7), message_size: int = 16384
) -> str:
    """Measured-vs-predicted table for both stacks and group sizes."""
    headers = [
        "n",
        "stack",
        "M",
        "msgs/consensus (sim)",
        "msgs/consensus (§5.2.1)",
        "payload B/consensus (sim)",
        "payload B/consensus (§5.2.2)",
    ]
    rows = []
    for n in group_sizes:
        for stack in _PREDICTORS:
            v = validate_stack(n, stack, message_size=message_size)
            rows.append(
                [
                    str(n),
                    stack.value,
                    f"{v.measured_m:.2f}",
                    f"{v.measured_messages:.2f}",
                    f"{v.predicted_messages:.2f}",
                    f"{v.measured_payload_bytes:.0f}",
                    f"{v.predicted_payload_bytes:.0f}",
                ]
            )
    return format_table(headers, rows)
