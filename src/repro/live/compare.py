"""Sim-vs-live comparison: one config, both execution modes.

Runs the same (stack, n, load, size, duration, warmup) once through the
virtual-time simulator and once over real TCP between OS processes, and
renders both results side by side. The comparison is the point of the
live runtime: the simulator's *modelled* CPU and network costs predict
trends (modularity overhead, saturation points); the live run shows what
the identical protocol code does on a real host, where costs are
whatever the hardware charges.

Numbers are expected to differ — the simulator charges the calibrated
per-message costs of the paper's 2007-era testbed, not this machine's —
so read the table for shape (ordering of stacks, latency floors, whether
throughput tracks offered load), not for digit-level agreement.
"""

from __future__ import annotations

from repro.experiments.report import format_table
from repro.experiments.runner import run_simulation
from repro.live.deploy import LiveSpec, matched_run_config, run_live
from repro.live.results import sim_result_to_dict


def run_comparison(spec: LiveSpec, *, seed: int | None = None) -> dict:
    """Run sim and live with matched parameters; returns both results."""
    sim = run_simulation(matched_run_config(spec), seed if seed is not None else spec.seed)
    live = run_live(spec)
    return {"sim": sim_result_to_dict(sim), "live": live}


def _ms(seconds: float | None) -> str:
    return f"{seconds * 1e3:.2f}" if seconds is not None else "n/a"


def _of(section: str, name: str, default: int | None = None):
    return lambda result: result[section].get(name, default)


_RATE = "{:.1f}".format

#: What the text tables report of one run in the shared result schema
#: (:mod:`repro.live.results`): label, value, how it prints, and where it
#: shows — the ``repro live`` summary, the sim-vs-live comparison, both,
#: or the summary only if the run has it (not ``None`` or 0).
RESULT_ROWS = (
    ("throughput (msgs/s)", _of("metrics", "throughput"), _RATE, "both"),
    ("offered rate (msgs/s)", _of("metrics", "offered_rate"), _RATE, "both"),
    ("early latency mean (ms)", _of("metrics", "latency_mean"), _ms, "both"),
    ("early latency p95 (ms)", _of("metrics", "latency_p95"), _ms, "compare"),
    ("latency p999 (ms)", _of("metrics", "latency_p999"), _ms, "summary if any"),
    ("latency samples", _of("metrics", "latency_count"), str, "both"),
    ("consensus instances", lambda result: result["instances_decided"], str, "both"),
    ("net messages sent", _of("network", "messages_sent", 0), str, "both"),
    ("net payload bytes", _of("network", "payload_bytes_sent", 0), str, "compare"),
    (
        "mean cpu utilization",
        lambda r: sum(r["cpu_utilization"]) / max(1, len(r["cpu_utilization"])),
        "{:.3f}".format,
        "compare",
    ),
    ("blocked attempts", _of("metrics", "blocked_attempts"), str, "both"),
    ("active logical clients", _of("metrics", "active_clients"), str, "summary if any"),
    ("boundary crossings", _of("metrics", "boundary_crossings"), str, "summary if any"),
)


def result_rows(*results: dict, table: str) -> list[list[str]]:
    """:data:`RESULT_ROWS` for *table* (``"summary"`` or ``"compare"``):
    per row its label and one cell per result."""
    rows = []
    for label, value, text, shown in RESULT_ROWS:
        values = [value(result) for result in results]
        if shown == "summary if any" and any(values):
            shown = "summary"
        if shown in ("both", table):
            rows.append([label, *map(text, values)])
    return rows


def comparison_table(results: dict) -> str:
    """Render a ``run_comparison`` result as an aligned text table."""
    config = results["live"]["config"]
    title = (
        f"stack={config['stack']} n={config['n']} load={config['load']:g} "
        f"size={config['message_size']} duration={config['duration']:g}s"
    )
    rows = result_rows(results["sim"], results["live"], table="compare")
    return title + "\n" + format_table(["metric", "sim", "live"], rows)
