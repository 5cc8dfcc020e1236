"""Summaries of repeated measurements, and the before/after table.

``compare(a, b, contract)`` is the tool for every A/A check and every
later before/after: one row per (end-to-end metric x workload) with both
medians, their quartiles, the ratio with its base, and a verdict against
the bound ``BENCHMARK.json`` fixes for that metric.
"""

from __future__ import annotations

import statistics

#: Per-layer metrics of the simulated workloads that are counts or
#: simulated statistics: they repeat exactly for one seed, so two result
#: files of the same seed must agree on them to the last digit.
EXACT_PREFIX = "model."
EXACT_NAMES = frozenset(
    {
        "sim.events_per_abcast",
        "net.messages_per_abcast",
        "net.wire_bytes_per_abcast",
        "stack.boundary_crossings_per_abcast",
        "consensus.instances",
        "consensus.abcasts_per_instance",
        "flowcontrol.blocked_share",
    }
)


def summarize(values: list[float]) -> dict:
    """Median, quartiles, minimum, count and relative quartile spread."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
        "spread": (q3 - q1) / median,
    }


def _worsening(base: float, new: float, better: str) -> float:
    """By what share of *base* did *new* get worse (negative: better)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def compare(a: dict, b: dict, contract: dict) -> tuple[list[str], bool]:
    """Lines of the A-vs-B report, and whether every row is ``ok``."""
    lines = [
        f"{'workload':26} {'metric':20} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'B/A':>7}  verdict"
    ]
    all_ok = True
    for name in (w["name"] for w in contract["workloads"]):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in contract["end_to_end"]:
            sa = summarize(wa["end_to_end"][metric["name"]]["values"])
            sb = summarize(wb["end_to_end"][metric["name"]]["values"])
            worse = _worsening(sa["median"], sb["median"], metric["better"])
            if max(sa["spread"], sb["spread"]) > metric["bound"]:
                verdict = "unresolved (spread wider than bound)"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            all_ok &= verdict == "ok"
            cells = [
                f"{s['median']:12.4f} [{s['q1']:.4f}, {s['q3']:.4f}]" for s in (sa, sb)
            ]
            lines.append(
                f"{name:26} {metric['name']:20} {cells[0]:>34} {cells[1]:>34} "
                f"{sb['median'] / sa['median']:7.4f}  {verdict} "
                f"(base {sa['median']:.4f} {metric['unit']}, bound {metric['bound']:.2f})"
            )
        for label, w in (("A", wa), ("B", wb)):
            if w["failed"] or not w["correct"]:
                all_ok = False
                lines.append(
                    f"{name}: {label} failed {w['failed']} of {w['attempted']} abcasts"
                    f"{'' if w['correct'] else ' and is not correct'}"
                )
        # Same seeds: a simulated workload (it has digests) must agree bit
        # for bit; the live workload's counts are measurements.
        simulated = any(wa["model_digests"].values())
        if a["provenance"]["seed"] != b["provenance"]["seed"] or not simulated:
            continue
        if wa["model_digests"] != wb["model_digests"]:
            all_ok = False
            lines.append(f"{name}: model_digest differs between A and B")
        for metric, entry in wa["per_layer"].items():
            exact = metric in EXACT_NAMES or metric.startswith(EXACT_PREFIX)
            other = wb["per_layer"][metric]["value"]
            if exact and entry["value"] != other:
                all_ok = False
                lines.append(f"{name}: {metric} differs: {entry['value']!r} vs {other!r}")
    return lines, all_ok
