"""The benchmark: four workloads, end to end and layer by layer.

Two ways in, one measurement underneath:

``python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1``
    One *run* of one workload, the unit ``BENCHMARK.json`` describes:
    repetitions of W, each in a fresh process, for about S seconds; every
    metric is the median over the repetitions. ``--trace 0`` reports the
    end-to-end metrics, ``--trace 1`` adds a profiled repetition (and, on
    the live workload, the wire-path probe) and reports the per-layer
    ones. The last line of output is the run's JSON result.

``PYTHONPATH=src python -m benchmarks.suite [--seed N] [--rounds R]``
    The whole suite: R untraced runs of every workload, interleaved
    round-robin so that machine drift hits all workloads alike, then one
    traced run each; prints every metric by name with its unit and
    writes ``results/BENCH_<rev>.json``. ``--smoke`` is the same at 1/20
    size with one repetition; ``--compare A.json B.json`` judges two
    result files against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Run as a plain script, only this directory is on sys.path: add the
# repo root (for ``benchmarks.suite``) and ``src`` (for ``repro``).
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.suite import probe  # noqa: E402
from benchmarks.suite.compare import compare, summarize  # noqa: E402
from benchmarks.suite.workloads import WORKLOADS, Workload  # noqa: E402

SMOKE_SCALE = 1 / 20
#: A repetition that takes longer than this is killed and fails the run.
REP_TIMEOUT_S = 150.0
LEGAL_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load_contract() -> dict:
    """``BENCHMARK.json``: the one place names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def spawn_rep(
    workload: Workload, seed: int, scale: float, profile: bool, saturated: bool = False
) -> dict:
    """Run one repetition in a fresh child process; return its document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    request = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "profile": profile,
        "saturated": saturated,
        # CLOCK_MONOTONIC is system-wide on Linux, so the child can
        # charge its own spawn and imports to set-up.
        "spawned_at": time.monotonic(),
    }
    child = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), json.dumps(request)],
        stdout=subprocess.PIPE,
        env=env,
        check=True,
        timeout=REP_TIMEOUT_S,
    )
    return json.loads(child.stdout.splitlines()[-1])


def _medians(reps: list[dict]) -> dict[str, float]:
    """Median of every metric over repetitions of one kind."""
    return {
        name: statistics.median(rep["metrics"][name] for rep in reps)
        for name in (reps[0]["metrics"] if reps else ())
    }


def _live_diagnostics(values: dict[str, float], saturated: list[dict], seed: int) -> dict[str, float]:
    """What a traced run of the live workload adds: the wire-path probe,
    and the group's capacity from the saturated closed-loop repetition."""
    extra = probe.wire_path(seed, HERE)
    codec_us = extra["net.wire.encode_us_per_frame"] + extra["net.wire.decode_us_per_frame"]
    extra["net.wire.share_of_live_cpu"] = (
        codec_us * values["live.frames_per_abcast"] / values["live.cpu_us_per_abcast"]
    )
    for rep in saturated:
        extra["live.saturated_abcasts_per_s"] = rep["metrics"]["abcasts_per_wall_s"]
        extra["live.saturated_latency_p50_ms"] = rep["metrics"]["live.latency_p50_ms"]
    return extra


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    contract: dict,
    smoke: bool = False,
) -> dict:
    """One run: repetitions for about *seconds*, reduced to medians.

    An untraced run repeats the workload as often as fits (never fewer
    than ``workload.min_reps`` times); a traced run pairs every plain
    repetition with a profiled one. All repetitions of a run share the
    seed, so their simulated statistics must agree to the last bit.
    """
    scale = SMOKE_SCALE if smoke else 1.0
    min_reps = 1 if smoke or trace else workload.min_reps
    plain: list[dict] = []
    profiled: list[dict] = []
    begin = time.monotonic()
    longest = 0.0
    while len(plain) < min_reps or (
        not smoke and time.monotonic() - begin + longest <= seconds
    ):
        t0 = time.monotonic()
        plain.append(spawn_rep(workload, seed, scale, profile=False))
        if trace:
            profiled.append(spawn_rep(workload, seed, scale, profile=True))
        longest = max(longest, time.monotonic() - t0)

    # Live only: offer far more than fits, once, to read the capacity.
    saturated = (
        [spawn_rep(workload, seed, scale, profile=False, saturated=True)]
        if trace and workload.live
        else []
    )

    reps = plain + profiled + saturated
    violations = [rep["violation"] for rep in reps if "violation" in rep]
    plain, profiled, saturated = (
        [rep for rep in group if "metrics" in rep] for group in (plain, profiled, saturated)
    )
    reps = plain + profiled + saturated
    if not plain or (trace and not profiled):
        raise RuntimeError(f"{workload.name}: no repetition completed: {violations}")
    digests = sorted({rep["digest"] for rep in reps if "digest" in rep})
    if len(digests) > 1:
        violations.append(f"model digest differs between repetitions: {digests}")

    # Shared names come from the plain repetitions; profiling perturbs them.
    values = {**_medians(profiled), **_medians(plain)}
    if trace:
        values["obs.trace_overhead_ratio"] = statistics.median(
            rep["us_per_abcast"] for rep in profiled
        ) / statistics.median(rep["us_per_abcast"] for rep in plain)
        if workload.live:
            values.update(_live_diagnostics(values, saturated, seed))

    declared = contract["per_layer" if trace else "end_to_end"]
    known = {m["name"] for m in contract["end_to_end"] + contract["per_layer"]}
    if unknown := sorted(set(values) - known):
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    if violations:
        # A broken property or disagreeing digests fail the whole run.
        failed = attempted
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "model_digest": digests[0] if digests else None,
        # A layer the workload never enters did no work there: 0.
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
        "measured": sorted(values),
        "reps": [
            {m["name"]: rep["metrics"][m["name"]] for m in contract["end_to_end"]}
            for rep in plain
        ],
    }


def print_run(run: dict) -> None:
    print(
        f"== {run['workload']} seed={run['seed']} reps={len(run['reps'])} "
        f"attempted={run['attempted']} failed={run['failed']} "
        f"failed_share={run['failed'] / run['attempted']:.6f}"
    )
    for violation in run["violations"]:
        print(f"   VIOLATION {violation}")
    if run["model_digest"]:
        print(f"   model_digest {run['model_digest']}")
    idle = []
    for name, metric in run["metrics"].items():
        if name in run["measured"]:
            print(f"   {name:42} {metric['value']:16.6f} {metric['unit']}")
        else:
            idle.append(name)
    if idle:
        print(f"   0 (layer not exercised by this workload): {' '.join(idle)}")


# -- the suite -----------------------------------------------------------------


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=ROOT,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_average() -> float:
    load = os.getloadavg()[0]
    if load > (os.cpu_count() or 1):
        print(
            f"warning: 1-min load average {load:.2f} exceeds {os.cpu_count()} cores; "
            "host-time metrics will be noisy",
            file=sys.stderr,
        )
    return load


def run_suite(seed: int, rounds: int, seconds: float, smoke: bool, contract: dict) -> dict:
    provenance = {
        "revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "rounds": rounds,
        "seconds": seconds,
        "smoke": smoke,
        "loadavg_start": load_average(),
    }
    workloads = [WORKLOADS[w["name"]] for w in contract["workloads"]]
    runs: dict[str, list[dict]] = {w.name: [] for w in workloads}
    for round_ in range(rounds):
        for workload in workloads:
            run = run_workload(workload, seed + round_, seconds, False, contract, smoke)
            print_run(run)
            runs[workload.name].append(run)
    document: dict = {"provenance": provenance, "workloads": {}}
    for workload in workloads:
        traced = run_workload(workload, seed, seconds, True, contract, smoke)
        print_run(traced)
        untraced = runs[workload.name]
        every = untraced + [traced]
        document["workloads"][workload.name] = {
            "end_to_end": {
                m["name"]: {
                    "unit": m["unit"],
                    "values": [run["metrics"][m["name"]]["value"] for run in untraced],
                }
                for m in contract["end_to_end"]
            },
            "per_layer": traced["metrics"],
            "measured_per_layer": traced["measured"],
            "correct": all(run["correct"] for run in every),
            "attempted": sum(run["attempted"] for run in every),
            "failed": sum(run["failed"] for run in every),
            "violations": [v for run in every for v in run["violations"]],
            "model_digests": {
                str(run["seed"]): run["model_digest"] for run in untraced
            },
            "reps": [run["reps"] for run in untraced],
        }
    provenance["loadavg_end"] = load_average()
    return document


def print_summary(document: dict) -> None:
    print("\n== end to end: median over runs [q1, q3] min n spread=(q3-q1)/median")
    for name, workload in document["workloads"].items():
        share = workload["failed"] / workload["attempted"]
        print(f"{name}: failed_share {share:.6f} ({workload['failed']} of {workload['attempted']})")
        for metric, entry in workload["end_to_end"].items():
            s = summarize(entry["values"])
            print(
                f"   {metric:20} {s['median']:14.4f} {entry['unit']:5} "
                f"[{s['q1']:.4f}, {s['q3']:.4f}] min {s['min']:.4f} "
                f"n={s['n']} spread={s['spread']:.4f}"
            )


def check_smoke(document: dict, contract: dict) -> None:
    """Every declared metric is legally named, finite and measured."""
    names = [w["name"] for w in contract["workloads"]]
    if names != list(document["workloads"]) or set(names) != set(WORKLOADS):
        raise AssertionError(f"workload names differ: {names}")
    produced: set[str] = set()
    for name, workload in document["workloads"].items():
        if workload["failed"] or not workload["correct"]:
            raise AssertionError(f"{name}: {workload['violations'] or workload['failed']}")
        if list(workload["end_to_end"]) != [m["name"] for m in contract["end_to_end"]]:
            raise AssertionError(f"{name}: end-to-end metric names differ")
        if list(workload["per_layer"]) != [m["name"] for m in contract["per_layer"]]:
            raise AssertionError(f"{name}: per-layer metric names differ")
        produced.update(workload["measured_per_layer"])
        values = {m: e["values"][0] for m, e in workload["end_to_end"].items()}
        values.update({m: e["value"] for m, e in workload["per_layer"].items()})
        for metric, value in values.items():
            if not LEGAL_NAME.fullmatch(metric) or not math.isfinite(value):
                raise AssertionError(f"{name}: bad metric {metric!r} = {value!r}")
        if bad := [m for m in workload["end_to_end"] if values[m] <= 0]:
            raise AssertionError(f"{name}: end-to-end metrics not positive: {bad}")
    if idle := [m["name"] for m in contract["per_layer"] if m["name"] not in produced]:
        raise AssertionError(f"per-layer metrics no workload measures: {idle}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one run of this workload (what the driver calls)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=5, help="suite: untraced runs per workload, seeds seed..seed+rounds-1")
    parser.add_argument("--out", type=Path, default=None, help="suite: result path (default: results/BENCH_<rev>.json)")
    parser.add_argument("--smoke", action="store_true", help="suite at 1/20 size, one repetition, with self-checks")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    contract = load_contract()

    if args.compare:
        a, b = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        lines, all_ok = compare(a, b, contract)
        print("\n".join(lines))
        return 0 if all_ok else 1

    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    if args.workload:
        run = run_workload(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), contract)
        print_run(run)
        print(json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0

    document = run_suite(args.seed, 1 if args.smoke else args.rounds, seconds, args.smoke, contract)
    print_summary(document)
    if args.smoke:
        check_smoke(document, contract)
        print("smoke ok")
        return 0
    out = args.out or HERE / "results" / f"BENCH_{document['provenance']['revision']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if all(w["correct"] for w in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
