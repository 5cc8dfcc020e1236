"""What a process pays before it does any protocol work.

Every benchmark repetition, sweep worker and live worker is a fresh
interpreter, so whatever ``import repro`` drags in is paid per process.
numpy and scipy (≈ 0.9 s, ≈ 80 MiB, ≈ 800 modules) are needed by one
call — the Student-t quantile behind a multi-seed summary — and must be
loaded by that call only. Likewise asyncio belongs to the live runtime
and the process pool to a sweep: a simulated run loads neither, and
``import repro`` loads nothing but the table of names it re-exports.
Each case runs in its own interpreter and checks what ended up in
``sys.modules``; nothing here is timed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

SHORT_RUN = """
from repro import RunConfig, WorkloadConfig, modular_stack
from repro.experiments.runner import Simulation
config = RunConfig(
    n=3, stack=modular_stack(), workload=WorkloadConfig(offered_load=500.0),
    duration=0.2, warmup=0.05,
)
"""

#: Exactly what one simulated benchmark repetition imports before it
#: builds its run (``benchmarks/suite/rep.py``); ``LiveSpec`` and the
#: result dict come from the live layer, which must not bring asyncio.
SIMULATED_REPETITION = """
import repro
from repro.live.deploy import LiveSpec, run_live
from repro.experiments.export import dumps_canonical
from repro.obs.spans import spans_from_serialized
from repro.live.results import sim_result_to_dict
"""

ONE_RUN = "value = Simulation(config, seed=1).run().metrics.throughput"

#: ``python -m repro --help``, short of printing it: the parser of every
#: command is built and the top-level help formatted.
CLI_HELP = """
from repro.cli import _build_parser
value = len(_build_parser().format_help())
"""

#: What building the command line runs none of: the sweeps, the nemesis
#: swarm, the process pool and the live runtime's event loop.
NOT_PARSED = (
    "repro.experiments.sweeps", "repro.nemesis.swarm", "multiprocessing", "asyncio",
)

#: What a simulation never runs: the live runtime's event loop (and the
#: TLS library asyncio loads with it) and the sweep's process pool.
NOT_SIMULATED = ("asyncio", "ssl", "multiprocessing", "concurrent.futures")

REPORT = """
import json, sys
print(json.dumps({"modules": sorted(sys.modules), "value": value}))
"""


def fresh_interpreter(body: str) -> dict:
    """Run *body* (which may set ``value``) in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.run(
        [sys.executable, "-c", "value = None\n" + body + REPORT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


#: Each case with its module budget, ≈ 1.05 x the modules it loads on
#: CPython 3.11 (the report's own ``json`` included): 110, 248, 183, 193
#: and 134. Before the package ``__init__``s re-exported lazily, ``import
#: repro`` alone loaded 225 (268 with the live worker, 278 for the
#: simulated repetition, asyncio and the process pool among them); with
#: scipy it was 1038. Before each command imported what it runs, the
#: command line's help loaded 237.
CASES = {
    "import-repro": ("import repro", 116),
    "import-live-worker": ("import repro.live.worker", 260),
    "one-short-simulation": (SHORT_RUN + ONE_RUN, 192),
    "simulated-repetition": (SIMULATED_REPETITION + SHORT_RUN + ONE_RUN, 203),
    "cli-help": (CLI_HELP, 141),
}


@pytest.mark.parametrize("body,budget", CASES.values(), ids=CASES.keys())
def test_no_numerical_stack_before_an_ensemble_is_summarized(body, budget):
    report = fresh_interpreter(body)
    loaded = {name.split(".")[0] for name in report["modules"]}
    assert loaded & {"numpy", "scipy"} == set()
    assert len(report["modules"]) <= budget


@pytest.mark.parametrize(
    "body", [SHORT_RUN + ONE_RUN, SIMULATED_REPETITION + SHORT_RUN + ONE_RUN],
    ids=["one-short-simulation", "simulated-repetition"],
)
def test_a_simulated_run_loads_no_event_loop_and_no_process_pool(body):
    report = fresh_interpreter(body)
    assert report["value"] > 0.0
    assert set(NOT_SIMULATED) & set(report["modules"]) == set()


def test_the_command_line_help_loads_no_command():
    report = fresh_interpreter(CLI_HELP)
    assert report["value"] > 0
    assert set(NOT_PARSED) & set(report["modules"]) == set()


def test_import_repro_loads_no_subpackage_it_only_names():
    report = fresh_interpreter("import repro")
    assert [
        name
        for name in report["modules"]
        if name.startswith(("repro.analysis", "repro.live", "repro.nemesis"))
    ] == []


def test_summarizing_two_seeds_loads_scipy_and_gives_a_real_interval():
    report = fresh_interpreter(
        SHORT_RUN
        + """
import math, sys
from repro.experiments.sweeps import summarize_point
runs = [Simulation(config, seed=seed).run() for seed in (1, 2)]
assert "scipy" not in sys.modules
summary = summarize_point(3, config.stack.kind, 500.0, runs)
value = summary.throughput.half_width
assert math.isfinite(value) and value > 0.0, value
"""
    )
    assert "scipy" in report["modules"]
    assert report["value"] > 0.0
