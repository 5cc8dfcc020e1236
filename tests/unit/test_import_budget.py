"""What a process pays before it does any protocol work.

Every benchmark repetition, sweep worker and live worker is a fresh
interpreter, so whatever ``import repro`` drags in is paid per process.
numpy and scipy (≈ 0.9 s, ≈ 80 MiB, ≈ 800 modules) are needed by one
call — the Student-t quantile behind a multi-seed summary — and must be
loaded by that call only. Each case runs in its own interpreter and
checks what ended up in ``sys.modules``; nothing here is timed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: 225 modules are loaded by ``import repro`` today (268 with the live
#: worker); with scipy it was 1038.
MODULE_BUDGET = 400

SHORT_RUN = """
from repro import RunConfig, WorkloadConfig, modular_stack
from repro.experiments.runner import Simulation
config = RunConfig(
    n=3, stack=modular_stack(), workload=WorkloadConfig(offered_load=500.0),
    duration=0.2, warmup=0.05,
)
"""

REPORT = """
import json, sys
print(json.dumps({
    "heavy": sorted({name.split(".")[0] for name in sys.modules} & {"numpy", "scipy"}),
    "modules": len(sys.modules),
    "value": value,
}))
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


@pytest.mark.parametrize(
    "body",
    [
        "import repro",
        "import repro.live.worker",
        SHORT_RUN + "value = Simulation(config, seed=1).run().metrics.throughput",
    ],
    ids=["import-repro", "import-live-worker", "one-short-simulation"],
)
def test_no_numerical_stack_before_an_ensemble_is_summarized(body):
    report = fresh_interpreter(body)
    assert report["heavy"] == []
    assert report["modules"] < MODULE_BUDGET


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
    assert "scipy" in report["heavy"]
    assert report["value"] > 0.0
