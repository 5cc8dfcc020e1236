"""How many Python frames the simulator runs per abcast.

Every simulated message pays for the interpreter steps between protocol
handlers — network, runtime, CPU model, event calendar — whatever the
stack. That count is exact and repeatable where host time is not: one
seeded run per workload, profiled with ``cProfile`` and read from the
raw ``Profile.getstats()`` entries (``pstats`` folds every
dataclass-generated ``__init__`` into one ``<string>:2`` row and keeps
only one of them). Like ``test_import_budget.py`` this is structural
and untimed, and each case runs in a fresh interpreter.

The three configurations are the benchmark suite's simulated workloads,
built by ``benchmarks.suite.workloads`` at a tenth of their duration. A
budget is 1.02 × the count measured when it was last lowered, on
CPython 3.11; 3.12 inlines comprehensions, so it counts fewer. Run ``python -m tests.unit.test_call_budget`` to
print the counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
#: ``src`` for the simulator, the root for ``benchmarks.suite.workloads``.
PYTHONPATH = os.pathsep.join([str(ROOT / "src"), str(ROOT)])

#: Frames per abcast measured on CPython 3.11. Before the runtime folded
#: its emit helper away and skipped empty action lists, before the
#: network skipped the fault verdict when no filter is registered, and
#: before the frozen records set their slots directly, they were 196.4,
#: 145.2 and 719.9.
MEASURED = {
    "sim_modular_n3_saturated": 168.6,
    "sim_monolithic_n3_small": 129.4,
    "sim_modular_n7_crash": 597.6,
}
SLACK = 1.02

COUNT = """
import cProfile, json, sys, warnings
from benchmarks.suite.workloads import WORKLOADS
from repro.errors import StationarityWarning
from repro.experiments.runner import Simulation

warnings.simplefilter("ignore", StationarityWarning)

def frames_per_abcast(config):
    sim = Simulation(config, seed=1)
    delivered = [0] * config.n
    def on_adeliver(pid, message, when):
        delivered[pid] += 1
    sim.add_adeliver_listener(on_adeliver)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    frames = sum(
        entry.callcount for entry in profiler.getstats()
        # Builtins are named by a string; the listener is this script's.
        if not isinstance(entry.code, str) and entry.code is not on_adeliver.__code__
    )
    crashed = set(config.faultload.crashed_processes())
    return frames / max(d for pid, d in enumerate(delivered) if pid not in crashed)

print(json.dumps({name: frames_per_abcast(WORKLOADS[name].build(0.1)) for name in sys.argv[1:]}))
"""


def count(names, hash_seed="0"):
    """Frames per abcast of the workloads *names*, in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=PYTHONPATH, PYTHONHASHSEED=hash_seed)
    child = subprocess.run(
        [sys.executable, "-c", COUNT, *names],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(MEASURED))
def test_frames_per_abcast_stay_within_budget(name):
    frames = count([name])[name]
    assert frames <= MEASURED[name] * SLACK, (
        f"{name}: {frames:.1f} Python frames per abcast, budget "
        f"{MEASURED[name] * SLACK:.1f}; a new helper call on the per-message path?"
    )


def test_the_count_is_exact():
    # Another hash seed, another set iteration order: same count, to the
    # frame, or the budget above would be noise.
    name = "sim_monolithic_n3_small"
    assert count([name], hash_seed="1") == count([name], hash_seed="2")


if __name__ == "__main__":
    for name, frames in count(sorted(MEASURED)).items():
        print(f"{name}: {frames:.1f} Python frames per abcast (budget {MEASURED[name] * SLACK:.1f})")
