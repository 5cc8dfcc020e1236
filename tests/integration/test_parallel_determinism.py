"""The determinism wall around the parallel sweep engine.

Two families of guarantees:

* **Determinism under parallelism** — a sweep's results (and the
  canonical JSON rendered from them) are byte-identical whether the
  grid runs serially or fans out over worker processes. This is what
  makes ``--jobs`` safe to use for *any* experiment in the repo.
* **Seed stability** — the exact metric values of representative
  figure-8/9 operating points are pinned for two known seeds. Any
  change to the simulator's event ordering, float association or RNG
  stream layout shows up here as a hard diff, not as a silent drift in
  regenerated figures.
* **Exact whole-run counts** — kernel events, messages, instances and
  latency samples of one run of every registered stack, to the last
  digit: an extra event or message per abcast fails on every host.
"""

from __future__ import annotations

import pytest

from repro.config import (
    ClientArrival,
    ClientPopulationConfig,
    FlowControlConfig,
    RunConfig,
    STACK_LABELS,
    StackConfig,
    StackKind,
    WorkloadConfig,
    stack_from_label,
)
from repro.experiments.export import dumps_canonical, sweep_to_dict
from repro.experiments.parallel import run_simulations, run_tasks
from repro.experiments.runner import run_simulation
from repro.experiments.sweeps import run_load_sweep
from repro.nemesis.swarm import generate_case, run_cases


def _square(value):  # module-level: must be picklable for worker processes
    return value * value


class TestRunTasks:
    def test_serial_and_parallel_agree_in_order(self):
        tasks = list(range(24))
        serial = run_tasks(_square, tasks, jobs=1)
        parallel = run_tasks(_square, tasks, jobs=3)
        assert serial == parallel == [v * v for v in tasks]

    def test_single_task_runs_in_process(self):
        assert run_tasks(_square, [7], jobs=8) == [49]


class TestDeterminismUnderParallelism:
    def test_sweep_json_is_byte_identical_across_jobs(self):
        kwargs = dict(
            loads=(500.0, 2000.0),
            group_sizes=(3,),
            seeds=(1, 2),
        )
        serial = run_load_sweep(jobs=1, **kwargs)
        fanned = run_load_sweep(jobs=4, **kwargs)
        assert dumps_canonical(sweep_to_dict(serial)) == dumps_canonical(
            sweep_to_dict(fanned)
        )

    def test_run_simulations_matches_direct_runs(self):
        config = RunConfig(
            n=3,
            stack=StackConfig(kind=StackKind.MONOLITHIC),
            workload=WorkloadConfig(offered_load=400.0, message_size=512),
            duration=0.6,
            warmup=0.2,
        )
        tasks = [(config, seed) for seed in (3, 4, 5)]
        batched = run_simulations(tasks, jobs=3)
        for (cfg, seed), result in zip(tasks, batched):
            direct = run_simulation(cfg, seed=seed)
            assert result.metrics == direct.metrics
            assert result.network == direct.network
            assert result.events_executed == direct.events_executed

    def test_population_sweep_json_is_byte_identical_across_jobs(self):
        """The lazy client-population model under the same wall: one
        skewed-bursty sweep point, byte-identical for any job count and
        stable across reruns (same process, fresh RNG registries)."""
        base = RunConfig(
            duration=0.6,
            warmup=0.2,
            workload=WorkloadConfig(
                population=ClientPopulationConfig(
                    clients=50_000, zipf_s=1.2, arrival=ClientArrival.BURSTY
                )
            ),
        )
        kwargs = dict(
            loads=(800.0,),
            group_sizes=(3,),
            stacks=(StackKind.MONOLITHIC,),
            seeds=(1, 2),
            base=base,
        )
        serial = dumps_canonical(sweep_to_dict(run_load_sweep(jobs=1, **kwargs)))
        fanned = dumps_canonical(sweep_to_dict(run_load_sweep(jobs=4, **kwargs)))
        rerun = dumps_canonical(sweep_to_dict(run_load_sweep(jobs=1, **kwargs)))
        assert serial == fanned
        assert serial == rerun
        # The point actually exercises the new reporting: finite p999
        # and a non-empty histogram for every seed.
        import json

        document = json.loads(serial)
        point = document["points"][0]
        assert point["latency_p999"]["mean"] > 0
        assert point["histogram"]
        for run in point["runs"]:
            assert run["metrics"]["latency_p999"] > 0
            assert run["metrics"]["active_clients"] > 0

    def test_nemesis_cases_identical_across_jobs(self):
        cases = [
            generate_case(stack, seed)
            for seed in (1, 2)
            for stack in ("modular", "monolithic")
        ]
        serial = run_cases(cases, jobs=1)
        fanned = run_cases(cases, jobs=3)
        assert [r.case for r in serial] == [r.case for r in fanned]
        assert [r.violations for r in serial] == [r.violations for r in fanned]
        assert [r.deliveries for r in serial] == [r.deliveries for r in fanned]
        assert [r.events_executed for r in serial] == [
            r.events_executed for r in fanned
        ]


# -- seed stability ---------------------------------------------------------

#: (throughput, latency_mean, latency_count, instances_decided,
#: messages_sent) of four figure operating points, for two known seeds.
#: Regenerate deliberately (and say why in the commit) with:
#:   PYTHONPATH=src python -c "see tests/integration/test_parallel_determinism.py"
GOLDEN = {
    ("fig8_modular", 1): (778.6666666666666, 0.011442388326268474, 1557, 389, 6227),
    ("fig8_modular", 2): (778.6666666666666, 0.011442388326268474, 1557, 389, 6227),
    ("fig8_monolithic", 1): (1057.1666666666667, 0.00728394495652219, 2116, 705, 2819),
    ("fig8_monolithic", 2): (1113.6666666666667, 0.006854715624607639, 2227, 743, 2971),
    ("fig9_modular", 1): (1218.0, 0.00728454822660063, 2436, 609, 9744),
    ("fig9_modular", 2): (1120.0, 0.007931343530356665, 2240, 560, 8960),
    ("fig9_monolithic", 1): (1999.6666666666667, 0.002342629295931682, 4001, 1867, 7466),
    ("fig9_monolithic", 2): (2000.3333333333333, 0.0025553365270475806, 3999, 1777, 7110),
}

POINTS = {
    "fig8_modular": (StackKind.MODULAR, 2000.0, 16384),
    "fig8_monolithic": (StackKind.MONOLITHIC, 2000.0, 16384),
    "fig9_modular": (StackKind.MODULAR, 2000.0, 1024),
    "fig9_monolithic": (StackKind.MONOLITHIC, 2000.0, 1024),
}


#: (throughput, latency_mean, latency_count, latency_p999,
#: active_clients) of one skewed-bursty population point, two seeds.
#: Pins the population model's whole draw pipeline: aggregate bursty
#: gaps, Zipf attribution (its own stream) and the histogram's p999.
POPULATION_GOLDEN = {
    1: (932.5, 0.0024733744085752604, 1867, 0.0047315125896148025, 772),
    2: (632.0, 0.002357657165169489, 1264, 0.003981071705534973, 606),
}


@pytest.mark.parametrize("seed", sorted(POPULATION_GOLDEN))
def test_seed_stability_of_population_point(seed):
    """Bit-exact pin of the skewed-bursty population point."""
    config = RunConfig(
        n=3,
        stack=StackConfig(kind=StackKind.MONOLITHIC),
        workload=WorkloadConfig(
            offered_load=800.0,
            population=ClientPopulationConfig(
                clients=50_000, zipf_s=1.2, arrival=ClientArrival.BURSTY
            ),
        ),
    )
    result = run_simulation(config, seed=seed)
    observed = (
        result.metrics.throughput,
        result.metrics.latency_mean,
        result.metrics.latency_count,
        result.metrics.latency_p999,
        result.metrics.active_clients,
    )
    assert observed == POPULATION_GOLDEN[seed], (
        f"population point seed={seed} drifted: "
        f"{observed} != {POPULATION_GOLDEN[seed]}"
    )


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_seed_stability_of_figure_points(name, seed):
    """Bit-exact pin of figure points under two seeds (no tolerance)."""
    kind, load, size = POINTS[name]
    config = RunConfig(
        n=3,
        stack=StackConfig(kind=kind),
        workload=WorkloadConfig(offered_load=load, message_size=size),
    )
    result = run_simulation(config, seed=seed)
    observed = (
        result.metrics.throughput,
        result.metrics.latency_mean,
        result.metrics.latency_count,
        result.instances_decided,
        result.network["messages_sent"],
    )
    assert observed == GOLDEN[(name, seed)], (
        f"{name} seed={seed} drifted: {observed} != {GOLDEN[(name, seed)]}"
    )


# -- exact whole-run counts -------------------------------------------------

#: (n, stack label, offered load, message size, flow-control window) →
#: (events_executed, messages_sent, instances_decided, latency_count) of
#: one whole run at seed 1, at least one row per registered stack; the
#: first seven are the points the retired events/s gate timed, the
#: distillation one shaped like the 2x batched-vs-plain-sequencer
#: acceptance comparison. Integers only, so the pins do not depend on
#: the interpreter's float ``sum``: no host can move them, and one extra
#: kernel event or message per abcast on any stack must.
EXACT_COUNTS = {
    "fig8_n3_modular_load7000": (
        (3, "modular", 7000.0, 16384, 3), (19911, 6009, 376, 1501)),
    "fig8_n3_monolithic_load7000": (
        (3, "monolithic", 7000.0, 16384, 3), (11819, 2796, 604, 1888)),
    "fig9_n3_modular_size32768": (
        (3, "modular", 2000.0, 32768, 3), (14111, 4256, 266, 1064)),
    "fig10_n7_modular_load2000": (
        (7, "modular", 2000.0, 16384, 3), (41234, 13857, 231, 924)),
    "fig11_n3_monolithic_size64": (
        (3, "monolithic", 2000.0, 64, 3), (30631, 8249, 1938, 4001)),
    "ring_n3_ringpaxos_load2000": (
        (3, "ringpaxos", 2000.0, 16384, 3), (10515, 2854, 258, 1032)),
    "distill_n3_batched_sequencer_load8000": (
        (3, "batched-sequencer", 8000.0, 64, 64), (61319, 6194, 2322, 16001)),
    "indirect_n3_load2000": (
        (3, "indirect", 2000.0, 16384, 3), (26147, 7894, 527, 1841)),
    "sequencer_n3_load2000": (
        (3, "sequencer", 2000.0, 16384, 3), (24912, 6475, 2603, 2603)),
}


def test_every_registered_stack_has_an_exact_pin():
    pinned = {point[1] for point, __ in EXACT_COUNTS.values()}
    assert pinned == set(STACK_LABELS)


@pytest.mark.parametrize("name", sorted(EXACT_COUNTS))
def test_exact_counts_of_whole_runs(name):
    """Integer pin of one whole run per point (no tolerance)."""
    (n, label, load, size, window), golden = EXACT_COUNTS[name]
    config = RunConfig(
        n=n,
        stack=stack_from_label(label),
        workload=WorkloadConfig(offered_load=load, message_size=size),
        flow_control=FlowControlConfig(window=window),
    )
    result = run_simulation(config, seed=1)
    observed = (
        result.events_executed,
        result.network["messages_sent"],
        result.instances_decided,
        result.metrics.latency_count,
    )
    assert observed == golden, f"{name} drifted: {observed} != {golden}"
