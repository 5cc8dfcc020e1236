"""Unit tests for compiling a faultload into steps, and its readers."""

from pathlib import Path

import pytest

from repro.config import (
    DelaySpike,
    FaultloadConfig,
    LinkFaultMode,
    LossBurst,
    PartitionEvent,
    RunConfig,
)
from repro.errors import DeploymentError
from repro.experiments.runner import Simulation
from repro.live.faults import compile_live_faultload
from repro.nemesis.invariants import InvariantMonitor
from repro.nemesis.schedule import SCENARIOS, named_scenario
from repro.nemesis.swarm import load_case
from repro.net.faults import FaultInjector
from repro.net.message import NetMessage
from repro.nemesis.steps import (
    HEAL_JITTER,
    compile_faultload,
    install_link_faults,
    last_disruption_time,
)
from repro.sim.kernel import Kernel


def _msg(src=0, dst=1):
    return NetMessage(
        kind="K", module="m", src=src, dst=dst, payload=None,
        payload_size=100, header_size=0,
    )


def _installed(faultload, kernel=None):
    kernel = kernel or Kernel(seed=3)
    injector = FaultInjector()
    install_link_faults(injector, compile_faultload(faultload), kernel)
    return kernel, injector


def _advance(kernel, until):
    kernel.schedule_at(until, lambda: None)
    kernel.run(until=until)


def test_empty_faultload_installs_no_filters():
    __, injector = _installed(FaultloadConfig())
    assert not injector.filters


def test_hold_partition_delays_severed_messages_until_heal():
    partition = PartitionEvent(start=0.2, heal=0.6, groups=((0,), (1, 2)))
    kernel, injector = _installed(FaultloadConfig(partitions=(partition,)))

    # Before the partition: untouched.
    assert injector.judge(_msg(0, 1)) == 0.0

    # During: held until (at least) the heal time.
    _advance(kernel, 0.3)
    delay = injector.judge(_msg(0, 1))
    assert 0.3 <= delay <= 0.3 + HEAL_JITTER

    # During, but within one side: untouched.
    assert injector.judge(_msg(1, 2)) == 0.0

    # After the heal: untouched.
    _advance(kernel, 0.7)
    assert injector.judge(_msg(0, 1)) == 0.0


def test_drop_partition_destroys_severed_messages():
    partition = PartitionEvent(
        start=0.0, heal=1.0, groups=((0,), (1, 2)), mode=LinkFaultMode.DROP
    )
    kernel, injector = _installed(FaultloadConfig(partitions=(partition,)))
    _advance(kernel, 0.5)
    assert injector.judge(_msg(0, 1)) is None
    assert injector.judge(_msg(2, 1)) == 0.0


def test_unlisted_processes_form_the_implicit_rest_group():
    # groups=((0,),) is shorthand for "isolate p0": the others keep
    # talking among themselves.
    partition = PartitionEvent(
        start=0.0, heal=1.0, groups=((0,),), mode=LinkFaultMode.DROP
    )
    kernel, injector = _installed(FaultloadConfig(partitions=(partition,)))
    _advance(kernel, 0.5)
    assert injector.judge(_msg(0, 2)) is None
    assert injector.judge(_msg(1, 2)) == 0.0


def test_certain_loss_burst_charges_a_retransmission_delay():
    burst = LossBurst(
        start=0.0, end=1.0, probability=1.0, src=0, dst=1, retry_delay=0.2
    )
    kernel, injector = _installed(FaultloadConfig(loss_bursts=(burst,)))
    _advance(kernel, 0.5)
    delay = injector.judge(_msg(0, 1))
    assert 0.1 <= delay <= 0.3  # retry_delay * (0.5 + U[0,1))
    # Other links unaffected.
    assert injector.judge(_msg(1, 0)) == 0.0


def test_impossible_loss_burst_never_fires():
    burst = LossBurst(start=0.0, end=1.0, probability=0.0)
    kernel, injector = _installed(FaultloadConfig(loss_bursts=(burst,)))
    _advance(kernel, 0.5)
    for __ in range(50):
        assert injector.judge(_msg(0, 1)) == 0.0


def test_drop_loss_burst_destroys_matched_messages():
    burst = LossBurst(
        start=0.0, end=1.0, probability=1.0, mode=LinkFaultMode.DROP
    )
    kernel, injector = _installed(FaultloadConfig(loss_bursts=(burst,)))
    _advance(kernel, 0.5)
    assert injector.judge(_msg(0, 1)) is None


def test_delay_spike_adds_bounded_extra_delay_only_in_window():
    spike = DelaySpike(start=0.2, end=0.4, extra_delay=0.01, jitter=0.005)
    kernel, injector = _installed(FaultloadConfig(delay_spikes=(spike,)))
    assert injector.judge(_msg()) == 0.0
    _advance(kernel, 0.3)
    delay = injector.judge(_msg())
    assert 0.01 <= delay <= 0.015
    _advance(kernel, 0.5)
    assert injector.judge(_msg()) == 0.0


def test_link_fault_draws_replay_bit_for_bit_from_the_seed():
    burst = LossBurst(start=0.0, end=1.0, probability=0.5, retry_delay=0.1)
    faultload = FaultloadConfig(loss_bursts=(burst,))

    def delays(seed):
        kernel, injector = _installed(faultload, Kernel(seed=seed))
        _advance(kernel, 0.5)
        return [injector.judge(_msg()) for __ in range(30)]

    assert delays(11) == delays(11)
    assert delays(11) != delays(12)


# -- one reading: every consumer executes the same compiled steps -------------

GOLDEN = Path(__file__).resolve().parents[2] / "data" / "nemesis"

#: Every named scenario, plus a saved case that draws all five event kinds.
FAULTLOADS = {name: named_scenario(name, 3) for name in SCENARIOS}
FAULTLOADS["case-modular-seed38"] = load_case(
    GOLDEN / "case-modular-seed38.json"
).faultload

#: The faultloads whose every step has a live verb.
LIVE = [
    name
    for name, faultload in FAULTLOADS.items()
    if not (faultload.loss_bursts or faultload.wrong_suspicions)
]


def _in_time_order(steps):
    return sorted(steps, key=lambda step: step.at)


@pytest.mark.parametrize("name", FAULTLOADS)
def test_the_monitor_notes_every_step_text_in_time_order(name):
    faultload = FAULTLOADS[name]
    config = RunConfig(n=3, faultload=faultload, warmup=0.2, duration=1.0)
    sim = Simulation(config, seed=1, with_workload=False)
    monitor = InvariantMonitor(3).attach(sim)
    sim.run()
    notes = [(t, text) for t, __, layer, text in monitor.trace_slice if layer == "fault"]
    steps = _in_time_order(compile_faultload(faultload))
    assert notes == [(step.at, step.text) for step in steps]


@pytest.mark.parametrize("name", FAULTLOADS)
def test_the_last_disruption_is_the_last_step(name):
    steps = compile_faultload(FAULTLOADS[name])
    # Each fault is over at its crash, heal, end or retraction.
    ends = [step.at for step in steps if step.kind in ("crash", "off", "retract")]
    last = max((step.at for step in steps), default=0.0)
    assert last_disruption_time(steps) == last == max(ends, default=0.0)


@pytest.mark.parametrize("name", LIVE)
def test_live_actions_carry_the_step_times_and_texts(name):
    steps = compile_faultload(FAULTLOADS[name])
    actions = compile_live_faultload(FAULTLOADS[name], 3, restart_delay=0.4)
    links = [step for step in _in_time_order(steps) if step.kind in ("on", "off")]
    assert [(a.at, a.describe) for a in actions if a.kind == "fault"] == [
        (step.at, step.text) for step in links
    ]
    crashes = [(step.at, step.process) for step in steps if step.kind == "crash"]
    assert [(a.at, a.pid) for a in actions if a.kind == "kill"] == crashes
    assert [(a.at, a.pid) for a in actions if a.kind == "restart"] == [
        (at + 0.4, pid) for at, pid in crashes
    ]


def test_steps_without_a_live_verb_are_refused_by_field_name():
    with pytest.raises(DeploymentError, match="live mode: loss_bursts, wrong_suspicions "):
        compile_live_faultload(FAULTLOADS["case-modular-seed38"], 3)
