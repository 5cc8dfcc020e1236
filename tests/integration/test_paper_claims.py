"""The paper's evaluation claims, checked where the tests are run.

One test per qualitative result of Figs. 8-11, of the §4 ablation and of
the two extension stacks: the paper's sentence in the docstring, the
band the simulator is held to in the assertion. Runs are short but past
warm-up (0.6 s after 0.3 s, seed 1), and every ``(n, stack, load, size)``
operating point is simulated once and shared by the claims that read
it. ``python -m repro <figureN|ablation>`` prints the full-resolution
tables; EXPERIMENTS.md records those against the paper.

Left to the surviving tests that already assert them: throughput equals
a light offered load, saturation blocks offers and the stacks are close
at low load (``test_good_runs.py``), the §5.2 closed forms
(``test_analytical_validation.py``), sequencer > monolithic > modular
throughput at n = 3 (``test_sequencer_stack.py``) and the halved data
volume of indirect consensus (``test_indirect_stack.py``).
"""

import functools

import pytest

from repro.config import RunConfig, WorkloadConfig, monolithic_stack, stack_from_label
from repro.experiments.ablation import VARIANTS
from repro.experiments.runner import run_simulation

MODULAR, MONOLITHIC, INDIRECT, SEQUENCER = map(
    stack_from_label, ("modular", "monolithic", "indirect", "sequencer")
)
PAPER_STACKS = pytest.mark.parametrize(
    "stack", [MODULAR, MONOLITHIC], ids=["modular", "monolithic"]
)
GROUP_SIZES = pytest.mark.parametrize("n", [3, 7])

#: Figs. 8 and 10 sweep the load at 16 KiB; Figs. 9 and 11 the size at
#: 2000 msg/s.
SIZE, LOW_LOAD, HIGH_LOAD = 16384, 300.0, 7000.0
LOAD, SMALL, MEDIUM, LARGE = 2000.0, 64, 4096, 32768


@functools.cache
def run(n, stack, load, size):
    """That operating point's result: simulated on first use, then shared."""
    config = RunConfig(
        n=n,
        stack=stack,
        workload=WorkloadConfig(offered_load=load, message_size=size),
        duration=0.6,
        warmup=0.3,
    )
    return run_simulation(config, seed=1)


def latency(*point):
    return run(*point).metrics.latency_mean


def throughput(*point):
    return run(*point).metrics.throughput


def latency_gap(n, load, size):
    """How much lower the monolithic stack's early latency is."""
    return 1.0 - latency(n, MONOLITHIC, load, size) / latency(n, MODULAR, load, size)


def throughput_gain(n, load, size):
    """How much more the monolithic stack delivers per second."""
    modular = throughput(n, MODULAR, load, size)
    return throughput(n, MONOLITHIC, load, size) / modular - 1.0


@GROUP_SIZES
def test_fig8_high_load_latency_gap(n):
    """As load grows the monolithic stack's early latency is 30 %
    (n = 7) to 50 % (n = 3) lower."""
    gap = latency_gap(n, HIGH_LOAD, SIZE)
    # Paper: 30-50 % lower; accept the simulator's 25-65 % band.
    assert 0.25 <= gap <= 0.65, f"latency gap {gap:.0%} outside expected band"


@PAPER_STACKS
def test_fig8_latency_rises_then_plateaus(stack):
    """Latency grows with load; both curves plateau under flow control."""
    low, very_high, high = (
        latency(3, stack, load, SIZE) for load in (LOW_LOAD, 5000.0, HIGH_LOAD)
    )
    assert low < high
    # Plateau: the last two loads agree within 25 %.
    assert 0.75 <= high / very_high <= 1.33


@GROUP_SIZES
def test_fig9_latency_gap_narrows_with_size(n):
    """The monolithic stack's latency is ~50 % lower for small messages;
    as size grows, per-byte costs take over and the gap narrows to 25 %
    (n = 7) / 35 % (n = 3)."""
    gap_small, gap_large = latency_gap(n, LOAD, SMALL), latency_gap(n, LOAD, LARGE)
    assert gap_small >= 0.40, f"small-size latency gap only {gap_small:.0%}"
    assert 0.15 <= gap_large < gap_small


@PAPER_STACKS
def test_fig9_latency_flat_then_rising(stack):
    """Latency is flat for small sizes and rises with large ones."""
    small, medium, large = (
        latency(3, stack, LOAD, size) for size in (SMALL, MEDIUM, LARGE)
    )
    assert medium < 2.5 * small  # flat-ish up to a few KiB...
    assert large > 1.5 * medium  # ...then clearly rising at 32 KiB


@GROUP_SIZES
def test_fig10_high_load_throughput_gap(n):
    """At high offered load the monolithic stack sustains 25 % (n = 7)
    to 30 % (n = 3) more messages per second."""
    gain = throughput_gain(n, HIGH_LOAD, SIZE)
    # The simulator reproduces n=3 closely; at n=7 the purely
    # coordinator-bound model amplifies the gap (EXPERIMENTS.md).
    if n == 3:
        assert 0.15 <= gain <= 0.50, f"n=3 gain {gain:.0%}"
    else:
        assert gain >= 0.25, f"n=7 gain {gain:.0%}"


@PAPER_STACKS
def test_fig10_plateau_under_flow_control(stack):
    """Throughput reaches a flow-control plateau as load grows: 4000 and
    7000 msg/s offered deliver the same."""
    at_4000 = throughput(3, stack, 4000.0, SIZE)
    assert 0.8 <= throughput(3, stack, HIGH_LOAD, SIZE) / at_4000 <= 1.25


@GROUP_SIZES
def test_fig11_monolithic_wins_at_small_sizes(n):
    """Monolithic throughput is 10-15 % higher at small sizes."""
    assert throughput_gain(n, LOAD, SMALL) >= 0.0


def test_fig11_throughput_degrades_with_size():
    """Throughput stays constant up to a size knee and degrades beyond."""
    small = throughput(3, MODULAR, LOAD, SMALL)
    assert throughput(3, MODULAR, LOAD, LARGE) < 0.6 * small


def test_fig11_large_groups_degrade_faster_with_size():
    """n = 7 loses proportionally more throughput than n = 3 as the size
    grows (the proposal must carry M·l bytes to n-1 processes). The
    effect shows on the monolithic curves, which are not yet
    fixed-cost-saturated at small sizes (see EXPERIMENTS.md)."""
    retention = {}
    for n in (3, 7):
        small = throughput(n, MONOLITHIC, LOAD, SMALL)
        retention[n] = throughput(n, MONOLITHIC, LOAD, LARGE) / small
    assert retention[7] < retention[3]


def test_fig11_monolithic_gap_at_high_offered_small_size():
    """At small sizes and moderate load the gap is modest (paper:
    10-15 %) because neither stack is byte-bound yet."""
    assert throughput_gain(3, 4000.0, 1024) > 0.0


def test_ablation_at_fixed_cost_dominated_point():
    """§4 at 1 KiB, saturating load, each optimization toggled alone:
    even the unoptimized monolithic module beats the composed stack (no
    boundary crossings, single header — the mechanical gain); the full
    §4.1-§4.3 combination is the best monolithic variant here and needs
    the fewest messages per consensus (the algorithmic gain)."""
    rows = {}
    for label, switches in VARIANTS:
        stack = MODULAR if switches is None else monolithic_stack(switches)
        rows[label] = run(3, stack, 4000.0, 1024)
    modular = rows["modular (reference)"]
    none = rows["mono, no optimizations"]
    full = rows["mono, all (paper)"]
    assert none.metrics.throughput > modular.metrics.throughput
    assert none.metrics.latency_mean < modular.metrics.latency_mean
    assert full.metrics.throughput >= none.metrics.throughput
    assert full.metrics.latency_mean <= none.metrics.latency_mean
    assert full.messages_per_consensus == min(
        row.messages_per_consensus for row in rows.values()
    )
    for label in ("§4.1 combine", "§4.2 piggyback", "§4.3 cheap-rb"):
        single = rows[f"mono, only {label}"]
        assert single.messages_per_consensus < none.messages_per_consensus


def test_sequencer_latency_beats_the_modular_stack_at_n3():
    """A fixed sequencer (no fault tolerance) bounds the stacks from
    above at n = 3, in latency as in throughput."""
    sequencer = latency(3, SEQUENCER, HIGH_LOAD, SIZE)
    assert sequencer < latency(3, MODULAR, HIGH_LOAD, SIZE)


def test_batched_consensus_overtakes_sequencer_at_n7():
    """At n = 7 the monolithic stack overtakes the sequencer: ordering
    M = 4 messages per consensus amortizes fixed costs over batches,
    which message-at-a-time sequencing cannot do — but the modular
    stack's per-message overheads still lose to it."""
    mono, sequencer, modular = (
        throughput(7, stack, HIGH_LOAD, SIZE)
        for stack in (MONOLITHIC, SEQUENCER, MODULAR)
    )
    assert mono > sequencer > modular


@GROUP_SIZES
def test_cost_of_fault_tolerance_is_bounded(n):
    """The gap between the sequencer and the monolithic stack is the
    price of tolerating crashes at all; it stays within a small factor."""
    sequencer = throughput(n, SEQUENCER, HIGH_LOAD, SIZE)
    assert 0.5 < sequencer / throughput(n, MONOLITHIC, HIGH_LOAD, SIZE) < 3.0


def test_indirect_consensus_beats_direct_modular_and_the_monoliths_volume():
    """Ekwall & Schiper's indirect consensus (related work [12]) keeps
    the modular reduction but orders message ids: at a byte-bound point
    it is faster than the paper's direct modular stack with the same
    message count, and per ordered message it moves (n-1)·l bytes —
    below even the monolithic (n-1)(1+1/n)·l."""
    indirect, direct, mono = (
        run(3, stack, 4000.0, SIZE) for stack in (INDIRECT, MODULAR, MONOLITHIC)
    )
    assert indirect.metrics.throughput > direct.metrics.throughput
    assert indirect.metrics.latency_mean < direct.metrics.latency_mean
    assert indirect.messages_per_consensus == pytest.approx(
        direct.messages_per_consensus, rel=0.02
    )
    assert (
        indirect.payload_bytes_per_consensus / indirect.delivered_per_consensus
        < mono.payload_bytes_per_consensus / mono.delivered_per_consensus
    )
