"""Differential test of the one abcast spec and its two drivers.

Random logs are drawn from a prefix family of one order, then hit with
one mutation. Three judges read each log: the post-hoc driver
(:meth:`OrderingChecker.verify`), the online driver (an
:class:`InvariantMonitor` fed an arbitrary interleaving) and a
pairwise-prefix reading of the four properties that shares no code with
:class:`AbcastSpec`. They must agree on pass/fail and on the invariant
named.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OrderingViolation
from repro.experiments.runner import Simulation
from repro.metrics.ordering import OrderingChecker
from repro.nemesis import swarm
from repro.nemesis.invariants import InvariantMonitor
from repro.types import AppMessage, MessageId

MUTATIONS = ("none", "swap", "duplicate", "foreign", "truncate", "crashed-sender")


def reference(sent, sequences, correct):
    """Invariants a log breaks, read pairwise (no cursor, no group order)."""
    broken = set()
    cleaned = []  # refused deliveries do not count as delivered
    for sequence in sequences:
        kept = [m for i, m in enumerate(sequence) if m in sent and m not in sequence[:i]]
        if kept != sequence:
            broken.add("uniform-integrity")
        cleaned.append(kept)
    for a in cleaned:
        if any(a[: len(b)] != b[: len(a)] for b in cleaned):
            broken.add("total-order")
    anywhere = {m for sequence in cleaned for m in sequence}
    owed = {m for m in sent if m.sender in correct}
    for pid in correct:
        if anywhere - set(cleaned[pid]):
            broken.add("uniform-agreement")
        if owed - set(cleaned[pid]):
            broken.add("validity")
    return broken


def message(mid):
    return AppMessage(mid, size=1, abcast_time=0.0)


def post_hoc(n, sent, sequences, correct):
    """The invariant OrderingChecker names, or None."""
    checker = OrderingChecker(n)
    for mid in sent:
        checker.on_abcast(message(mid))
    for pid, sequence in enumerate(sequences):
        for mid in sequence:
            checker.on_adeliver(pid, message(mid), 0.0)
    try:
        checker.verify(correct=correct, expect_all_delivered=True)
    except OrderingViolation as exc:
        return str(exc).split(":")[0]
    return None


def online(n, sent, sequences, correct, rng=None):
    """Every invariant an InvariantMonitor flags, in flagging order.

    With *rng* the deliveries arrive in a random interleaving that keeps
    each process's own order; without, in the post-hoc driver's order.
    """
    monitor = InvariantMonitor(n)
    for mid in sent:
        monitor.on_abcast(message(mid))
    pending = [(pid, list(sequence)) for pid, sequence in enumerate(sequences)]
    clock = 0.0
    while any(sequence for __, sequence in pending):
        ready = [entry for entry in pending if entry[1]]
        pid, sequence = rng.choice(ready) if rng is not None else ready[0]
        clock += 0.001
        monitor.on_adeliver(pid, message(sequence.pop(0)), clock)
    crashed = set(range(n)) - correct
    return [v.invariant for v in monitor.finalize(now=clock, crashed=crashed)]


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    length=st.integers(min_value=2, max_value=24),
    mutation=st.sampled_from(MUTATIONS),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_both_drivers_and_the_pairwise_reference_agree(n, length, mutation, seed):
    rng = random.Random(seed)
    order = [MessageId(i % n, i // n) for i in range(length)]
    sent = set(order)
    correct = set(rng.sample(range(n), k=rng.randrange(1, n + 1)))
    # Correct processes deliver everything; crashed ones stop anywhere.
    sequences = [
        list(order if pid in correct else order[: rng.randrange(length + 1)])
        for pid in range(n)
    ]
    victim = rng.randrange(n)
    target = sequences[victim]
    if mutation == "swap" and len(target) >= 2:
        at = rng.randrange(len(target) - 1)
        target[at], target[at + 1] = target[at + 1], target[at]
    elif mutation == "duplicate" and target:
        at = rng.randrange(len(target))
        target.insert(rng.randrange(at + 1, len(target) + 1), target[at])
    elif mutation == "foreign":
        target.insert(rng.randrange(len(target) + 1), MessageId(victim, 10_000))
    elif mutation == "truncate":
        victim = rng.choice(sorted(correct))
        del sequences[victim][rng.randrange(length) :]
    elif mutation == "crashed-sender" and len(correct) < n:
        # Accepted by a process that then crashed: nobody owes it.
        sent.add(MessageId(min(set(range(n)) - correct), 10_000))

    expected = reference(sent, sequences, correct)
    named = post_hoc(n, sent, sequences, correct)
    same_order = online(n, sent, sequences, correct)
    interleaved = online(n, sent, sequences, correct, rng)

    assert (named is None) == (not expected) == (not same_order) == (not interleaved)
    if named is not None:
        assert named in expected
        assert named == same_order[0]
    # Which steps are refused does not depend on the interleaving.
    safety = {"uniform-integrity", "total-order"}
    assert set(interleaved) & safety == set(same_order) & safety == expected & safety
    if not expected & safety:
        assert set(interleaved) == set(same_order) == expected


@pytest.mark.filterwarnings("ignore::repro.errors.StationarityWarning")
def test_broken_fixture_is_flagged_by_both_drivers_at_the_same_delivery():
    case = swarm.generate_case("broken", 2)
    simulation = Simulation(
        swarm.build_config(case),
        seed=case.seed,
        stack_factory=swarm.STACKS["broken"].factory,
    )
    monitor = InvariantMonitor(case.n).attach(simulation)
    checker = OrderingChecker(case.n)
    simulation.add_accept_listener(checker.on_abcast)
    simulation.add_adeliver_listener(checker.on_adeliver)
    simulation.run(drain=0.5)

    first = monitor.violations[0]
    assert first.trace_slice[-1][1:] == ("p2", "abcast", "adeliver m(2:31)")
    with pytest.raises(OrderingViolation) as caught:
        checker.verify()
    assert str(caught.value) == f"{first.invariant}: {first.description}"
