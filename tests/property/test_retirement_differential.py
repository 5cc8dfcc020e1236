"""Retirement is unobservable: a differential test against a reference.

A decided consensus instance drops its round state
(:meth:`repro.consensus.instance.InstanceState.retire`). Nothing a
module does afterwards may depend on what was dropped, so the same
adversarial schedule — random delivery order, duplicated messages, one
crash, a wrong suspicion raised and withdrawn, timers — is driven
through each module as built and through
:func:`tests.harness.never_retiring` of it, whose instances keep
everything. The two must return the same actions from every handler
call, in the same order: every message sent, every timer started or
cancelled, every decision handed up.

The whole-run form of the same claim is the fixed-output wall
(``model_digest`` in the benchmark, ``tests/data/nemesis/``,
``results/full_run.txt``).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abcast.monolithic import MonolithicAtomicBroadcast
from repro.abcast.ringpaxos import RingAcceptor, RingToken
from repro.consensus.messages import (
    Ack,
    Estimate,
    JoinRound,
    Proposal,
    RecoveryRequest,
)
from repro.stack.events import AbcastRequest, ProposeRequest
from repro.types import AppMessage, Batch, MessageId

from tests.conftest import net_message
from tests.harness import (
    RETIRING_MODULES,
    ModulePump,
    PendingMessage,
    never_retiring,
)

INSTANCES = 4
MAX_STEPS = 600
TIMER_ROUNDS = 3


class RecordingPump(ModulePump):
    """A pump that logs what every handler call returned."""

    def __init__(self, *args, **kwargs) -> None:
        self.log: list[tuple[int, list]] = []
        super().__init__(*args, **kwargs)

    def _execute(self, pid, actions):
        self.log.append((pid, list(actions)))
        super()._execute(pid, actions)


def drive(module_class, bridge, n, seed, crash, suspicions, instances=INSTANCES, late=False):
    """One schedule through one pump; returns the pump.

    Every choice comes from ``random.Random(seed)`` and the pump's queue
    length, so two pumps that behave alike are driven alike, and two
    that do not diverge in their logs at the first difference. With
    *late*, the quiet group then receives :func:`late_traffic` for every
    instance deep in the decided prefix.
    """
    rng = random.Random(seed)
    pump = RecordingPump(module_class, n, bridge_rbcast=bridge)
    if issubclass(module_class, MonolithicAtomicBroadcast):
        inputs = [
            (pid, AbcastRequest(AppMessage(MessageId(pid, seq), 16, 0.0)))
            for seq in range(instances)
            for pid in range(n)
        ]
    else:
        inputs = [
            (pid, ProposeRequest(k, Batch(k, (AppMessage(MessageId(pid, k), 16, 0.0),))))
            for k in range(instances)
            for pid in range(n)
        ]
    rng.shuffle(inputs)
    crash_step, crash_pid = crash if crash is not None else (None, None)
    # step -> [(observer, suspected, raise or withdraw)]; an observer
    # of n or more is "everyone". A wrong suspicion of a round's
    # coordinator is what opens a second round beside a first that may
    # still decide.
    script: dict[int, list[tuple[int, int, bool]]] = {}
    for start, observer, suspected, length in suspicions:
        script.setdefault(start, []).append((observer, suspected, True))
        script.setdefault(start + length, []).append((observer, suspected, False))
    if crash is not None:
        script.setdefault(crash_step + 7, []).append((n, crash_pid, True))
    delivered = []
    for step in range(MAX_STEPS):
        if step == crash_step:
            pump.crash(crash_pid)
        for observer, suspected, wrongly in script.get(step, ()):
            for pid in range(n) if observer >= n else (observer,):
                if pid == suspected or pid in pump.crashed:
                    continue
                if wrongly:
                    pump.suspect(pid, suspected)
                elif suspected not in pump.crashed:
                    pump.unsuspect(pid, suspected)
        roll = rng.random()
        if inputs and (roll < 0.3 or not pump.queue):
            pid, event = inputs.pop()
            pump.inject(pid, event)
        elif delivered and roll > 0.92:
            # The network duplicates an old message: late traffic for
            # instances that decided (and retired) long ago.
            pump.queue.append(PendingMessage(rng.choice(delivered)))
        elif pump.queue:
            delivered.append(pump.deliver_next(rng.randrange(len(pump.queue))))
        elif step > max(script, default=0):
            break
    quiesce(pump, rng)
    if late:
        # Deep: every instance but the last two the whole group decided.
        depth = min(len(m._decided) for pid, m in enumerate(pump.modules)
                    if pid not in pump.crashed) - 2
        stale = list(late_traffic(module_class, n, depth))
        rng.shuffle(stale)
        pump.queue.extend(PendingMessage(message) for message in stale)
        quiesce(pump, rng)
    return pump


def quiesce(pump, rng):
    """Run the queue dry, then let the retry timers (decision recovery,
    ring guard) fire a few times; a timer that re-arms forever is
    bounded here."""
    for __ in range(TIMER_ROUNDS):
        pump.run(pick=rng.randrange)
        for pid, name in sorted(pump.timers):
            pump.fire_timer(pid, name)
    pump.run(pick=rng.randrange)


def late_traffic(module_class, n, depth):
    """Every kind of consensus message a laggard or a duplicating
    network can deliver long after a decision, for instances
    ``0..depth-1``, from every process to every other."""
    for k in range(depth):
        value = Batch(k, (AppMessage(MessageId(0, k), 16, 0.0),))
        payloads = [
            ("ESTIMATE", Estimate(k, 1, value, 0)),
            ("ESTIMATE", Estimate(k, 2, value, 1)),
            ("JOIN", JoinRound(k, 2)),
            ("JOIN", JoinRound(k, n + 2)),
            ("PROPOSAL", Proposal(k, 1, value)),
            ("PROPOSAL", Proposal(k, 3, value)),
            ("ACK", Ack(k, 1)),
            ("ACK", Ack(k, 2)),
            ("RECOVER_REQ", RecoveryRequest(k, 1)),
        ]
        if issubclass(module_class, RingAcceptor):
            payloads.append(("RING", RingToken(k, value, (0,), ())))
            payloads.append(("RING", RingToken(k, None, (0, 1), (1,))))
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    for kind, payload in payloads:
                        yield net_message(kind, src, dst, payload)


def assert_act_alike(
    kind, n, seed, crash, suspicions, module_wrapper=lambda cls: cls, **schedule
):
    module_class, bridge = RETIRING_MODULES[kind]
    built = drive(module_wrapper(module_class), bridge, n, seed, crash, suspicions, **schedule)
    reference = drive(never_retiring(module_class), bridge, n, seed, crash, suspicions, **schedule)

    for step, (ours, theirs) in enumerate(zip(built.log, reference.log)):
        assert ours == theirs, f"handler call {step} differs: {ours} != {theirs}"
    assert len(built.log) == len(reference.log)
    assert built.timers == reference.timers
    assert built.up_events == reference.up_events

    # Not vacuous: the module as built did retire what it decided (into
    # the decided prefix, or in place), the reference kept everything.
    filed = [slot for m in built.modules for slot in m._decided if slot is not None]
    states = [s for m in built.modules for s in m._instances.values()]
    assert filed or any(s.retired for s in states) or not any(s.decided for s in states)
    assert not any(
        slot is not None for m in reference.modules for slot in m._decided
    )
    assert not any(
        s.retired for m in reference.modules for s in m._instances.values()
    )
    return built


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(sorted(RETIRING_MODULES)),
    n=st.sampled_from([3, 5]),
    seed=st.integers(min_value=0, max_value=2**20),
    crash=st.none() | st.tuples(st.integers(0, 80), st.integers(0, 2)),
    suspicions=st.lists(
        st.tuples(
            st.integers(0, 100),  # raised at this step
            st.integers(0, 5),  # by this process (n or more: by everyone)
            st.integers(0, 2),  # against this one
            st.integers(1, 40),  # withdrawn this many steps later
        ),
        max_size=3,
    ),
)
def test_a_module_and_its_never_retiring_reference_act_alike(
    kind, n, seed, crash, suspicions
):
    assert_act_alike(kind, n, seed, crash, suspicions)


#: Schedules (seed, one wrong suspicion of p0) in which a coordinator
#: learns the decision through another round and *then* collects the
#: majority for its own proposal — the one state retirement must leave
#: whole. Random schedules reach it about once in thirty, so two per
#: module are pinned; they were found by running ``drive`` over random
#: seeds with the counter below, which is also how to replace one that
#: a change to ``drive`` has made miss.
LATE_MAJORITY_SCHEDULES = [
    ("monolithic", 523236, (46, 1, 0, 36)),
    ("monolithic", 806184, (14, 2, 0, 9)),
    ("optimized", 333850, (25, 1, 0, 27)),
    ("optimized", 129908, (8, 3, 0, 7)),
    ("ringacceptor", 96973, (26, 2, 0, 25)),
    ("ringacceptor", 111025, (9, 1, 0, 14)),
    ("textbook", 757488, (17, 3, 0, 29)),
    ("textbook", 69334, (9, 3, 0, 37)),
]


@pytest.mark.parametrize("kind, seed, suspicion", LATE_MAJORITY_SCHEDULES)
def test_a_late_majority_after_a_foreign_decision_acts_alike(kind, seed, suspicion):
    late_majorities = []

    def counting(module_class):
        class Counting(module_class):
            def _maybe_decide(self, state, round_number):
                waiting = state.decided is not None and not state.decision_sent
                actions = super()._maybe_decide(state, round_number)
                if waiting and state.decision_sent:
                    late_majorities.append((self.ctx.pid, state.instance))
                    assert actions, "a late majority announces its decision"
                return actions

        return Counting

    assert_act_alike(kind, 3, seed, None, [suspicion], module_wrapper=counting)
    assert late_majorities, "this schedule no longer reaches a late majority"


@settings(max_examples=24, deadline=None)
@given(
    kind=st.sampled_from(sorted(RETIRING_MODULES)),
    n=st.sampled_from([3, 5]),
    seed=st.integers(min_value=0, max_value=2**20),
    suspicions=st.lists(
        st.tuples(
            st.integers(0, 100),
            st.integers(0, 5),
            st.integers(0, 2),
            st.integers(1, 40),
        ),
        max_size=1,
    ),
)
def test_late_traffic_deep_in_the_decided_prefix_acts_alike(kind, n, seed, suspicions):
    """Twelve instances' worth of input, then stale ESTIMATE, JOIN,
    PROPOSAL, ACK, RECOVER_REQ (and, on the ring, RING) traffic for
    every instance the whole group decided but the last two: answered
    from the decided-prefix log, it must act as the reference's whole
    instances do."""
    built = assert_act_alike(kind, n, seed, None, suspicions, instances=12, late=True)
    # Not vacuous: the late traffic reached instances the group had
    # filed into the decided prefix (a monolithic coordinator batches
    # its twelve abcasts per process into fewer instances).
    assert all(len(m._decided) >= 3 for m in built.modules)
