"""Edge cases of the consensus machinery: tiny groups, even groups,
interleaved instances, stale traffic, traffic for retired instances."""

import pytest

from repro.abcast.messages import AckWithDiffusion, CombinedProposal
from repro.abcast.ringpaxos import RingToken
from repro.consensus.messages import (
    Ack,
    DecisionTag,
    DecisionValue,
    Estimate,
    JoinRound,
    Proposal,
    RecoveryRequest,
)
from repro.consensus.optimized import OptimizedConsensus
from repro.net.message import NetMessage
from repro.stack.actions import EmitDown, Send
from repro.stack.events import (
    AbcastRequest,
    DecideIndication,
    ProposeRequest,
    RbcastRequest,
    RdeliverIndication,
)
from repro.types import Batch

from tests.conftest import app_message, net_message
from tests.harness import RETIRING_MODULES, ModulePump, never_retiring


def make_pump(n):
    return ModulePump(lambda ctx: OptimizedConsensus(ctx), n, bridge_rbcast=True)


def decisions(pump, pid):
    return [e for e in pump.up_events[pid] if isinstance(e, DecideIndication)]


def batch_for(k, pid):
    return Batch(k, (app_message(sender=pid),))


def test_two_process_group_decides():
    """n=2: majority is 2, so the coordinator needs the other's ack."""
    pump = make_pump(2)
    pump.inject(0, ProposeRequest(0, batch_for(0, 0)))
    assert not decisions(pump, 0)  # own ack alone is not a majority
    pump.run()
    assert decisions(pump, 0) and decisions(pump, 1)
    assert decisions(pump, 1)[0].value == decisions(pump, 0)[0].value


def test_even_group_majority():
    """n=4: majority is 3 — the coordinator plus two acks."""
    pump = make_pump(4)
    pump.inject(0, ProposeRequest(0, batch_for(0, 0)))
    # Deliver the proposal to p1 only and its ack back: 2 < 3 majority.
    for __ in range(2):
        index = next(
            i
            for i, m in enumerate(pump.deliverable())
            if m.dst in (0, 1) and m.kind in ("PROPOSAL", "ACK")
        )
        pump.deliver_next(index)
    assert not decisions(pump, 0)
    pump.run()
    assert all(decisions(pump, pid) for pid in range(4))


def test_many_interleaved_instances_decide_independently():
    pump = make_pump(3)
    values = {}
    for k in range(6):
        values[k] = batch_for(k, 0)
        pump.inject(0, ProposeRequest(k, values[k]))
    # Shuffle-ish delivery: always pick the last queued message.
    while pump.queue:
        pump.deliver_next(len(pump.queue) - 1)
    for pid in range(3):
        decided = {d.instance: d.value for d in decisions(pump, pid)}
        assert decided == values


def test_stale_proposal_from_older_round_is_not_acked():
    pump = make_pump(3)
    module = pump.modules[2]
    # p2 is already in round 2 (it suspected p0 after proposing).
    pump.inject(2, ProposeRequest(0, batch_for(0, 2)))
    pump.suspect(2, 0)
    assert module.instance(0).round == 2
    stale = Proposal(0, 1, batch_for(0, 0))
    actions = module.handle_message(net_message("PROPOSAL", 0, 2, stale))
    acks = [a for a in actions if getattr(a, "kind", None) == "ACK"]
    assert acks == []


def test_ack_for_unproposed_round_is_inert():
    pump = make_pump(3)
    module = pump.modules[0]
    actions = module.handle_message(net_message("ACK", 1, 0, Ack(5, 3)))
    assert actions == []
    assert module.instance(5).decided is None


def test_jump_to_later_round_via_proposal():
    pump = make_pump(5)
    module = pump.modules[3]
    advanced = Proposal(0, 3, batch_for(0, 2))
    actions = module.handle_message(net_message("PROPOSAL", 2, 3, advanced))
    assert module.instance(0).round == 3
    acks = [a for a in actions if getattr(a, "kind", None) == "ACK"]
    assert len(acks) == 1
    assert acks[0].dst == 2  # the round-3 coordinator


def test_estimate_to_decided_instance_gets_help():
    pump = make_pump(3)
    pump.inject(0, ProposeRequest(0, batch_for(0, 0)))
    pump.run()
    module = pump.modules[0]
    from repro.consensus.messages import Estimate

    actions = module.handle_message(
        net_message("ESTIMATE", 2, 0, Estimate(0, 2, Batch(0), 0))
    )
    responses = [a for a in actions if getattr(a, "kind", None) == "RECOVER_RESP"]
    assert len(responses) == 1
    assert responses[0].dst == 2


def test_suspicion_without_active_instances_is_harmless():
    pump = make_pump(3)
    pump.suspect(1, 0)
    pump.run()
    assert all(not decisions(pump, pid) for pid in range(3))


def test_lone_wrong_suspicion_plus_crash_cannot_strand_the_group():
    """Regression (found by the nemesis swarm): p2 is crashed and p1
    *alone* wrongly suspects the live round-1 coordinator p0. p1 moves
    to round 2 and stops acking round 1, so neither round has a
    majority among the suspecting processes alone. The JOIN broadcast
    must pull p0 into round 2 even though p0 suspects nobody."""
    pump = make_pump(3)
    pump.crash(2)
    pump.inject(0, ProposeRequest(0, batch_for(0, 0)))
    pump.inject(1, ProposeRequest(0, batch_for(0, 1)))
    pump.suspect(1, 0)
    pump.run()
    assert decisions(pump, 0) and decisions(pump, 1)
    assert decisions(pump, 0)[0].value == decisions(pump, 1)[0].value


def test_join_for_a_fresh_instance_is_safe():
    """A JOIN may reach a process that never proposed for the instance;
    it must join with an empty estimate rather than ignore or crash."""
    from repro.consensus.messages import JoinRound

    pump = make_pump(3)
    module = pump.modules[2]
    actions = module.handle_message(net_message("JOIN", 1, 2, JoinRound(0, 2)))
    assert module.instance(0).round == 2
    estimates = [a for a in actions if getattr(a, "kind", None) == "ESTIMATE"]
    assert [a.dst for a in estimates] == [1]  # to the round-2 coordinator


# -- traffic for a retired instance ------------------------------------------
#
# A decided instance keeps its decision and nothing else (InstanceState
# .retire, then one slot of the decided prefix). Whatever arrives for it
# afterwards must be answered as it was when the round state was kept:
# literally the actions below, and the actions of the never-retiring
# reference under the same stimulus.

def decided_everywhere(kind, wrap=lambda module_class: module_class):
    """A group of three that ran instance 0 to its decision in a good run."""
    module_class, bridge = RETIRING_MODULES[kind]
    pump = ModulePump(wrap(module_class), 3, bridge_rbcast=bridge)
    message = app_message(sender=0, seq=0)
    value = Batch(0, (message,))
    if kind == "monolithic":
        pump.inject(0, AbcastRequest(message))
    else:
        for pid in range(3):
            pump.inject(pid, ProposeRequest(0, value))
    pump.run()
    assert all(module.instance(0).decided == value for module in pump.modules)
    return pump, value


def late_traffic(kind, value, dst):
    """``(label, stimulus from p1, whether the answer is the decision)``."""

    def message(kind_, payload):
        return net_message(kind_, 1, dst, payload)

    yield "stray ack", message("ACK", Ack(0, 1)), False
    yield "ack of a round nobody proposed", message("ACK", Ack(0, 4)), False
    yield "late proposal", message("PROPOSAL", Proposal(0, 1, value)), False
    yield "late later-round proposal", message("PROPOSAL", Proposal(0, 2, value)), False
    yield "estimate", message("ESTIMATE", Estimate(0, 2, Batch(0), 0)), True
    yield "join", message("JOIN", JoinRound(0, 2)), True
    yield "recovery request", message("RECOVER_REQ", RecoveryRequest(0, 1)), True
    yield "duplicate decision value", message("RECOVER_RESP", DecisionValue(0, value)), False
    if kind == "monolithic":
        yield "stray piggybacking ack", message(
            "ACKPIGGY", AckWithDiffusion(Ack(0, 1), ())
        ), False
        yield "late combined proposal", message(
            "COMBINED", CombinedProposal(Proposal(0, 1, value), None)
        ), False
        yield "duplicate tag", message("DECISION", DecisionTag(0, 1)), False
        yield "duplicate value", message("DECISION", DecisionValue(0, value)), False
    else:
        yield "duplicate tag rdelivery", RdeliverIndication(
            DecisionTag(0, 1), 24, origin=0
        ), False
        yield "duplicate value rdelivery", RdeliverIndication(
            DecisionValue(0, value), 124, origin=0
        ), False
    if kind == "ringacceptor":
        yield "stale lap", message("RING", RingToken(0, value, (0, 1), (1,))), True
        yield "stale tag-only lap", message("RING", RingToken(0, None, (0, 1), ())), True


def handle(module, stimulus):
    if isinstance(stimulus, NetMessage):
        return module.handle_message(stimulus)
    return module.handle_event(stimulus)


@pytest.mark.parametrize("dst", [0, 2], ids=["coordinator", "follower"])
@pytest.mark.parametrize("kind", sorted(RETIRING_MODULES))
def test_a_retired_instance_answers_late_traffic_as_before(kind, dst):
    pump, value = decided_everywhere(kind)
    reference, __ = decided_everywhere(kind, wrap=never_retiring)
    module, kept = pump.modules[dst], reference.modules[dst]
    assert module.instance(0).retired and not kept.instance(0).retired
    help_ = DecisionValue(0, value)
    for label, stimulus, helped in late_traffic(kind, value, dst):
        actions = handle(module, stimulus)
        expected = [Send(1, "RECOVER_RESP", help_, help_.wire_size)] if helped else []
        assert actions == expected, label
        assert actions == handle(kept, stimulus), label
        state = module.instance(0)
        assert state.retired and state.decided == value, label
    # Instance 0 lives in the decided prefix as its decision alone, and
    # no late stimulus gave it (or any other instance) state again.
    assert module._decided == [value] and module._instances == {}


def test_stray_acks_are_not_stored_before_or_after_the_decision():
    """An ack answers a proposal: one for a round this process never
    proposed in (a hostile or misrouted ACK in a live group) is dropped,
    not filed under ``acks[round]`` for ever."""
    pump = make_pump(3)
    module = pump.modules[2]
    for round_number in range(1, 50):
        assert module.handle_message(
            net_message("ACK", 1, 2, Ack(0, round_number))
        ) == []
    assert module.instance(0).acks == {}
    pump.inject(0, ProposeRequest(0, batch_for(0, 0)))
    pump.run()
    assert module.instance(0).retired
    assert module.handle_message(net_message("ACK", 1, 2, Ack(0, 1))) == []


def test_coordinator_that_decided_through_another_round_still_announces_its_own():
    """The one decided instance that keeps its round state: p1 proposes
    in round 2, learns the decision through round 1's tag first, and
    must still re-announce when round 2's majority of acks arrives."""
    pump = make_pump(3)
    values = [batch_for(0, pid) for pid in range(3)]
    for pid in range(3):
        pump.inject(pid, ProposeRequest(0, values[pid]))

    def deliver(kind, dst, src=None):
        index = next(
            i
            for i, m in enumerate(pump.deliverable())
            if m.dst == dst
            and (src is None or m.src == src)
            and (m.kind == kind or type(getattr(m.payload, "payload", None)).__name__ == kind)
        )
        return pump.deliver_next(index)

    # Round 1 runs normally as far as p1 and p2 are concerned ...
    deliver("PROPOSAL", 1)
    deliver("PROPOSAL", 2)
    # ... but both then wrongly suspect p0 and open round 2 under p1.
    pump.suspect(1, 0)
    pump.suspect(2, 0)
    deliver("ESTIMATE", 1, src=2)
    state = pump.modules[1].instance(0)
    assert state.proposal_sent_rounds == {2}
    deliver("PROPOSAL", 2, src=1)  # p2 acks round 2; the ack is in flight
    # Round 1 decides after all: its acks were already on the wire.
    deliver("ACK", 0, src=1)
    deliver("ACK", 0, src=2)
    assert decisions(pump, 0)
    deliver("DecisionTag", 1)
    assert decisions(pump, 1) and state.decided == values[0]
    assert not state.retired and not state.decision_sent

    announced = pump.modules[1].handle_message(net_message("ACK", 2, 1, Ack(0, 2)))

    tag = DecisionTag(0, 2)
    assert announced == [EmitDown(RbcastRequest(tag, tag.wire_size))]
    assert state.decision_sent and state.retired
    assert state.decided == values[0]
    # Agreement: round 2 locked the value round 1 decided.
    pump.run()
    assert all(len(decisions(pump, pid)) == 1 for pid in range(3))
