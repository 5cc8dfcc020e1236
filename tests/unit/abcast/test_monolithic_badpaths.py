"""Bad-run paths of the monolithic module that the good-run tests skip."""

from repro.abcast.messages import JoinRound, RbDecision
from repro.abcast.monolithic import MonolithicAtomicBroadcast
from repro.broadcast.reliable import relay_set
from repro.config import MonolithicOptimizations
from repro.consensus.messages import DecisionTag
from repro.stack.events import AbcastRequest, AdeliverIndication

from tests.conftest import app_message, net_message, sends_to_all
from tests.harness import ModulePump


def make_pump(n=3, opts=None):
    return ModulePump(
        lambda ctx: MonolithicAtomicBroadcast(ctx, opts or MonolithicOptimizations()),
        n,
    )


def adelivered(pump, pid):
    return [
        e.message.msg_id
        for e in pump.up_events[pid]
        if isinstance(e, AdeliverIndication)
    ]


def test_round_two_decision_carries_full_value():
    """After p0 crashes, the round-2 coordinator announces decisions
    with their full value (standalone DECISION), reaching everyone."""
    pump = make_pump(3)
    m = app_message(sender=1)
    pump.inject(1, AbcastRequest(m))
    while pump.deliverable():  # forward is lost with the coordinator
        pump.drop_next()
    pump.crash(0)
    pump.suspect_everywhere(0)
    pump.run()
    assert adelivered(pump, 1) == [m.msg_id]
    assert adelivered(pump, 2) == [m.msg_id]
    # p1's decided state exists for instance 0, decided in round >= 2.
    state = pump.modules[1].instance(0)
    assert state.decided is not None


def test_join_for_decided_instance_returns_help():
    pump = make_pump(3)
    m = app_message(sender=0)
    pump.inject(0, AbcastRequest(m))
    pump.run()  # instance 0 decided everywhere
    module = pump.modules[1]
    actions = module.handle_message(net_message("JOIN", 2, 1, JoinRound(0, 2)))
    kinds = [getattr(a, "kind", None) for a in actions]
    assert "RECOVER_RESP" in kinds


def test_rb_decision_is_relayed_once_by_relay_set_members():
    pump = make_pump(5, opts=MonolithicOptimizations(
        combine_decision_with_proposal=False, cheap_decision_broadcast=False
    ))
    relays = relay_set(0, 5)
    relay_pid = relays[0]
    module = pump.modules[relay_pid]
    # The relay must hold proposal state for the tag lookup to succeed;
    # missing state triggers recovery, which is fine for this test: we
    # only check the relay re-send happens exactly once.
    rb = RbDecision(DecisionTag(0, 1), origin=0)
    first = module.handle_message(net_message("RB_DECISION", 0, relay_pid, rb))
    resent = [a for a in first if getattr(a, "kind", None) == "RB_DECISION"]
    assert len(resent) == 1 and resent[0] in sends_to_all(first)  # to everyone else
    second = module.handle_message(net_message("RB_DECISION", 3, relay_pid, rb))
    resent_again = [a for a in second if getattr(a, "kind", None) == "RB_DECISION"]
    assert resent_again == []


def test_non_relay_member_does_not_relay():
    pump = make_pump(5, opts=MonolithicOptimizations(
        combine_decision_with_proposal=False, cheap_decision_broadcast=False
    ))
    outsider = [p for p in range(1, 5) if p not in relay_set(0, 5)][0]
    module = pump.modules[outsider]
    rb = RbDecision(DecisionTag(0, 1), origin=0)
    actions = module.handle_message(net_message("RB_DECISION", 0, outsider, rb))
    assert all(getattr(a, "kind", None) != "RB_DECISION" for a in actions)


def test_decision_tag_without_proposal_triggers_recovery_in_mono():
    pump = make_pump(3)
    module = pump.modules[2]
    actions = module.handle_message(
        net_message("DECISION", 0, 2, DecisionTag(4, 1))
    )
    # One fan-out to the two other processes.
    assert [a.kind for a in sends_to_all(actions)] == ["RECOVER_REQ"]


def test_stale_combined_still_processes_decision_piggyback():
    """A receiver that advanced past round 1 must not ack the stale
    proposal but must still consume the piggybacked decision."""
    pump = make_pump(3)
    # Instance 0 decided normally so everyone holds its proposal.
    m0 = app_message(sender=0, seq=100)
    pump.inject(0, AbcastRequest(m0))
    pump.run()
    module = pump.modules[1]
    # Instance 1 starts; p1 receives its COMBINED (acks round 1), then
    # wrongly suspects p0 and advances to round 2.
    m1 = app_message(sender=0, seq=101)
    pump.inject(0, AbcastRequest(m1))
    to_p1 = next(
        i
        for i, msg in enumerate(pump.deliverable())
        if msg.dst == 1 and msg.kind == "COMBINED"
    )
    pump.deliver_next(to_p1)
    pump.suspect(1, 0)
    state = module.instance(1)
    assert state.round >= 2
    # A COMBINED for instance 2 arrives, piggybacking decision (1, r=1):
    # p1 holds round 1's proposal, so the piggyback resolves, while the
    # fresh instance-2 proposal is acked normally.
    from repro.abcast.messages import CombinedProposal
    from repro.consensus.messages import Proposal
    from repro.types import Batch

    combined = CombinedProposal(
        Proposal(2, 1, Batch(2)), decided=DecisionTag(1, 1)
    )
    actions = module.handle_message(net_message("COMBINED", 0, 1, combined))
    delivered_now = [
        a.event.message.msg_id
        for a in actions
        if hasattr(a, "event") and isinstance(getattr(a, "event"), AdeliverIndication)
    ]
    assert m1.msg_id in delivered_now
    # Stale round-1 proposal for instance 2? No: instance 2 is fresh, so
    # it IS acked; the stale case is instance 1, already covered by the
    # round jump. Verify no ack was produced for instance 1.
    acks = [a for a in actions if getattr(a, "kind", None) == "ACKPIGGY"]
    assert all(a.payload.ack.instance == 2 for a in acks)


def test_message_riding_a_straggler_ack_is_not_stranded():
    """Regression: a message piggybacked on an ack that arrives *after*
    its instance already decided (on the other majority member's ack)
    must still trigger a new instance at the coordinator. Previously it
    was admitted to the pool and stranded forever when the pipeline had
    drained — a validity violation at run end."""
    from repro.abcast.messages import AckWithDiffusion
    from repro.consensus.messages import Ack

    from tests.conftest import make_ctx

    coordinator = MonolithicAtomicBroadcast(make_ctx(pid=0, n=3))
    m1 = app_message(sender=0)
    first = coordinator.handle_event(AbcastRequest(m1))
    # One fan-out: a COMBINED to each of the two other processes.
    assert first == sends_to_all(first) and [a.kind for a in first] == ["COMBINED"]

    # p1's ack arrives first and decides instance 0 (majority with self).
    ack1 = AckWithDiffusion(ack=Ack(0, 1), messages=())
    decided = coordinator.handle_message(net_message("ACKPIGGY", 1, 0, ack1))
    assert coordinator.next_instance == 1
    assert coordinator.unordered_count == 0

    # p2's straggler ack for the decided instance carries a fresh m2.
    m2 = app_message(sender=2)
    ack2 = AckWithDiffusion(ack=Ack(0, 1), messages=(m2,))
    actions = coordinator.handle_message(net_message("ACKPIGGY", 2, 0, ack2))
    combined = [a for a in actions if getattr(a, "kind", None) == "COMBINED"]
    assert combined, "straggler-ack piggyback did not start a new instance"
    assert any(
        m2 in a.payload.proposal.value.messages for a in combined
    ), "new instance does not carry the piggybacked message"


def test_join_catches_up_processes_that_do_not_suspect():
    """Regression (found by the nemesis swarm): with p2 crashed, a
    wrong suspicion held only by p1 used to strand p0 in round 1 (no
    acks left) and p1 in round 2 (no second estimate) forever. The JOIN
    broadcast must make the non-suspecting p0 join round 2."""
    pump = make_pump(3)
    m = app_message(sender=1)
    pump.inject(1, AbcastRequest(m))
    pump.crash(2)
    pump.suspect(1, 0)  # only p1 suspects the live coordinator
    pump.run()
    assert adelivered(pump, 0) == [m.msg_id]
    assert adelivered(pump, 1) == [m.msg_id]
