"""Unit tests for the Ring Paxos acceptor, learner and stack wiring."""

from pathlib import Path

import pytest

from repro.abcast.ringpaxos import (
    HELP_SPAN,
    RingAcceptor,
    RingLearner,
    RingToken,
    ring_stack,
)
from repro.consensus.messages import DecisionValue
from repro.nemesis.swarm import generate_case, load_case, run_case
from repro.stack.actions import Send, StartTimer
from repro.stack.events import (
    AbcastRequest,
    AdeliverIndication,
    DecideIndication,
    ProposeRequest,
)

from tests.conftest import (
    app_message,
    batch,
    emitted_down,
    emitted_up,
    make_ctx,
    net_message,
    sends,
    sends_to_all,
)
from tests.harness import ModulePump

NEMESIS_DATA = Path(__file__).resolve().parents[2] / "data" / "nemesis"


def make_pump(n=3):
    return ModulePump(lambda ctx: RingAcceptor(ctx), n)


def decisions(pump, pid):
    return [
        (e.instance, e.value)
        for e in pump.up_events[pid]
        if isinstance(e, DecideIndication)
    ]


def ring_token(pump, dst=None):
    """The queued RING messages (optionally to one destination)."""
    queued = [m for m in pump.deliverable() if m.kind == "RING"]
    if dst is not None:
        queued = [m for m in queued if m.dst == dst]
    return queued


# -- the good-run lap --------------------------------------------------------


def test_one_lap_decides_everywhere_with_one_message_per_link():
    pump = make_pump(3)
    value = batch(0, app_message(sender=0))
    pump.inject(0, ProposeRequest(0, value))
    # The token leaves the coordinator toward its ring successor only.
    assert [(m.src, m.dst) for m in ring_token(pump)] == [(0, 1)]
    delivered = pump.run()
    assert delivered == 3  # n=3: exactly one token per ring link
    for pid in range(3):
        assert decisions(pump, pid) == [(0, value)]


def test_majority_node_decides_on_the_spot_mid_lap():
    pump = make_pump(3)
    value = batch(0, app_message(sender=0))
    pump.inject(0, ProposeRequest(0, value))
    pump.deliver_next()  # 0 -> 1: votes {0, 1} is already a majority of 3
    assert decisions(pump, 1) == [(0, value)]
    assert decisions(pump, 0) == []  # the coordinator still awaits the lap


def test_decision_rides_the_token_not_a_broadcast():
    """After the mid-lap decision the only traffic is still ring tokens."""
    pump = make_pump(5)
    pump.inject(0, ProposeRequest(0, batch(0, app_message(sender=0))))
    delivered = pump.run()
    assert all(decisions(pump, pid) for pid in range(5))
    # The decided lap wraps past the deciding node: a handful of hops,
    # not the O(n^2) a decision broadcast per decider would cost.
    assert delivered <= 5 + 2


def test_token_to_a_voter_is_tag_only():
    pump = make_pump(3)
    value = batch(0, app_message(sender=0, size=4096))
    pump.inject(0, ProposeRequest(0, value))
    pump.deliver_next()  # 0 -> 1 (full value)
    pump.deliver_next()  # 1 -> 2 (full value, 2 has not voted)
    back_to_zero = ring_token(pump, dst=0)
    assert len(back_to_zero) == 1
    token = back_to_zero[0].payload
    assert token.value is None  # 0 voted: it holds the proposal already
    assert token.wire_size < RingToken(0, value, (), ()).wire_size


def test_tag_only_token_without_the_proposal_is_dropped():
    acceptor = RingAcceptor(make_ctx(pid=1))
    token = RingToken(instance=0, value=None, votes=(0,), learned=())
    assert acceptor.handle_message(net_message("RING", 0, 1, token)) == []
    assert acceptor.instance(0).estimate is None


def test_node_past_round_one_does_not_vote():
    """The CT safety guard: voting is adopting (v, ts=1), which is only
    sound while the node is still in round 1."""
    acceptor = RingAcceptor(make_ctx(pid=1))
    state = acceptor.instance(0)
    held = batch(0, app_message(sender=1))
    state.round = 2
    state.estimate = held
    state.ts = 2
    ring_value = batch(0, app_message(sender=0))
    token = RingToken(instance=0, value=ring_value, votes=(0,), learned=())
    actions = acceptor.handle_message(net_message("RING", 0, 1, token))
    assert state.estimate == held  # not overwritten by the stale round-1 value
    assert state.ts == 2
    for send in sends(actions):
        if send.kind == "RING":
            assert 1 not in send.payload.votes


# -- repair ------------------------------------------------------------------


def test_suspicion_reroutes_the_in_flight_token():
    pump = make_pump(3)
    value = batch(0, app_message(sender=0))
    pump.inject(0, ProposeRequest(0, value))
    dropped = pump.drop_next()  # the token 0 -> 1 dies with its carrier
    assert dropped.dst == 1
    pump.crash(1)
    pump.suspect(0, 1)  # repair: re-forward around the suspect
    rerouted = ring_token(pump)
    assert [(m.src, m.dst) for m in rerouted] == [(0, 2)]
    assert rerouted[0].payload.value == value  # 2 never voted: full value
    pump.suspect(2, 1)
    pump.run()
    assert decisions(pump, 0) == [(0, value)]
    assert decisions(pump, 2) == [(0, value)]


def test_guard_timer_re_forwards_a_stalled_token():
    pump = make_pump(3)
    value = batch(0, app_message(sender=0))
    pump.inject(0, ProposeRequest(0, value))
    assert (0, "ring-guard") in pump.timers
    pump.drop_next()  # token lost on the wire
    pump.fire_timer(0, "ring-guard")
    assert [(m.src, m.dst) for m in ring_token(pump)] == [(0, 1)]
    assert (0, "ring-guard") in pump.timers  # re-armed while in flight
    pump.run()
    assert all(decisions(pump, pid) == [(0, value)] for pid in range(3))


def test_a_token_no_peer_could_take_is_re_sent_once_a_suspicion_lifts():
    """The coordinator re-routes its token while it suspects everyone
    else: the ring has no room, so the lap waits. The wait must outlive
    the suspicion — once p1 is trusted again the token goes out, or
    instance 0 never decides at p0."""
    pump = make_pump(3)
    value = batch(0, app_message(sender=0))
    pump.inject(0, ProposeRequest(0, value))
    pump.drop_next()  # the token 0 -> 1 is lost
    pump.crash(2)
    pump.suspect(0, 2)
    pump.suspect(0, 1)  # wrongly: p0 is alone, the lap cannot go on
    assert not ring_token(pump)
    pump.fire_timer(0, "ring-guard")  # still no room: the token stays held
    assert not ring_token(pump) and (0, "ring-guard") in pump.timers
    pump.unsuspect(0, 1)
    assert [(m.src, m.dst) for m in ring_token(pump)] == [(0, 1)]
    pump.suspect(1, 2)
    pump.run()
    assert decisions(pump, 0) == decisions(pump, 1) == [(0, value)]


def test_a_proposal_made_while_suspecting_everyone_is_held_not_lost():
    """Swarm cases ringpaxos/456 and /671: the coordinator proposes
    while every peer is suspected, so the very first hop has nowhere to
    go. The token is held and leaves as soon as a suspicion lifts."""
    pump = make_pump(3)
    pump.crash(2)
    pump.suspect(0, 2)
    pump.suspect(0, 1)
    value = batch(0, app_message(sender=0))
    pump.inject(0, ProposeRequest(0, value))
    assert not ring_token(pump) and (0, "ring-guard") in pump.timers
    pump.unsuspect(0, 1)
    assert [(m.src, m.dst) for m in ring_token(pump)] == [(0, 1)]
    pump.suspect(1, 2)
    pump.run()
    assert decisions(pump, 0) == decisions(pump, 1) == [(0, value)]


def test_the_shrunk_swarm_stall_replays_clean():
    """Swarm case ringpaxos/1301, shrunk to its two events: p2 crashes,
    then p0 wrongly suspects p1 for 0.11 s while p1 has already decided
    the instance p0 still circulates. Every invariant holds on replay."""
    result = run_case(load_case(NEMESIS_DATA / "case-ringpaxos-seed1301.json"))
    assert result.violations == ()
    assert result.deliveries > 0


@pytest.mark.parametrize("seed", [32, 456, 671, 1157])
def test_swarm_cases_that_stalled_a_held_token_pass(seed):
    """The other seeds of a 1 500-seed ringpaxos swarm that stalled
    before the ring held a token it had no room for."""
    result = run_case(generate_case("ringpaxos", seed, 3))
    assert result.violations == ()


def test_guard_goes_quiet_once_everything_is_decided():
    pump = make_pump(3)
    pump.inject(0, ProposeRequest(0, batch(0, app_message(sender=0))))
    pump.run()
    pump.fire_timer(0, "ring-guard")
    assert not ring_token(pump)  # nothing re-forwarded
    assert (0, "ring-guard") not in pump.timers  # and the guard disarms


def test_stale_ring_traffic_is_answered_with_the_decision():
    pump = make_pump(3)
    value = batch(0, app_message(sender=0))
    pump.inject(0, ProposeRequest(0, value))
    pump.run()
    stale = RingToken(instance=0, value=value, votes=(2,), learned=())
    actions = pump.modules[0].handle_message(net_message("RING", 2, 0, stale))
    responses = [a for a in sends(actions) if a.kind == "RECOVER_RESP"]
    assert responses and responses[0].dst == 2
    assert responses[0].payload == DecisionValue(0, value)


def test_help_decided_bundles_subsequent_decisions():
    acceptor = RingAcceptor(make_ctx(pid=0))
    values = {k: batch(k, app_message(sender=0)) for k in range(5)}
    for k, value in values.items():
        acceptor.handle_message(
            net_message("RECOVER_RESP", 1, 0, DecisionValue(k, value))
        )
    stale = RingToken(instance=0, value=values[0], votes=(2,), learned=())
    actions = acceptor.handle_message(net_message("RING", 2, 0, stale))
    responses = [a for a in sends(actions) if a.kind == "RECOVER_RESP"]
    # The asked instance plus every decided successor (up to HELP_SPAN).
    assert [r.payload.instance for r in responses] == [0, 1, 2, 3, 4]
    assert len(responses) <= 1 + HELP_SPAN


# -- gap recovery ------------------------------------------------------------


def test_out_of_order_decision_pulls_the_gap():
    acceptor = RingAcceptor(make_ctx(pid=1, n=3))
    actions = acceptor.handle_message(
        net_message("RECOVER_RESP", 0, 1, DecisionValue(1, batch(1)))
    )
    # One fan-out, which the runtime addresses to ctx.others = (0, 2).
    [request] = [a for a in sends_to_all(actions) if a.kind == "RECOVER_REQ"]
    assert request.payload.instance == 0
    assert any(
        isinstance(a, StartTimer) and a.name == "recover-0" for a in actions
    )
    # The pulled decision closes the gap without a second request.
    closing = acceptor.handle_message(
        net_message("RECOVER_RESP", 0, 1, DecisionValue(0, batch(0)))
    )
    assert not [a for a in sends(closing) if a.kind == "RECOVER_REQ"]


def test_resume_at_never_chases_pre_crash_instances():
    acceptor = RingAcceptor(make_ctx(pid=1, n=3))
    acceptor.resume_at(5, set())
    actions = acceptor.handle_message(
        net_message("RECOVER_RESP", 0, 1, DecisionValue(5, batch(5)))
    )
    assert not [a for a in sends(actions) if a.kind == "RECOVER_REQ"]


# -- the learner -------------------------------------------------------------


def adelivered(actions):
    return [e.message.msg_id for e in emitted_up(actions, AdeliverIndication)]


def test_learner_delivers_in_instance_and_id_order():
    learner = RingLearner(make_ctx())
    m1, m2, m3 = (app_message(sender=s) for s in (2, 0, 1))
    first = learner.handle_event(DecideIndication(0, batch(0, m1, m2)))
    second = learner.handle_event(DecideIndication(1, batch(1, m3)))
    assert adelivered(first) == [m2.msg_id, m1.msg_id]  # canonical id order
    assert adelivered(second) == [m3.msg_id]
    assert learner.next_instance == 2


def test_learner_buffers_out_of_order_decisions():
    learner = RingLearner(make_ctx())
    m1, m2 = app_message(sender=0), app_message(sender=1)
    assert learner.handle_event(DecideIndication(1, batch(1, m2))) == []
    actions = learner.handle_event(DecideIndication(0, batch(0, m1)))
    assert adelivered(actions) == [m1.msg_id, m2.msg_id]


def test_learner_ignores_duplicate_decisions_and_messages():
    learner = RingLearner(make_ctx())
    m = app_message(sender=0)
    learner.handle_event(DecideIndication(0, batch(0, m)))
    assert learner.handle_event(DecideIndication(0, batch(0, m))) == []
    # The same message re-decided in a later instance is not re-delivered.
    assert adelivered(learner.handle_event(DecideIndication(1, batch(1, m)))) == []


def test_learner_tracks_in_flight_submissions():
    learner = RingLearner(make_ctx())
    m = app_message(sender=0)
    actions = learner.handle_event(AbcastRequest(m))
    assert emitted_down(actions, AbcastRequest)  # passes straight down
    assert learner.unordered_count == 1
    learner.handle_event(DecideIndication(0, batch(0, m)))
    assert learner.unordered_count == 0


def test_learner_resume_skips_the_recovered_prefix():
    learner = RingLearner(make_ctx())
    old, new = app_message(sender=0), app_message(sender=1)
    learner.resume_at(3, {old.msg_id})
    assert learner.handle_event(DecideIndication(2, batch(2, old))) == []
    actions = learner.handle_event(DecideIndication(3, batch(3, old, new)))
    assert adelivered(actions) == [new.msg_id]  # old was WAL-recovered
    assert learner.next_instance == 4


# -- stack wiring ------------------------------------------------------------


def test_ring_stack_order_and_knobs():
    modules = ring_stack(make_ctx(), guard_timeout=1.5, max_batch=9)
    assert [m.name for m in modules] == ["ringlearner", "ringproposer", "ringacceptor"]
    assert modules[1].guard_timeout == 1.5
    assert modules[1].max_batch == 9


def test_ring_token_round_trips_on_the_wire():
    from repro.net.wire import decode_value, encode_value

    value = batch(2, app_message(sender=0), app_message(sender=1))
    token = RingToken(instance=2, value=value, votes=(0, 1), learned=(1,))
    assert decode_value(encode_value(token)) == token
    tag_only = RingToken(instance=2, value=None, votes=(0, 1), learned=(1,))
    assert decode_value(encode_value(tag_only)) == tag_only
