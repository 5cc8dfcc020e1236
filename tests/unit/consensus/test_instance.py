"""Unit tests for per-instance consensus state."""

import pytest

from repro.consensus.instance import InstanceState, coordinator_of_round
from repro.types import Batch

from tests.conftest import app_message, batch


def test_round_one_coordinator_is_process_zero_for_every_instance():
    for n in (3, 5, 7):
        assert coordinator_of_round(1, n) == 0


def test_coordinator_rotates_with_rounds():
    assert [coordinator_of_round(r, 3) for r in (1, 2, 3, 4)] == [0, 1, 2, 0]


def test_rounds_are_one_based():
    with pytest.raises(ValueError):
        coordinator_of_round(0, 3)


def test_instance_default_coordinator_uses_current_round():
    state = InstanceState(instance=0, n=3)
    assert state.coordinator() == 0
    state.round = 2
    assert state.coordinator() == 1
    assert state.coordinator(1) == 0


def test_best_estimate_prefers_highest_timestamp():
    state = InstanceState(instance=0, n=3)
    old = Batch(0, (app_message(0),))
    new = Batch(0, (app_message(1),))
    state.record_estimate(2, 0, 0, old)
    state.record_estimate(2, 1, 1, new)
    assert state.best_estimate(2) is new


def test_best_estimate_ts_zero_tie_prefers_larger_batch():
    state = InstanceState(instance=0, n=3)
    small = Batch(0, (app_message(0),))
    big = Batch(0, (app_message(1), app_message(1)))
    state.record_estimate(2, 2, 0, small)
    state.record_estimate(2, 0, 0, big)
    assert state.best_estimate(2) is big


def test_best_estimate_full_tie_breaks_by_sender():
    state = InstanceState(instance=0, n=3)
    a = Batch(0, (app_message(0),))
    b = Batch(0, (app_message(1),))
    state.record_estimate(2, 0, 0, a)
    state.record_estimate(2, 1, 0, b)
    assert state.best_estimate(2) is b  # higher sender pid wins ties


def test_best_estimate_requires_estimates():
    state = InstanceState(instance=0, n=3)
    with pytest.raises(ValueError):
        state.best_estimate(2)


def test_estimate_overwrite_by_same_sender():
    state = InstanceState(instance=0, n=3)
    first = Batch(0, (app_message(0),))
    second = Batch(0, (app_message(1),))
    state.record_estimate(2, 1, 0, first)
    state.record_estimate(2, 1, 3, second)
    assert state.best_estimate(2) is second
    assert len(state.estimates[2]) == 1


# -- end of life ---------------------------------------------------------------


def test_state_has_no_instance_dict():
    state = InstanceState(instance=0, n=3)
    assert not hasattr(state, "__dict__")


def test_undecided_instance_does_not_retire():
    state = InstanceState(instance=0, n=3)
    state.retire()
    assert not state.retired
    assert state.proposals == {} and state.proposal_sent_rounds == set()


def test_follower_retires_at_the_decision_and_keeps_what_answers_need():
    state = InstanceState(instance=7, n=3)
    value = batch(7, app_message())
    state.record_proposal(1, value)
    state.record_estimate(2, 1, 0, value)
    state.decided = value
    state.retire()
    assert state.retired
    assert state.proposals is state.proposal_sent_rounds is None
    assert state.acks is state.estimates is None
    assert (state.instance, state.decided, state.decision_sent) == (7, value, False)
    state.retire()  # idempotent
    assert state.retired


def test_coordinator_retires_only_once_its_open_proposal_is_announced():
    state = InstanceState(instance=0, n=3)
    value = batch(0, app_message())
    state.proposals[2] = value
    state.proposal_sent_rounds.add(2)
    state.decided = value  # learnt through another round
    state.retire()
    assert not state.retired and state.proposals == {2: value}
    state.decision_sent = True
    state.retire()
    assert state.retired


def test_records_on_a_retired_instance_are_no_ops():
    state = InstanceState(instance=0, n=3)
    state.decided = batch(0)
    state.retire()
    state.record_proposal(1, batch(0, app_message()))
    assert state.record_ack(1, 2) is False
    assert state.retired


def test_acks_count_only_towards_an_open_proposal_of_this_process():
    state = InstanceState(instance=0, n=3)
    assert state.record_ack(1, 2) is False  # never proposed: stray
    assert state.acks == {}
    state.proposal_sent_rounds.add(1)
    assert state.record_ack(1, 2) is True
    assert state.record_ack(2, 2) is False  # not that round
    assert state.acks == {1: {2}}
    state.decision_sent = True
    assert state.record_ack(1, 1) is False  # announced: late
    assert state.acks == {1: {2}}
