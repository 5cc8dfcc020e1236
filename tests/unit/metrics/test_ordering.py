"""Unit tests for the atomic broadcast safety checker."""

import pytest

from repro.errors import OrderingViolation
from repro.metrics.ordering import AbcastSpec, OrderingChecker
from repro.types import AppMessage, MessageId


def msg(sender, seq):
    return AppMessage(MessageId(sender, seq), size=1, abcast_time=0.0)


def checker_with(sequences, abcast=None, n=None):
    n = n if n is not None else len(sequences)
    checker = OrderingChecker(n)
    all_messages = {}
    for sequence in sequences:
        for m in sequence:
            all_messages[m.msg_id] = m
    for m in (abcast if abcast is not None else all_messages.values()):
        checker.on_abcast(m)
    for pid, sequence in enumerate(sequences):
        for m in sequence:
            checker.on_adeliver(pid, m, 0.0)
    return checker


def test_identical_sequences_pass():
    a, b = msg(0, 0), msg(1, 0)
    checker = checker_with([[a, b], [a, b], [a, b]])
    checker.verify(expect_all_delivered=True)


def test_prefixes_pass_without_completeness():
    a, b = msg(0, 0), msg(1, 0)
    checker = checker_with([[a, b], [a], []])
    checker.verify()  # prefixes are fine mid-run


def test_prefix_gap_fails_uniform_agreement_when_complete():
    a, b = msg(0, 0), msg(1, 0)
    checker = checker_with([[a, b], [a], [a, b]])
    with pytest.raises(OrderingViolation, match="uniform-agreement"):
        checker.verify(expect_all_delivered=True)


def test_total_order_violation_detected():
    a, b = msg(0, 0), msg(1, 0)
    checker = checker_with([[a, b], [b, a]])
    with pytest.raises(OrderingViolation, match="total-order"):
        checker.verify()


def test_duplicate_delivery_detected():
    a = msg(0, 0)
    checker = checker_with([[a, a], [a]])
    with pytest.raises(OrderingViolation, match="integrity"):
        checker.verify()


def test_delivery_of_never_abcast_message_detected():
    a, ghost = msg(0, 0), msg(9, 9)
    checker = checker_with([[a, ghost], [a, ghost]], abcast=[a])
    with pytest.raises(OrderingViolation, match="integrity"):
        checker.verify()


def test_validity_failure_detected():
    a, b = msg(0, 0), msg(1, 0)
    checker = checker_with([[a], [a]], abcast=[a, b])
    with pytest.raises(OrderingViolation, match="validity"):
        checker.verify(expect_all_delivered=True)


def test_crashed_process_prefix_is_allowed():
    a, b = msg(0, 0), msg(1, 0)
    checker = checker_with([[a, b], [a, b], [a]])
    # p2 crashed mid-run: exclude it from the correct set.
    checker.verify(correct={0, 1}, expect_all_delivered=True)


def test_message_abcast_by_crashed_process_need_not_be_delivered():
    a = msg(0, 0)  # abcast by p0, which crashed before diffusing
    checker = checker_with([[], [], []], abcast=[a], n=3)
    checker.verify(correct={1, 2}, expect_all_delivered=True)


def test_sequence_accessor():
    a = msg(0, 0)
    checker = checker_with([[a], [a]])
    assert checker.sequence(0) == (a.msg_id,)


# -- the spec itself ----------------------------------------------------------


def spec_with(n, *sent):
    spec = AbcastSpec(n)
    spec.sent.update(sent)
    return spec


def test_a_refused_step_leaves_the_state_unchanged():
    a, b, ghost = MessageId(0, 0), MessageId(1, 0), MessageId(9, 9)
    spec = spec_with(2, a, b)
    assert spec.adeliver(0, a) is None and spec.adeliver(0, b) is None
    before = (list(spec.order), list(spec.cursor), [set(d) for d in spec.delivered])
    assert spec.adeliver(0, a) == ("uniform-integrity", "p0 adelivered m(0:0) twice")
    assert spec.adeliver(1, ghost) == (
        "uniform-integrity",
        "p1 adelivered never-abcast message m(9:9)",
    )
    assert spec.adeliver(1, b) == (
        "total-order",
        "p1 diverges at position 0: delivered m(1:0), group order has m(0:0)",
    )
    assert (spec.order, spec.cursor, spec.delivered) == before
    # p1 is still expected to deliver what the group order holds.
    assert spec.adeliver(1, a) is None and spec.adeliver(1, b) is None
    assert spec.cursor == [2, 2]


def test_outstanding_is_what_unmet_would_report_and_excuses_the_crashed():
    a, b, c = MessageId(0, 0), MessageId(1, 0), MessageId(2, 0)
    spec = spec_with(3, a, b, c)
    spec.adeliver(0, a)
    spec.adeliver(2, a)
    everyone = {0, 1, 2}
    assert spec.outstanding(everyone) == {a, b, c}
    assert [invariant for invariant, __ in spec.unmet(everyone)] == [
        "uniform-agreement",  # p1 misses a, delivered elsewhere
        "validity", "validity", "validity",  # everyone misses b and c
    ]
    # With p1 and p2 crashed, p0 owes nothing abcast by them, but still
    # nothing it has not delivered itself was delivered elsewhere.
    assert spec.outstanding({0}) == set()
    assert spec.unmet({0}) == []
    # p2 crashed after delivering a: p1 owes a (uniform agreement) and
    # b (validity: its own abcast), not c.
    assert spec.outstanding({0, 1}) == {a, b}
    assert spec.unmet({0, 1})[0] == (
        "uniform-agreement",
        "p1 never adelivered 1 message(s) delivered elsewhere, "
        "e.g. [MessageId(sender=0, seq=0)]",
    )
