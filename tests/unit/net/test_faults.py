"""Unit tests for the fault injector."""

from repro.net.faults import FaultInjector
from repro.net.message import NetMessage


def _msg(kind="K", src=0, dst=1):
    return NetMessage(
        kind=kind, module="m", src=src, dst=dst, payload=None,
        payload_size=1, header_size=0,
    )


def test_default_is_deliver_with_no_delay():
    assert FaultInjector().judge(_msg()) == 0.0


def test_a_filter_returning_none_drops():
    injector = FaultInjector()
    injector.add_filter(lambda m: None if m.kind == "PROPOSAL" else 0.0)
    assert injector.judge(_msg(kind="PROPOSAL")) is None
    assert injector.judge(_msg(kind="ACK")) == 0.0


def test_delays_accumulate_left_to_right_from_zero():
    injector = FaultInjector()
    injector.add_filter(lambda m: 0.1 if m.dst == 1 else 0.0)
    injector.add_filter(lambda m: 0.2 if m.kind == "K" else 0.0)
    assert injector.judge(_msg()) == (0.0 + 0.1) + 0.2
    assert injector.judge(_msg(src=1, dst=2)) == 0.2


def test_first_drop_wins_over_later_delays():
    injector = FaultInjector()
    seen = []
    injector.add_filter(lambda m: seen.append("delay") or 5.0)
    injector.add_filter(lambda m: seen.append("drop") or None)
    injector.add_filter(lambda m: seen.append("late") or 5.0)
    assert injector.judge(_msg()) is None
    assert seen == ["delay", "drop"]


def test_crashed_destination_drops_messages():
    injector = FaultInjector()
    seen = []
    injector.add_filter(lambda m: seen.append(m.dst) or 0.0)
    injector.mark_crashed(1)
    assert injector.judge(_msg(dst=1)) is None
    assert seen == []
    assert injector.judge(_msg(dst=0, src=1)) == 0.0
    assert seen == [0]
    assert injector.is_crashed(1)
    assert injector.crashed == frozenset({1})
