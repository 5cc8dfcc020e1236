"""The delivery ledger answers exactly as a plain ``set`` of ids.

:class:`repro.types.DeliveryLedger` replaces the delivered-id sets of
every abcast module and of reliable broadcast with a watermark per
sender plus a sparse set above it. Whatever sequence of ``add``,
``update`` and ``in`` a run (or a hostile peer) produces, it must give
the answers a set of every recorded id would: ids arrive with gaps, out
of order and twice, and a live worker reads them off the wire, so a
negative or huge ``seq`` and a sender outside the group are fair game.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.types import DeliveryLedger, MessageId

#: Mostly a dense range, so watermarks advance and gaps close; plus any
#: int at all, and the extremes a 64-bit codec can carry.
seqs = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.integers(),
    st.sampled_from([2**32, 2**63 - 1, -(2**63)]),
)
senders = st.one_of(st.integers(min_value=0, max_value=2), st.integers())
ids = st.one_of(
    st.tuples(senders, seqs), st.builds(MessageId, sender=senders, seq=seqs)
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), ids),
        st.tuples(st.just("update"), st.lists(ids, max_size=8)),
        st.tuples(st.just("in"), ids),
    ),
    max_size=80,
)


@given(operations)
def test_the_ledger_answers_as_a_set_of_every_recorded_id(steps):
    ledger, reference = DeliveryLedger(), set()
    asked = set()
    for operation, argument in steps:
        if operation == "add":
            assert ledger.add(argument) == (argument not in reference)
            reference.add(argument)
        elif operation == "update":
            ledger.update(argument)
            reference.update(argument)
        else:
            assert (argument in ledger) == (argument in reference)
        asked.update(argument if operation == "update" else [argument])
    # Every id touched, and its neighbours on both sides of each gap.
    for sender, seq in asked:
        for probe in range(seq - 2, seq + 3):
            assert ((sender, probe) in ledger) == ((sender, probe) in reference)


def ledger_of(recorded):
    ledger = DeliveryLedger()
    ledger.update(recorded)
    return ledger


@given(st.lists(ids, max_size=40))
def test_every_id_recorded_at_once_is_in_and_not_new_again(recorded):
    ledger = ledger_of(recorded)
    for msg_id in recorded:
        assert msg_id in ledger
        assert not ledger.add(msg_id)


def test_a_hostile_negative_seq_is_not_already_delivered():
    ledger = ledger_of(MessageId(0, seq) for seq in range(5))
    assert MessageId(0, 4) in ledger
    assert MessageId(0, -1) not in ledger
    assert (0, -(2**63)) not in ledger
    assert MessageId(7, 0) not in ledger  # a sender outside the group
    assert ledger.add(MessageId(0, -1))
    assert MessageId(0, -1) in ledger and MessageId(0, -2) not in ledger


def test_the_watermark_absorbs_ids_once_their_gap_closes():
    ledger = ledger_of([(1, 0), (1, 2), (1, 3), (1, 5)])
    assert ledger._next == {1: 1} and len(ledger._above) == 3
    ledger.add((1, 1))
    assert ledger._next == {1: 4} and ledger._above == {(1, 5)}
    assert (1, 4) not in ledger and (1, 3) in ledger
