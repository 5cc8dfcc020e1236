"""The real traffic of every registered stack survives the wire codec.

Each stack runs a short simulated n = 3 group with heartbeats: the
fault-tolerant stacks under the ``churn`` and ``coordinator-crash``
scenarios, so the round-change and recovery messages travel too, and
the benign-only stacks fault-free. Every message handed to the network
(captured as the benchmark's wire probe captures it, by replacing
``Network.transmit``) must round-trip both ways: message to bytes to an
equal message, and bytes to message to the same bytes.
"""

from functools import cache

import pytest

from repro.config import STACK_REGISTRY
from repro.experiments.runner import Simulation
from repro.nemesis.schedule import named_scenario
from repro.nemesis.swarm import BENIGN_ONLY_LABELS, NemesisCase, build_config
from repro.net import wire
from repro.net.message import decode_message, encode_message
from tests.harness import envelope

#: Per stack, the ``(module, kind)`` pairs its runs put on the network.
SEEN = {
    "modular": {
        ("abcast", "DIFFUSE"), ("consensus", "ACK"), ("consensus", "ESTIMATE"),
        ("consensus", "JOIN"), ("consensus", "PROPOSAL"), ("fd", "HEARTBEAT"),
        ("rbcast", "RB"),
    },
    "monolithic": {
        ("fd", "HEARTBEAT"), ("mono", "ACK"), ("mono", "ACKPIGGY"), ("mono", "COMBINED"),
        ("mono", "DECISION"), ("mono", "ESTIMATE"), ("mono", "FORWARD"), ("mono", "JOIN"),
        ("mono", "PROPOSAL"),
    },
    "indirect": {
        ("abcast", "DIFFUSE"), ("consensus", "ACK"), ("consensus", "ESTIMATE"),
        ("consensus", "JOIN"), ("consensus", "PROPOSAL"), ("fd", "HEARTBEAT"),
        ("rbcast", "RB"),
    },
    "sequencer": {("fd", "HEARTBEAT"), ("seq", "SEQUENCED"), ("seq", "TO_SEQ")},
    "ringpaxos": {
        ("fd", "HEARTBEAT"), ("ringacceptor", "ACK"), ("ringacceptor", "ESTIMATE"),
        ("ringacceptor", "JOIN"), ("ringacceptor", "PROPOSAL"),
        ("ringacceptor", "RECOVER_RESP"), ("ringacceptor", "RING"),
        ("ringproposer", "DIFFUSE"),
    },
    "batched-sequencer": {("fd", "HEARTBEAT"), ("seq", "SEQUENCED"), ("seq", "TO_SEQ")},
}

#: Registered records that none of these runs sends: the relay-emulated
#: rbcast is an ablation, and a recovery request needs a tag whose
#: proposal was lost with the coordinator.
NEVER_SENT = {"RbDecision", "RecoveryRequest"}


@cache
def traffic(label: str) -> tuple:
    """Every message the stack's runs hand to the network."""
    scenarios = (
        ("good-run",) if label in BENIGN_ONLY_LABELS else ("churn", "coordinator-crash")
    )
    messages = []
    for scenario in scenarios:
        case = NemesisCase(
            stack=label, seed=1, n=3, fd="heartbeat", faultload=named_scenario(scenario)
        )
        sim = Simulation(build_config(case), seed=1)
        transmit = sim.network.transmit

        def spy(message, depart_time, transmit=transmit):
            messages.append(message)
            transmit(message, depart_time)

        sim.network.transmit = spy
        sim.run()
    return tuple(messages)


def tags(encoded) -> set:
    """The tags of every array in one encoded value."""
    if not isinstance(encoded, list):
        return set()
    return {encoded[0]}.union(*map(tags, encoded[1:]))


@pytest.mark.filterwarnings("ignore::repro.errors.StationarityWarning")
@pytest.mark.parametrize("label", sorted(STACK_REGISTRY))
def test_every_message_round_trips(label):
    messages = traffic(label)
    for message in messages:
        frame = encode_message(message)
        decoded = decode_message(frame)
        assert decoded == message, frame
        assert encode_message(decoded) == frame
    assert {(m.module, m.kind) for m in messages} == SEEN[label]


@pytest.mark.filterwarnings("ignore::repro.errors.StationarityWarning")
def test_every_registered_record_but_two_travels():
    sent = set().union(
        *(
            tags(envelope(encode_message(m))["payload"])
            for label in STACK_REGISTRY
            for m in traffic(label)
        )
    )
    wire._ensure_payloads()
    assert set(wire._BY_TAG) - sent == NEVER_SENT
    assert {"IdBatch", "RingToken", "Sequenced", "CombinedProposal"} <= sent
