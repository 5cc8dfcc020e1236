"""The analytical model: each stack's good-run consensus, described once.

The paper (§5.2) accounts for one consensus execution — M adelivered
messages, under load high enough that instance k+1 starts directly
after k — and its introduction argues that the cost of modularity "can
be foreseen" at design time, before evidence from a running system
exists. One predict function per stack walks that stack's good-run
message pattern once, and the same walk yields both halves of the
account:

* what the pattern sends: network messages (§5.2.1) and abcast payload
  bytes (§5.2.2, where control messages count as negligible and every
  abcast message has size l);
* what it costs against a :class:`~repro.config.CpuCosts` /
  :class:`~repro.config.NetworkConfig` pair: the CPU busy time of the
  coordinator and of the busiest non-coordinator, the coordinator's NIC
  occupancy, and from those the saturation throughput ``M / (bottleneck
  per-consensus time)`` — the plateau of the paper's Fig. 10.

The counts are the paper's closed forms (pinned in
``tests/unit/analysis/test_model.py``) and match the simulator's network
counters (``tests/integration/test_analytical_validation.py``). The
throughput is held against the simulator in
``tests/integration/test_design_time_prediction.py``: modular predictions
land 0.3–11 % above the measured plateau; monolithic ones are an
optimistic bound, 34–67 % high at n = 3, where the pipeline is partly
round-trip-bound, and within 16 % at n = 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.broadcast.reliable import RB_CONTROL_OVERHEAD
from repro.config import CpuCosts, NetworkConfig, StackKind
from repro.consensus.messages import CONTROL_OVERHEAD
from repro.errors import ConfigurationError
from repro.stack.events import PER_MESSAGE_OVERHEAD

#: Stack heights (modules above the network) in the modular composition.
_ABCAST_HEIGHT = 2
_CONSENSUS_HEIGHT = 1
_RBCAST_HEIGHT = 0


@dataclass(frozen=True, slots=True)
class StackPrediction:
    """What one good-run consensus of a stack sends, and what it costs."""

    stack: StackKind
    n: int
    messages_per_consensus: float
    message_size: int
    #: Network messages per consensus, group-wide (§5.2.1).
    messages: float
    #: Abcast payload bytes on the network per consensus (§5.2.2).
    data: float
    #: CPU seconds per consensus at the (round-1) coordinator.
    coordinator_busy: float
    #: CPU seconds per consensus at the busiest non-coordinator.
    noncoordinator_busy: float
    #: Seconds the coordinator's NIC is occupied per consensus.
    coordinator_nic: float

    @property
    def bottleneck(self) -> float:
        """Per-consensus time of the binding resource."""
        return max(
            self.coordinator_busy, self.noncoordinator_busy, self.coordinator_nic
        )

    @property
    def saturation_throughput(self) -> float:
        """Predicted Fig.-10 plateau in messages/second."""
        return self.messages_per_consensus / self.bottleneck


@dataclass(frozen=True, slots=True)
class ModularityPrediction:
    """Side-by-side prediction, the design-time answer."""

    modular: StackPrediction
    monolithic: StackPrediction

    @property
    def throughput_gain(self) -> float:
        """Predicted relative throughput advantage of the monolith."""
        return (
            self.monolithic.saturation_throughput
            / self.modular.saturation_throughput
            - 1.0
        )

    @property
    def message_ratio(self) -> float:
        """How many times more messages the modular stack sends."""
        return self.modular.messages / self.monolithic.messages

    @property
    def data_overhead(self) -> float:
        """§5.2.2: extra data of the modular stack, ``(n-1)/(n+1)`` — 50 %
        for n = 3 and 75 % for n = 7, the paper's headline numbers (NaN
        for zero-byte messages, where neither stack sends payload)."""
        if not self.monolithic.data:
            return math.nan
        return self.modular.data / self.monolithic.data - 1.0


def _validate(n: int, messages_per_consensus: float) -> None:
    if n < 2:
        raise ConfigurationError(f"group size must be >= 2, got {n}")
    if messages_per_consensus <= 0:
        raise ConfigurationError(
            f"messages per consensus must be positive, got {messages_per_consensus}"
        )


def _header(net: NetworkConfig, height: int) -> int:
    return net.base_header + net.per_module_header * (height + 1)


def predict_modular(
    n: int,
    messages_per_consensus: float,
    message_size: int,
    costs: CpuCosts | None = None,
    net: NetworkConfig | None = None,
) -> StackPrediction:
    """One good-run consensus of the modular stack (Fig. 4 flow).

    Sends ``(n-1)(M + 2 + ⌊(n+1)/2⌋)`` messages: M diffusions to n-1
    processes each, one proposal and one ack per non-coordinator, plus
    the reliable broadcast of the decision by its origin and
    ``⌊(n-1)/2⌋`` relays. Sends ``2(n-1)·M·l`` payload bytes: each abcast
    message is diffused to n-1 processes, then the proposal (of size M·l)
    goes to the n-1 non-coordinators.
    """
    _validate(n, messages_per_consensus)
    costs = costs or CpuCosts()
    net = net or NetworkConfig()
    m, l = messages_per_consensus, message_size

    diffuse_wire = l + PER_MESSAGE_OVERHEAD + _header(net, _ABCAST_HEIGHT)
    batch_payload = m * l + PER_MESSAGE_OVERHEAD * (m + 1) + CONTROL_OVERHEAD
    proposal_wire = batch_payload + _header(net, _CONSENSUS_HEIGHT)
    ack_wire = CONTROL_OVERHEAD + _header(net, _CONSENSUS_HEIGHT)
    tag_wire = CONTROL_OVERHEAD + RB_CONTROL_OVERHEAD + _header(net, _RBCAST_HEIGHT)
    relays = (n - 1) // 2
    own_rate = m / n  # abcast messages originated by each process
    other_diffusions = m * (n - 1) / n  # diffusions each process receives

    def recv(wire: int, height: int) -> float:
        return (
            costs.recv_cost(wire)
            + height * costs.boundary_crossing
            + costs.dispatch
        )

    def broadcast_sends(wire: int, destinations: int, height: int) -> float:
        first = costs.send_cost(wire, first_copy=True)
        rest = costs.send_cost(wire, first_copy=False)
        return (
            first
            + (destinations - 1) * rest
            + destinations * height * costs.boundary_crossing
        )

    # Shared by every process: originate own diffusions, receive others'.
    common = (
        own_rate * (costs.dispatch + broadcast_sends(diffuse_wire, n - 1, _ABCAST_HEIGHT))
        + other_diffusions * recv(diffuse_wire, _ABCAST_HEIGHT)
        # propose (EmitDown) once, adeliver M messages, decide bookkeeping.
        + 2 * (costs.boundary_crossing + costs.dispatch)
        + m * costs.adeliver
    )

    coordinator = (
        common
        + broadcast_sends(proposal_wire, n - 1, _CONSENSUS_HEIGHT)
        + (n - 1) * recv(ack_wire, _CONSENSUS_HEIGHT)
        # rbcast the decision tag; receive the relay echoes; local
        # rdeliver climbing rbcast -> consensus -> abcast.
        + broadcast_sends(tag_wire, n - 1, _RBCAST_HEIGHT)
        + relays * recv(tag_wire, _RBCAST_HEIGHT)
        + 2 * (costs.boundary_crossing + costs.dispatch)
    )

    # The busiest non-coordinator is a relay-set member: it receives the
    # proposal, acks, receives tags (origin + other relays) and re-sends
    # the tag to everyone.
    noncoordinator = (
        common
        + recv(proposal_wire, _CONSENSUS_HEIGHT)
        + costs.send_cost(ack_wire) + _CONSENSUS_HEIGHT * costs.boundary_crossing
        + relays * recv(tag_wire, _RBCAST_HEIGHT)
        + broadcast_sends(tag_wire, n - 1, _RBCAST_HEIGHT)
        + 2 * (costs.boundary_crossing + costs.dispatch)
    )

    nic = (
        own_rate * (n - 1) * diffuse_wire
        + (n - 1) * proposal_wire
        + (n - 1) * tag_wire
    ) / net.bandwidth

    return StackPrediction(
        stack=StackKind.MODULAR,
        n=n,
        messages_per_consensus=m,
        message_size=l,
        # Group-wide: every process's own diffusions, then per
        # non-coordinator a proposal, an ack and the tags of the origin
        # and the relays.
        messages=(n - 1) * (n * own_rate + 2 + 1 + relays),
        data=(n - 1) * (n * own_rate + m) * l,
        coordinator_busy=coordinator,
        noncoordinator_busy=noncoordinator,
        coordinator_nic=nic,
    )


def predict_monolithic(
    n: int,
    messages_per_consensus: float,
    message_size: int,
    costs: CpuCosts | None = None,
    net: NetworkConfig | None = None,
) -> StackPrediction:
    """One good-run consensus of the monolithic stack (Fig. 6 flow).

    Sends ``2(n-1)`` messages whatever M is: one combined
    proposal+decision to each non-coordinator and one ack+diffusion back.
    Sends ``(n-1)(1 + 1/n)·M·l`` payload bytes: each non-coordinator
    piggybacks its M/n messages on its ack, then the coordinator ships
    the M-message proposal to n-1 processes.
    """
    _validate(n, messages_per_consensus)
    costs = costs or CpuCosts()
    net = net or NetworkConfig()
    m, l = messages_per_consensus, message_size
    header = _header(net, 0)
    own_rate = m / n

    combined_wire = (
        m * l + PER_MESSAGE_OVERHEAD * (m + 1) + CONTROL_OVERHEAD + 16 + header
    )
    ack_payload = CONTROL_OVERHEAD + own_rate * (l + PER_MESSAGE_OVERHEAD)
    ack_wire = ack_payload + header

    coordinator = (
        own_rate * costs.dispatch  # own abcast injections
        + costs.send_cost(combined_wire, first_copy=True)
        + (n - 2) * costs.send_cost(combined_wire, first_copy=False)
        + (n - 1) * (costs.recv_cost(int(ack_wire)) + costs.dispatch)
        + m * costs.adeliver
        + 2 * costs.dispatch  # decide/start-next bookkeeping
    )

    noncoordinator = (
        own_rate * costs.dispatch
        + costs.recv_cost(int(combined_wire)) + costs.dispatch
        + costs.send_cost(int(ack_wire), first_copy=True)
        + m * costs.adeliver
        + costs.dispatch
    )

    nic = (n - 1) * combined_wire / net.bandwidth

    return StackPrediction(
        stack=StackKind.MONOLITHIC,
        n=n,
        messages_per_consensus=m,
        message_size=l,
        # Per non-coordinator: the combined message out, the ack back.
        messages=2.0 * (n - 1),
        data=(n - 1) * (m + own_rate) * l,
        coordinator_busy=coordinator,
        noncoordinator_busy=noncoordinator,
        coordinator_nic=nic,
    )


def predict_gap(
    n: int,
    messages_per_consensus: float,
    message_size: int,
    costs: CpuCosts | None = None,
    net: NetworkConfig | None = None,
) -> ModularityPrediction:
    """The design-time answer: both stacks priced side by side."""
    return ModularityPrediction(
        modular=predict_modular(n, messages_per_consensus, message_size, costs, net),
        monolithic=predict_monolithic(
            n, messages_per_consensus, message_size, costs, net
        ),
    )
