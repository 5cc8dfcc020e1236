"""Configuration dataclasses for stacks, workloads and runs.

All knobs of a simulation live here, in frozen dataclasses, so that a run
is fully described by one :class:`RunConfig` value plus a seed. The
defaults are calibrated against the paper's testbed (Pentium 4 @ 3.2 GHz,
Sun JVM 1.5, Gigabit Ethernet, TCP transport) — see EXPERIMENTS.md for
the calibration rationale and the resulting paper-vs-measured tables.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from itertools import repeat
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

from repro.errors import ConfigurationError

#: The comparisons a field's declared bounds may use.
_BOUND_TESTS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _bounded(default: Any, *bounds: tuple[str, float]) -> Any:
    """A field defaulting to *default* whose value must pass every
    ``(op, bound)`` of *bounds*, e.g. ``(">=", 1)`` (:func:`_check_fields`)."""
    return field(default=default, metadata={"bounds": bounds})


def _check_fields(config: Any) -> None:
    """Refuse a field of *config* outside its declared bounds or choices.

    ``None`` is exempt (it means "off" wherever a field allows it); NaN
    fails every comparison and is therefore refused.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None or not f.metadata:
            continue
        where = f"{type(config).__name__}.{f.name}"
        for op, bound in f.metadata.get("bounds", ()):
            if not _BOUND_TESTS[op](value, bound):
                raise ConfigurationError(f"{where} must be {op} {bound}: {value}")
        choices = f.metadata.get("choices")
        if choices is not None and value not in choices:
            raise ConfigurationError(
                f"{where} must be one of {', '.join(choices)}: {value!r}"
            )


# -- JSON documents ------------------------------------------------------------
#
# Every document that crosses a process boundary — a faultload, a replay
# case, a live worker's spec and control messages — is a dataclass that
# plain writes and read_fields reads back, by its fields' declared types.


def plain(value: Any) -> Any:
    """JSON form of a dataclass, field by field: enums by value, tuples
    as lists; lists and dicts are left as they are."""
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [plain(item) for item in value]
    return value


def read_fields(cls: type, entry: Any, where: str = "") -> Any:
    """One *cls* from its JSON object *entry*, found at path *where*
    (empty at the top of a document).

    Each key is read as its field's declared type; a missing key takes
    the field's default, and an unknown key or a missing required one is
    refused by name.
    """
    what = where or "the document"
    if not isinstance(entry, dict):
        raise ConfigurationError(
            f"{what} must be a JSON object, got {type(entry).__name__}"
        )
    hints = get_type_hints(cls)
    unknown = sorted(repr(key) for key in entry if key not in hints)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in {what}: {', '.join(unknown)} "
            f"(known: {', '.join(hints)})"
        )
    values = {}
    for f in fields(cls):
        if f.name in entry:
            path = f"{where}.{f.name}" if where else f.name
            values[f.name] = _read(hints[f.name], entry[f.name], path)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigurationError(f"{what} is missing required key {f.name!r}")
    return cls(**values)


def _refused(path: str, what: str, value: Any) -> ConfigurationError:
    return ConfigurationError(f"field {path!r} must be {what}, got {value!r}")


def _read(hint: Any, value: Any, path: str) -> Any:
    """The JSON *value* found at *path*, read as the declared type *hint*."""
    # Scalars first: they are most of what is read (every row of a
    # live worker's samples).
    if hint is int or hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _refused(path, "a number", value)
        # json reads NaN and Infinity, and NaN passes every range
        # comparison. Only a float can be either: a 400-digit integer is
        # legal JSON, and math.isfinite would overflow on it.
        if isinstance(value, float) and not math.isfinite(value):
            raise _refused(path, "a finite number", value)
        if hint is int and not isinstance(value, int):
            raise _refused(path, "an integer", value)
        return value
    if hint is bool or hint is str:
        if not isinstance(value, hint):
            raise _refused(path, "a boolean" if hint is bool else "a string", value)
        return value
    if is_dataclass(hint):
        return read_fields(hint, value, path)
    origin, args = get_origin(hint) or hint, get_args(hint)
    if origin is UnionType:  # X | None
        return None if value is None else _read(args[0], value, path)
    if origin is tuple or origin is list:
        if not isinstance(value, list):
            raise _refused(path, "a list", value)
        if not args:  # a bare list: its items stay as JSON has them
            return value
        if origin is list or args[1:] == (...,):
            hints = repeat(args[0])
        elif len(value) == len(args):
            hints = args
        else:
            raise _refused(path, f"a list of {len(args)} items", value)
        items = [
            _read(item_hint, item, f"{path}[{index}]")
            for index, (item_hint, item) in enumerate(zip(hints, value))
        ]
        return items if origin is list else tuple(items)
    if origin is dict:
        if not isinstance(value, dict):
            raise _refused(path, "a JSON object", value)
        key_hint, item_hint = args
        try:  # JSON keys are strings; an int key is converted
            keys = [key_hint(key) for key in value]
        except ValueError:
            raise _refused(path, f"keyed by {key_hint.__name__}", value) from None
        return {
            key: _read(item_hint, item, f"{path}[{key}]")
            for key, item in zip(keys, value.values())
        }
    assert issubclass(hint, enum.Enum), f"no JSON reader for {hint!r}"
    try:
        return hint(value)  # by value
    except ValueError:
        choices = ", ".join(member.value for member in hint)
        raise _refused(path, f"one of {choices}", value) from None


class StackKind(enum.Enum):
    """Which atomic broadcast implementation a run uses."""

    #: The paper's modular composition (Fig. 1 left).
    MODULAR = "modular"
    #: The paper's merged module with the §4 optimizations (Fig. 1 right).
    MONOLITHIC = "monolithic"
    #: Extension baseline: fixed-sequencer ordering without consensus
    #: (good runs only; see :mod:`repro.abcast.sequencer`).
    SEQUENCER = "sequencer"
    #: Extension: Ring Paxos dissemination (Marandi et al., DSN 2010) —
    #: acceptor-to-acceptor forwarding along a static ring with decisions
    #: piggybacked on the ring traffic. See :mod:`repro.abcast.ringpaxos`.
    RINGPAXOS = "ringpaxos"
    #: Extension: the fixed sequencer composed under a Chop Chop-style
    #: distillation layer (Camaioni et al., 2024) that aggregates client
    #: submissions into one abcast payload. See :mod:`repro.abcast.batching`.
    BATCHED_SEQUENCER = "batched-sequencer"


class ConsensusVariant(enum.Enum):
    """Consensus algorithm variant used inside the modular stack."""

    #: Good-run-optimized Chandra–Toueg (paper §3.2): round 1 skips the
    #: estimate phase, later rounds start only on suspicion, decisions are
    #: rbcast as a small DECISION tag.
    OPTIMIZED = "optimized"
    #: Textbook Chandra–Toueg with all four phases in every round; kept as
    #: an ablation baseline (the paper's modular stack is the optimized one).
    TEXTBOOK = "textbook"
    #: Extension: indirect consensus (the paper's related-work [12],
    #: Ekwall & Schiper DSN 2006) — consensus orders message *ids*; the
    #: payloads travel only in the diffusion step, halving the modular
    #: stack's data volume. See :mod:`repro.abcast.indirect`.
    INDIRECT = "indirect"


class ReliableBroadcastVariant(enum.Enum):
    """Reliable broadcast variant used to diffuse consensus decisions."""

    #: Majority-relay optimization (paper §3.1): (n-1)(⌊(n-1)/2⌋+1) msgs.
    MAJORITY = "majority"
    #: Classical echo broadcast: every first reception is re-sent to all.
    CLASSICAL = "classical"


class ArrivalProcess(enum.Enum):
    """Inter-arrival law of the symmetric workload generators."""

    #: Constant spacing with a random initial phase per process (the
    #: paper's "constant rate r" workload).
    UNIFORM = "uniform"
    #: Poisson arrivals at the same mean rate, for sensitivity studies.
    POISSON = "poisson"


class ClientArrival(enum.Enum):
    """Aggregate arrival law of a client population (per process).

    The population model never schedules per-client events; it samples
    the *aggregate* arrival process of all clients fronted by one
    process and attributes each arrival to a logical client afterwards
    (see :mod:`repro.workload.population`).
    """

    #: Superposition of independent client Poisson streams — itself a
    #: Poisson process at the aggregate rate.
    POISSON = "poisson"
    #: Markov-modulated on/off mix (interrupted Poisson process): the
    #: aggregate alternates between a silent OFF state and an ON state
    #: whose rate is scaled up so the configured mean load is preserved.
    #: Self-similar-ish bursts; index of dispersion > 1.
    BURSTY = "bursty"
    #: Diurnal rate ramp: a raised-cosine day/night cycle around the
    #: configured mean load (non-homogeneous Poisson via thinning).
    DIURNAL = "diurnal"


@dataclass(frozen=True, slots=True)
class ClientPopulationConfig:
    """A population of logical clients multiplexed onto the n processes.

    ``clients`` may be 10⁶ and beyond: the model is lazy, costing one
    kernel event per *arrival*, never per client. Each process fronts
    ``clients / n`` of the population; per-client activity within a
    process's pool is Zipf-skewed with exponent :attr:`zipf_s` (0 makes
    every client equally active). The aggregate offered load stays
    ``WorkloadConfig.offered_load`` for every arrival law — burstiness
    and diurnal cycles reshape *when* arrivals happen, not how many.
    """

    #: Number of logical clients across the whole group.
    clients: int = _bounded(100_000, (">=", 1))
    #: Zipf activity-skew exponent s; P(rank r) ∝ r^-s. 0 = uniform.
    zipf_s: float = _bounded(1.1, (">=", 0))
    arrival: ClientArrival = ClientArrival.POISSON
    #: BURSTY: mean seconds of one aggregate ON (sending) period.
    burst_on: float = _bounded(0.05, (">", 0))
    #: BURSTY: mean seconds of one aggregate OFF (silent) period.
    burst_off: float = _bounded(0.15, (">=", 0))
    #: DIURNAL: seconds of one simulated day/night cycle.
    diurnal_period: float = _bounded(4.0, (">", 0))
    #: DIURNAL: trough rate as a fraction of the peak rate.
    diurnal_trough: float = _bounded(0.2, (">", 0), ("<=", 1))

    def __post_init__(self) -> None:
        _check_fields(self)

    @property
    def duty_cycle(self) -> float:
        """BURSTY: fraction of time the aggregate spends ON."""
        return self.burst_on / (self.burst_on + self.burst_off)

    def clients_of(self, pid: int, n: int) -> int:
        """How many logical clients process *pid* fronts in a group of n."""
        base, extra = divmod(self.clients, n)
        return base + (1 if pid < extra else 0)


class FailureDetectorKind(enum.Enum):
    """Failure detector implementation."""

    #: Omniscient detector: suspects a process a fixed delay after its
    #: actual crash, never wrongly. Used for the performance experiments
    #: so FD traffic does not perturb good-run measurements.
    ORACLE = "oracle"
    #: Heartbeat-based eventually-strong detector exchanging real network
    #: messages; used by the fault-tolerance tests and examples.
    HEARTBEAT = "heartbeat"
    #: The base detector: suspects nothing on its own and sends nothing;
    #: only the faultload's wrong suspicions move it.
    SCRIPTED = "scripted"


@dataclass(frozen=True, slots=True)
class CpuCosts:
    """Per-operation CPU service times (seconds) of a simulated process.

    Calibrated to the paper's era (Sun JVM 1.5 on a 3.2 GHz Pentium 4):
    per-message fixed costs around 150 µs (TCP syscalls plus Java object
    serialization setup), per-byte costs around 12 ns (~80 MB/s object
    (de)serialization), and a per-module-boundary dispatch cost for the
    composition framework. See EXPERIMENTS.md for the calibration
    rationale and paper-vs-measured tables.
    """

    #: Cost of invoking any protocol handler (event dispatch).
    dispatch: float = 25e-6
    #: Extra cost per module boundary a message or event crosses in the
    #: composed (modular) stack. This is the mechanical Cactus overhead.
    boundary_crossing: float = 50e-6
    #: Fixed cost of pushing one message to the transport (syscall, TCP,
    #: object serialization setup in the JVM).
    send_fixed: float = 150e-6
    #: Fixed cost of receiving one message from the transport.
    recv_fixed: float = 150e-6
    #: Marshalling cost per payload byte, paid ONCE per distinct payload
    #: (~50 MB/s, JVM-era object serialization). A broadcast of the same
    #: payload to n-1 destinations serializes once.
    serialize_per_byte: float = 12e-9
    #: Copy cost per byte per destination (kernel/TCP buffer copies).
    send_per_byte: float = 2e-9
    #: Unmarshalling cost per payload byte received (every receiver
    #: deserializes independently).
    recv_per_byte: float = 12e-9
    #: Cost of handing one adelivered message to the application.
    adeliver: float = 10e-6

    def send_cost(self, wire_size: int, *, first_copy: bool = True) -> float:
        """CPU seconds to send a message of *wire_size* bytes.

        Args:
            wire_size: Bytes put on the wire.
            first_copy: Whether this send serializes the payload (False
                for the 2nd..nth destination of a broadcast, which reuse
                the serialized buffer).
        """
        cost = self.send_fixed + self.send_per_byte * wire_size
        if first_copy:
            cost += self.serialize_per_byte * wire_size
        return cost

    def recv_cost(self, wire_size: int) -> float:
        """CPU seconds to receive a message of *wire_size* bytes."""
        return self.recv_fixed + self.recv_per_byte * wire_size


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Link-level model of the paper's switched Gigabit Ethernet."""

    #: Effective per-NIC transmit bandwidth in bytes/second. Nominal
    #: GbE is 125 MB/s; 2007-era TCP stacks sustained ~0.8 of that.
    bandwidth: float = 100e6
    #: One-way propagation + switching delay in seconds (uniform LAN).
    propagation: float = 60e-6
    #: Optional per-pair one-way delays overriding :attr:`propagation`:
    #: ``propagation_matrix[src][dst]`` seconds. Lets experiments place
    #: processes across a WAN (see the geo-distribution example); must be
    #: an n×n structure when used with a group of size n.
    propagation_matrix: tuple[tuple[float, ...], ...] | None = None
    #: Bytes of Ethernet + IP + TCP framing per message.
    base_header: int = 66
    #: Bytes of framing added by each protocol module a message traverses
    #: (Cactus-style stacked headers).
    per_module_header: int = 16

    def delay(self, src: int, dst: int) -> float:
        """One-way propagation delay from *src* to *dst*."""
        if self.propagation_matrix is None:
            return self.propagation
        return self.propagation_matrix[src][dst]


@dataclass(frozen=True, slots=True)
class FlowControlConfig:
    """The paper's backlog-window flow control (§5.1).

    Each process may have at most :attr:`window` of its own abcast
    messages accepted but not yet locally adelivered; further abcast
    events block. With the default window the system orders M ≈ 4
    messages per consensus near saturation, the value the paper reports
    as optimal for both stacks.
    """

    window: int = _bounded(3, (">=", 1))
    #: Maximum number of messages ordered by one consensus execution
    #: (proposal batch cap). The paper's flow control "ensures that, on
    #: average, M = 4 messages are ordered per consensus execution" and
    #: reports M = 4 as optimal for both stacks; the cap is how we pin
    #: the same operating point. ``None`` removes the cap.
    max_batch: int | None = _bounded(4, (">=", 1))

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True, slots=True)
class BatchingConfig:
    """Knobs of the distillation (batching) layer.

    The layer aggregates client submissions into one abcast payload and
    unbatches on delivery (see :mod:`repro.abcast.batching`). A batch is
    sealed by whichever trigger fires first: the size trigger (the batch
    reaches :attr:`max_messages` entries) or the time trigger (the oldest
    buffered submission has waited :attr:`flush_interval` seconds).
    """

    #: Size trigger: seal a batch at this many messages.
    max_messages: int = _bounded(32, (">=", 1))
    #: Time trigger: seal a non-empty batch after this many seconds.
    flush_interval: float = _bounded(0.002, (">", 0))

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True, slots=True)
class FailureDetectorConfig:
    """Failure-detection parameters."""

    kind: FailureDetectorKind = FailureDetectorKind.ORACLE
    #: Oracle: delay between a crash and its detection by every process.
    detection_delay: float = 0.2
    #: Heartbeat: period between heartbeats.
    heartbeat_interval: float = 0.05
    #: Heartbeat: silence after which a process is suspected.
    timeout: float = 0.25


@dataclass(frozen=True, slots=True)
class MonolithicOptimizations:
    """Ablation switches for the three §4 optimizations.

    All enabled reproduces the paper's monolithic stack; disabling all
    three degrades it to (roughly) the modular message pattern while
    keeping the merged-module dispatch cost, which isolates the
    *algorithmic* gain from the *mechanical* gain in the ablation bench.
    """

    #: §4.1 — piggyback decision of consensus k on proposal of k+1.
    combine_decision_with_proposal: bool = True
    #: §4.2 — send abcast messages only to the coordinator, piggybacked
    #: on ack messages, instead of diffusing them to everyone.
    piggyback_on_ack: bool = True
    #: §4.3 — replace the majority reliable broadcast of decisions with a
    #: plain send-to-all acknowledged by consensus k+1 traffic.
    cheap_decision_broadcast: bool = True


@dataclass(frozen=True, slots=True)
class StackConfig:
    """Which stack to build and with which variants."""

    kind: StackKind = StackKind.MODULAR
    consensus: ConsensusVariant = ConsensusVariant.OPTIMIZED
    rbcast: ReliableBroadcastVariant = ReliableBroadcastVariant.MAJORITY
    #: §3.3 correctness guard: a process holding undelivered messages
    #: starts a consensus after this many seconds even if nothing new
    #: arrives (protects against senders that crash mid-diffusion).
    guard_timeout: float = 0.5
    optimizations: MonolithicOptimizations = field(
        default_factory=MonolithicOptimizations
    )
    #: Optional distillation layer composed on top of the stack (always
    #: present for :attr:`StackKind.BATCHED_SEQUENCER`, where ``None``
    #: means the default :class:`BatchingConfig`; any other kind gains a
    #: batching layer when this is set explicitly).
    batching: BatchingConfig | None = None

    def batching_or_default(self) -> BatchingConfig:
        """The effective batching knobs where a layer is implied."""
        return self.batching if self.batching is not None else BatchingConfig()


@dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """The paper's symmetric workload (§5.1).

    All *n* processes abcast messages of fixed size ``message_size`` at a
    constant rate; the global rate is the offered load ``T_offered``.
    """

    #: Global abcast attempt rate in messages/second across all processes.
    offered_load: float = _bounded(1000.0, (">", 0))
    #: Payload size ``s`` of every abcast message, in bytes.
    message_size: int = _bounded(1024, (">=", 0))
    arrival: ArrivalProcess = ArrivalProcess.UNIFORM
    #: Optional client-population model. When set, arrivals come from
    #: the population's aggregate law (:class:`ClientArrival`, which
    #: overrides :attr:`arrival`) and each is attributed to a logical
    #: Zipf-skewed client; the offered load is unchanged.
    population: ClientPopulationConfig | None = None

    def __post_init__(self) -> None:
        _check_fields(self)

    def per_process_rate(self, n: int) -> float:
        """Abcast rate of each individual process."""
        return self.offered_load / n


@dataclass(frozen=True, slots=True)
class CrashEvent:
    """Scripted crash of one process at a point in simulated time."""

    time: float
    process: int


class LinkFaultMode(enum.Enum):
    """What happens to a message caught by a partition or loss burst.

    The stacks assume quasi-reliable channels (the paper's TCP): between
    two correct processes every message eventually arrives. ``HOLD``
    preserves that assumption — affected messages are delayed until the
    fault heals, like TCP retransmission across a transient outage — so
    both safety *and* liveness invariants remain checkable. ``DROP``
    silently loses the messages (a broken channel); safety must still
    hold in such runs, but liveness may legitimately stall, so the
    nemesis liveness watchdog disarms itself for DROP schedules.
    """

    HOLD = "hold"
    DROP = "drop"


@dataclass(frozen=True, slots=True)
class PartitionEvent:
    """Timed network partition with heal.

    Between ``start`` and ``heal``, messages crossing group boundaries
    are held (or dropped, per ``mode``). ``groups`` lists disjoint sets
    of processes; all unlisted processes form one implicit "rest" group,
    so ``groups=((0,),)`` is shorthand for isolating p0 from everyone
    else while the others keep talking among themselves.
    """

    start: float
    heal: float
    groups: tuple[tuple[int, ...], ...]
    mode: LinkFaultMode = LinkFaultMode.HOLD

    def side_of(self, process: int) -> int:
        """Index of the group containing *process* (-1 if ungrouped)."""
        for index, group in enumerate(self.groups):
            if process in group:
                return index
        return -1

    def severs(self, src: int, dst: int) -> bool:
        """Whether this partition cuts the (src, dst) link while active."""
        return self.side_of(src) != self.side_of(dst)


@dataclass(frozen=True, slots=True)
class LossBurst:
    """Per-link probabilistic message loss over a time window.

    ``src``/``dst`` of ``None`` match any endpoint, so a burst can model
    one bad link, one flaky NIC, or a globally lossy network.
    """

    start: float
    end: float
    probability: float
    src: int | None = None
    dst: int | None = None
    mode: LinkFaultMode = LinkFaultMode.HOLD
    #: HOLD mode: mean extra delay of a "retransmitted" message (seconds).
    retry_delay: float = 0.2

    def matches(self, src: int, dst: int) -> bool:
        """Whether the burst applies to the (src, dst) link."""
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )


@dataclass(frozen=True, slots=True)
class DelaySpike:
    """Deterministic extra latency plus random jitter over a window."""

    start: float
    end: float
    extra_delay: float
    jitter: float = 0.0
    src: int | None = None
    dst: int | None = None

    def matches(self, src: int, dst: int) -> bool:
        """Whether the spike applies to the (src, dst) link."""
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )


@dataclass(frozen=True, slots=True)
class WrongSuspicion:
    """Inject a wrong suspicion into one process's failure detector.

    At ``time``, *observer*'s detector starts suspecting *suspect* (who
    may be perfectly alive); the suspicion is retracted ``duration``
    seconds later unless the suspect has actually crashed by then. This
    exercises the round-change machinery that only ◇S-level wrongness
    can reach.
    """

    time: float
    observer: int
    suspect: int
    duration: float = 0.2


@dataclass(frozen=True, slots=True)
class FaultloadConfig:
    """Faults injected during a run. Empty = the paper's "good runs"."""

    crashes: tuple[CrashEvent, ...] = ()
    partitions: tuple[PartitionEvent, ...] = ()
    loss_bursts: tuple[LossBurst, ...] = ()
    delay_spikes: tuple[DelaySpike, ...] = ()
    wrong_suspicions: tuple[WrongSuspicion, ...] = ()

    def crashed_processes(self) -> frozenset[int]:
        """Set of processes that crash at some point in the run."""
        return frozenset(crash.process for crash in self.crashes)

    @property
    def is_empty(self) -> bool:
        """Whether this is a good-run faultload (no faults at all)."""
        return not self.events()

    @property
    def liveness_safe(self) -> bool:
        """Whether quasi-reliable channels survive this faultload.

        True when no fault permanently destroys messages between correct
        processes (all partitions/loss bursts are HOLD mode), so the
        liveness watchdog may legitimately demand post-heal progress.
        """
        return all(
            p.mode is LinkFaultMode.HOLD for p in self.partitions
        ) and all(b.mode is LinkFaultMode.HOLD for b in self.loss_bursts)

    def events(self) -> tuple[Any, ...]:
        """All atomic fault events, in declaration order (for shrinking)."""
        return tuple(
            event for kind in fields(self) for event in getattr(self, kind.name)
        )

    def without(self, event: Any) -> "FaultloadConfig":
        """A copy with one atomic fault event removed (for shrinking)."""
        for kind in fields(self):
            events = getattr(self, kind.name)
            if event in events:
                at = events.index(event)
                return replace(self, **{kind.name: events[:at] + events[at + 1 :]})
        return self


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Complete description of one simulation run (modulo the seed)."""

    #: Group size. The paper evaluates n = 3 and n = 7.
    n: int = _bounded(3, (">=", 2))
    stack: StackConfig = field(default_factory=StackConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    flow_control: FlowControlConfig = field(default_factory=FlowControlConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    cpu_costs: CpuCosts = field(default_factory=CpuCosts)
    failure_detector: FailureDetectorConfig = field(
        default_factory=FailureDetectorConfig
    )
    faultload: FaultloadConfig = field(default_factory=FaultloadConfig)
    #: Simulated seconds measured after warm-up.
    duration: float = _bounded(2.0, (">", 0))
    #: Simulated seconds discarded at the start (stack fills its pipeline
    #: and the flow-control window reaches its stationary occupancy).
    warmup: float = _bounded(0.5, (">=", 0))

    def __post_init__(self) -> None:
        _check_fields(self)
        self._validate_processes()
        population = self.workload.population
        if population is not None and population.clients < self.n:
            raise ConfigurationError(
                f"client population of {population.clients} cannot cover "
                f"n={self.n} processes (need at least one client each)"
            )
        majority_faulty = len(self.faultload.crashed_processes()) >= (self.n + 1) // 2
        if majority_faulty:
            raise ConfigurationError(
                "faultload crashes a majority of processes; consensus (and the "
                "majority reliable broadcast) require a correct majority"
            )
        self._validate_link_faults()

    def _validate_processes(self) -> None:
        """Every process a fault event names must be one of the n."""
        faults = self.faultload
        named = {
            "crash": [crash.process for crash in faults.crashes],
            "partition": [p for e in faults.partitions for g in e.groups for p in g],
            "loss burst": [p for e in faults.loss_bursts for p in (e.src, e.dst)],
            "delay spike": [p for e in faults.delay_spikes for p in (e.src, e.dst)],
            "wrong suspicion": [
                p for e in faults.wrong_suspicions for p in (e.observer, e.suspect)
            ],
        }
        for what, processes in named.items():
            for process in processes:
                if process is not None and not 0 <= process < self.n:
                    raise ConfigurationError(
                        f"{what} names unknown process {process} (n={self.n})"
                    )

    def _validate_link_faults(self) -> None:
        for partition in self.faultload.partitions:
            if partition.heal <= partition.start:
                raise ConfigurationError(
                    f"partition must heal after it starts: {partition}"
                )
            seen: set[int] = set()
            for group in partition.groups:
                for process in group:
                    if process in seen:
                        raise ConfigurationError(
                            f"partition groups overlap on process {process}"
                        )
                    seen.add(process)
        for burst in self.faultload.loss_bursts:
            if burst.end <= burst.start:
                raise ConfigurationError(f"loss burst must end after start: {burst}")
            if not 0.0 <= burst.probability <= 1.0:
                raise ConfigurationError(
                    f"loss probability out of [0, 1]: {burst.probability}"
                )
            if burst.retry_delay < 0:
                raise ConfigurationError(
                    f"loss retry delay must be >= 0: {burst.retry_delay}"
                )
        for spike in self.faultload.delay_spikes:
            if spike.end <= spike.start:
                raise ConfigurationError(f"delay spike must end after start: {spike}")
            if spike.extra_delay < 0 or spike.jitter < 0:
                raise ConfigurationError(f"delay spike must be non-negative: {spike}")
        for suspicion in self.faultload.wrong_suspicions:
            if suspicion.observer == suspicion.suspect:
                raise ConfigurationError(
                    f"process {suspicion.observer} cannot suspect itself"
                )
            if suspicion.duration <= 0:
                raise ConfigurationError(
                    f"suspicion duration must be positive: {suspicion.duration}"
                )

    @property
    def total_time(self) -> float:
        """Total simulated seconds including warm-up."""
        return self.warmup + self.duration

    def with_changes(self, **changes: Any) -> "RunConfig":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **changes)


def modular_stack(
    consensus: ConsensusVariant = ConsensusVariant.OPTIMIZED,
    rbcast: ReliableBroadcastVariant = ReliableBroadcastVariant.MAJORITY,
) -> StackConfig:
    """Convenience constructor for the paper's modular stack."""
    return StackConfig(kind=StackKind.MODULAR, consensus=consensus, rbcast=rbcast)


def monolithic_stack(
    optimizations: MonolithicOptimizations | None = None,
) -> StackConfig:
    """Convenience constructor for the paper's monolithic stack."""
    return StackConfig(
        kind=StackKind.MONOLITHIC,
        optimizations=optimizations or MonolithicOptimizations(),
    )


#: Table of registered stacks: label → configuration. This single table
#: drives the CLI ``--stack`` choices, the live deployment, sweep stack
#: selection and the nemesis swarm's label validation, so a new stack
#: registered here shows up everywhere at once.
STACK_REGISTRY: dict[str, StackConfig] = {
    "modular": StackConfig(kind=StackKind.MODULAR),
    "monolithic": StackConfig(kind=StackKind.MONOLITHIC),
    "indirect": StackConfig(
        kind=StackKind.MODULAR, consensus=ConsensusVariant.INDIRECT
    ),
    "sequencer": StackConfig(kind=StackKind.SEQUENCER),
    "ringpaxos": StackConfig(kind=StackKind.RINGPAXOS),
    "batched-sequencer": StackConfig(kind=StackKind.BATCHED_SEQUENCER),
}

#: Stack labels accepted by the CLI and the live deployment.
STACK_LABELS = tuple(STACK_REGISTRY)


def stack_from_label(label: str) -> StackConfig:
    """Resolve a CLI-level stack label to its :class:`StackConfig`."""
    try:
        return STACK_REGISTRY[label]
    except KeyError:
        raise ConfigurationError(
            f"unknown stack {label!r} "
            f"(registered stacks: {', '.join(sorted(STACK_REGISTRY))})"
        ) from None


# -- live runs ----------------------------------------------------------------

#: Extra wall-clock seconds after a live run's window closes, letting
#: in-flight messages deliver so late latency samples are not truncated.
DEFAULT_DRAIN = 0.5

#: ``LiveSpec.fd`` → the group's detector: a heartbeat every 0.1 s and
#: suspicion after 1 s of silence (a host stalls healthy workers longer
#: than the simulator's 0.25 s), or the base detector: nothing is sent.
LIVE_DETECTORS = {
    "heartbeat": FailureDetectorConfig(
        kind=FailureDetectorKind.HEARTBEAT, heartbeat_interval=0.1, timeout=1.0
    ),
    "none": FailureDetectorConfig(kind=FailureDetectorKind.SCRIPTED),
}


@dataclass(frozen=True, slots=True)
class LiveSpec:
    """Knobs of one live run (defaults mirror the simulator's).

    :func:`repro.live.run_live` deploys it; the command line's run-point,
    population and trace flags take their defaults from these fields.
    """

    #: Group size.
    n: int = 3
    #: Stack label: a key of :data:`STACK_REGISTRY`.
    stack: str = "monolithic"
    #: Offered load in messages/second across the whole group.
    load: float = 100.0
    #: Message payload size in bytes.
    size: int = 1024
    #: Measurement window length in seconds.
    duration: float = 5.0
    #: Warm-up seconds before the window opens.
    warmup: float = 0.5
    #: Flow-control window (own messages in flight per process).
    window: int = 3
    #: Maximum messages ordered per consensus execution.
    max_batch: int | None = 4
    #: Failure detector: a key of :data:`LIVE_DETECTORS`.
    fd: str = field(default="heartbeat", metadata={"choices": tuple(LIVE_DETECTORS)})
    #: Workload phase seed (kept for result provenance).
    seed: int = 1
    #: Interface to bind; the default keeps everything on localhost.
    host: str = "127.0.0.1"
    #: Post-window drain seconds.
    drain: float = _bounded(DEFAULT_DRAIN, (">=", 0))
    #: Which processes generate load (``None`` = all of them). The
    #: offered load is split across the listed senders only; the
    #: conformance tests use a single sender so the total order is
    #: forced and directly comparable against the simulator's.
    senders: tuple[int, ...] | None = None
    #: Per-peer cap on unacked transport frames; at the cap the
    #: transport signals congestion and the arrival scheduler stalls
    #: (``backpressure_stalls``) instead of growing the queue; 0 = no cap.
    max_unacked: int = _bounded(1024, (">=", 0))
    #: Cap on the top module's backlog of messages awaiting ordering;
    #: the ordering core's credit contribution to the same gate; 0 = no cap.
    unordered_cap: int = _bounded(512, (">=", 0))
    #: Directory for per-worker write-ahead delivery logs (crash
    #: recovery); ``None`` disables logging — the fault-free default.
    wal_dir: str | None = None
    #: Logical clients multiplexed onto the worker connections by the
    #: client-fleet driver; 0 keeps the paper's plain symmetric load.
    #: Each worker fronts ``clients / n`` clients on its single control
    #: connection — thousands of logical clients per connection cost
    #: one gap sampler and one Zipf draw per arrival, nothing per
    #: client (see :mod:`repro.workload.population`).
    clients: int = _bounded(0, (">=", 0))
    #: Zipf activity-skew exponent of the fleet (0 = uniform).
    zipf_s: float = 1.1
    #: Aggregate arrival law of the fleet: a :class:`ClientArrival` value.
    client_arrival: str = field(
        default="poisson", metadata={"choices": tuple(a.value for a in ClientArrival)}
    )
    #: Span-trace ring-buffer capacity per worker; 0 disables tracing
    #: (the default — spans cost memory and control-channel bytes).
    trace_cap: int = _bounded(0, (">=", 0))

    def validate(self) -> None:
        """Reject a spec the deployment cannot run, before anything spawns.

        This checks the live-only knobs; everything a live run shares
        with a simulation is checked by the :class:`RunConfig` that
        :func:`matched_run_config` builds from it.
        """
        _check_fields(self)
        matched_run_config(self)
        if self.senders is not None and (
            not self.senders or not all(0 <= pid < self.n for pid in self.senders)
        ):
            raise ConfigurationError(
                f"LiveSpec.senders must name processes of 0..{self.n - 1}: "
                f"{self.senders}"
            )


def matched_run_config(spec: LiveSpec) -> RunConfig:
    """A live spec in the simulator's terms — the one such mapping.

    Workers build stack, window, detector and client fleet from it and
    ``repro live --compare`` simulates it: same heartbeat traffic, same
    population. ``senders`` has no counterpart; a simulation loads every
    process unless its caller attaches its own arrival schedules.
    """
    population = None
    if spec.clients:
        population = ClientPopulationConfig(
            spec.clients, spec.zipf_s, ClientArrival(spec.client_arrival)
        )
    return RunConfig(
        n=spec.n,
        stack=stack_from_label(spec.stack),
        workload=WorkloadConfig(
            offered_load=spec.load, message_size=spec.size, population=population
        ),
        flow_control=FlowControlConfig(window=spec.window, max_batch=spec.max_batch),
        failure_detector=LIVE_DETECTORS[spec.fd],
        duration=spec.duration,
        warmup=spec.warmup,
    )
