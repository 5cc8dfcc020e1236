"""Compile nemesis faultloads onto the live deployment (`nemesis --live`).

The nemesis subsystem injects faults into the *simulator*; this module
runs the same declarative :class:`~repro.config.FaultloadConfig` on a
live deployment, so one faultload JSON replays in both modes. Both read
it through :func:`~repro.nemesis.steps.compile_faultload`'s timed steps,
and print the same timeline text for them. A link fault's ``on`` and
``off`` steps switch its verb:

========================  =========================================  ====================================
step                      simulator                                  live
========================  =========================================  ====================================
``crash``                 halt the process model (fail-stop)         timed ``SIGKILL`` + scheduled
                                                                     restart with WAL crash recovery
``hold``, ``drop``        hold/drop severed messages in the network  transport-level HOLD/DROP link
                          model                                      directives over the control channel
``delay``                 add latency in the network model           one ``call_later`` wait in the
                                                                     link's ``flush``; the frames queued
                                                                     during it leave together
``lose``                  probabilistic per-message loss             *unsupported live* (rejected as
                                                                     ``loss_bursts``)
``suspect``/``retract``   force, then retract, the observer's FD     *unsupported live* (rejected as
                                                                     ``wrong_suspicions``)
========================  =========================================  ====================================

One semantic divergence is deliberate: the simulator's crash is
permanent (fail-stop, the paper's model), while the live compilation
restarts the victim after ``restart_delay`` — that is the whole point
of exercising the WAL/rejoin machinery. Safety invariants must hold in
both readings; the live liveness check therefore also demands post-heal
progress from the *recovered* process.

After the run, :func:`check_merged_logs` merges the per-worker
write-ahead delivery logs and replays them through the unchanged
:class:`~repro.nemesis.invariants.InvariantMonitor` — the same driver of
the same :class:`~repro.metrics.ordering.AbcastSpec` the simulator uses
— plus an offline liveness rule (every worker's log must show a delivery
after the last fault action).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import FaultloadConfig
from repro.errors import DeploymentError
from repro.live.deploy import Fault, FaultOp, LiveSpec, _reduce
from repro.live.orchestrator import _deployment, _watch
from repro.live.wal import _Accept, _Deliver, _read_records, read_wal
from repro.nemesis.invariants import InvariantMonitor, Violation
from repro.nemesis.steps import compile_faultload
from repro.types import AppMessage, MessageId

#: Seconds between a scheduled SIGKILL and the victim's restart.
DEFAULT_RESTART_DELAY = 0.4

#: Quiet margin the run keeps between the last fault action and the end
#: of the arrival window, so post-heal progress is observable at all.
_QUIET_MARGIN = 0.6

#: Once the last restarted worker confirms recovery, the group keeps
#: running this long so post-recovery consensus rounds (the recovered
#: worker's re-injected messages, in-flight instances) land in every
#: delivery log before the window closes.
_RECOVERY_SETTLE = 0.6

#: How long a restarted worker gets to confirm recovery (fork/exec,
#: interpreter start-up, state transfer retries) before the run fails.
RECOVERY_TIMEOUT = 15.0


@dataclass(frozen=True, slots=True)
class LiveFaultAction:
    """One timed action of the compiled live fault schedule."""

    #: Seconds after the epoch at which the action fires.
    at: float
    #: ``kill`` | ``restart`` | ``fault`` (link directives).
    kind: str
    #: Victim pid for kill/restart actions.
    pid: int | None = None
    #: ``(target pid, directive)`` pairs for ``fault`` actions.
    directives: tuple[tuple[int, Fault], ...] = ()
    #: Human-readable form for the report timeline.
    describe: str = ""


#: The transport directives that switch each link verb on and off;
#: ``lose`` has none.
_LIVE_OPS = {
    "hold": (FaultOp.HOLD, FaultOp.RELEASE),
    "drop": (FaultOp.DROP, FaultOp.UNDROP),
    "delay": (FaultOp.DELAY, FaultOp.CLEAR_DELAY),
}


def compile_live_faultload(
    faultload: FaultloadConfig,
    n: int,
    *,
    restart_delay: float = DEFAULT_RESTART_DELAY,
) -> list[LiveFaultAction]:
    """Compile *faultload* into a time-sorted live action schedule.

    Raises:
        DeploymentError: For faultload features without a live
            compilation (loss bursts, wrong suspicions) or crash times
            that would make kill and restart overlap per victim.
    """
    steps = compile_faultload(faultload)
    # The fields declaring a step with no live verb, in declaration order.
    unsupported = {
        step.source: None
        for step in steps
        if step.kind != "crash" and (step.link is None or step.link.verb not in _LIVE_OPS)
    }
    if unsupported:
        raise DeploymentError(
            f"faultload features unsupported in live mode: {', '.join(unsupported)} "
            "(live supports crashes, partitions and delay spikes)"
        )
    actions: list[LiveFaultAction] = []
    victims: set[int] = set()
    for step in steps:
        if step.kind == "crash":
            pid = step.process
            if not 0 <= pid < n:
                raise DeploymentError(f"crash victim p{pid} outside the group 0..{n - 1}")
            if pid in victims:
                raise DeploymentError(
                    f"process {pid} is crashed twice; the live runner "
                    "restarts each victim once"
                )
            victims.add(pid)
            actions += [
                LiveFaultAction(step.at, "kill", pid, describe=f"SIGKILL worker {pid}"),
                LiveFaultAction(
                    step.at + restart_delay, "restart", pid,
                    describe=f"restart worker {pid} (recover from WAL)",
                ),
            ]
            continue
        # A link step: one directive to every process with an affected peer.
        link = step.link
        assert link is not None
        on, off = _LIVE_OPS[link.verb]
        directives = []
        for src in range(n):
            peers = tuple(dst for dst in range(n) if dst != src and link.matches(src, dst))
            if peers:
                # ``extra`` and ``jitter`` are zero but for a delay.
                directive = (
                    Fault(on, peers, link.extra, link.jitter)
                    if step.kind == "on"
                    else Fault(off, peers)
                )
                directives.append((src, directive))
        actions.append(
            LiveFaultAction(
                step.at, "fault", directives=tuple(directives), describe=step.text
            )
        )
    return sorted(actions, key=lambda action: action.at)


@dataclass
class LiveNemesisReport:
    """Outcome of one ``nemesis --live`` run."""

    #: Whether the merged delivery logs passed every invariant.
    passed: bool
    violations: tuple[Violation, ...]
    #: Deliveries that went through the merged-log safety checks.
    deliveries: int
    #: Distinct messages accepted across all workers (from the WALs).
    accepted: int
    kills: int
    restarts: int
    #: Workers whose final report confirms a WAL recovery.
    recovered: tuple[int, ...]
    #: Torn-tail bytes truncated across all recovered WALs.
    wal_truncated_bytes: int
    backpressure_stalls: int
    #: The fault schedule as executed, human-readable.
    timeline: tuple[str, ...] = ()
    #: The reduced live measurement (shared sim/live result schema).
    result: dict = field(default_factory=dict)


def check_merged_logs(
    n: int,
    wal_dir: str | Path,
    *,
    quiet_time: float = 0.0,
    check_liveness: bool = True,
    expect_all_delivered: bool = True,
) -> tuple[InvariantMonitor, int]:
    """Replay merged per-worker WALs through the invariant monitor.

    Accept records (write-ahead, fsynced before the message could reach
    any peer) form the abcast universe; deliver records, replayed in
    global timestamp order (stable, so each worker's own order is
    preserved), step the same spec as a simulated run. The offline
    liveness rule then demands that every worker's log shows a delivery
    at or after *quiet_time*, the instant of the last fault action — a
    recovered worker that never caught up, or a group that stalled after
    a heal, fails here. (The run keeps arrivals going for
    :data:`_QUIET_MARGIN` seconds past that instant, so there is always
    something to deliver.)

    Returns the monitor (finalized) and the number of accepted ids.
    """
    wal_dir = Path(wal_dir)
    accepts: list[tuple[float, MessageId]] = []
    delivers: list[tuple[float, int, MessageId]] = []
    last_delivery = [0.0] * n
    for pid in range(n):
        records, __ = read_wal(wal_dir / f"worker-{pid}.wal")
        for record in _read_records(records):
            if isinstance(record, _Accept):
                accepts.append((float(record.at), MessageId(record.s, record.q)))
            elif isinstance(record, _Deliver):
                when = float(record.at)
                delivers.append((when, pid, MessageId(record.s, record.q)))
                last_delivery[pid] = max(last_delivery[pid], when)
    monitor = InvariantMonitor(n)
    for at, msg_id in sorted(accepts, key=lambda entry: entry[0]):
        monitor.on_abcast(AppMessage(msg_id=msg_id, size=0, abcast_time=at))
    for when, pid, msg_id in sorted(delivers, key=lambda entry: entry[0]):
        monitor.on_adeliver(
            pid, AppMessage(msg_id=msg_id, size=0, abcast_time=0.0), when
        )
    end = max(
        [at for at, __ in accepts] + [when for when, __, __ in delivers],
        default=0.0,
    )
    monitor.finalize(
        expect_all_delivered=expect_all_delivered, now=end, crashed=set()
    )
    if check_liveness and delivers:
        for pid in range(n):
            if last_delivery[pid] < quiet_time:
                monitor.violations.append(
                    Violation(
                        invariant="liveness",
                        time=end,
                        description=(
                            f"p{pid} shows no delivery after the last "
                            f"disruption quieted at t={quiet_time:.2f} "
                            f"(last delivery t={last_delivery[pid]:.2f})"
                        ),
                    )
                )
    return monitor, len({msg_id for __, msg_id in accepts})


async def _run_nemesis_live_async(
    spec: LiveSpec,
    faultload: FaultloadConfig,
    actions: list[LiveFaultAction],
) -> LiveNemesisReport:
    assert spec.wal_dir is not None
    expected_dead: set[int] = set()
    timeline: list[str] = []
    restarted: list[int] = []
    kills = 0
    async with _deployment(spec, expected_dead) as (control, workers, epoch, spawn):
        for action in actions:
            await _watch(workers, epoch + action.at - time.monotonic(), expected_dead)
            timeline.append(f"t={action.at:.2f} {action.describe}")
            if action.kind == "kill":
                assert action.pid is not None
                victim = workers[action.pid]
                if victim.poll() is None:
                    victim.send_signal(signal.SIGKILL)
                    victim.wait()
                expected_dead.add(action.pid)
                kills += 1
            elif action.kind == "restart":
                assert action.pid is not None
                old = workers[action.pid]
                if old.stderr is not None:
                    old.stderr.close()
                workers[action.pid] = spawn(action.pid, recover=True)
                expected_dead.discard(action.pid)
                restarted.append(action.pid)
            else:
                for pid, document in action.directives:
                    control.send_to(pid, document)

        # The scheduled restart instant only marks the fork; the new
        # process pays interpreter start-up and state-transfer retries
        # before it is caught up. Hold the window open until every
        # restarted worker confirms recovery, plus a settle margin so
        # the post-recovery consensus rounds reach every delivery log.
        # Under a liveness-unsafe faultload (e.g. an unhealed
        # partition) recovery may rightly never complete — skip.
        if restarted and faultload.liveness_safe:
            for pid in restarted:
                await _watch(
                    workers,
                    RECOVERY_TIMEOUT,
                    expected_dead,
                    event=control.recovery_event(pid),
                    what=f"worker {pid} WAL recovery",
                )
            timeline.append(
                f"t={time.monotonic() - epoch:.2f} all restarted workers recovered"
            )
            await _watch(workers, _RECOVERY_SETTLE, expected_dead)
        total = spec.warmup + spec.duration + spec.drain
        await _watch(workers, epoch + total - time.monotonic(), expected_dead)

    result = _reduce(spec, control)
    quiet_time = max([action.at for action in actions], default=0.0)
    monitor, accepted = check_merged_logs(
        spec.n,
        spec.wal_dir,
        quiet_time=quiet_time,
        check_liveness=faultload.liveness_safe,
        expect_all_delivered=faultload.liveness_safe,
    )
    recovered = tuple(
        sorted(
            pid
            for pid, done in control.done.items()
            if done.recovered
        )
    )
    return LiveNemesisReport(
        passed=monitor.passed,
        violations=tuple(monitor.violations),
        deliveries=monitor.delivery_count,
        accepted=accepted,
        kills=kills,
        restarts=len(restarted),
        recovered=recovered,
        wal_truncated_bytes=control.total("wal_truncated_bytes"),
        backpressure_stalls=control.total("backpressure_stalls"),
        timeline=tuple(timeline),
        result=result,
    )


def run_nemesis_live(
    spec: LiveSpec,
    faultload: FaultloadConfig,
    *,
    restart_delay: float = DEFAULT_RESTART_DELAY,
) -> LiveNemesisReport:
    """Run *faultload* against a real deployment and check the logs.

    The measurement window is stretched, if needed, so the last fault
    action (kill, restart, heal) lands at least :data:`_QUIET_MARGIN`
    seconds before arrivals stop — otherwise post-heal progress would
    be unobservable and the liveness check meaningless. WALs go to
    ``spec.wal_dir``, or a temporary directory when unset.

    Raises:
        ConfigurationError: A spec error, before a worker is spawned.
        DeploymentError: Unsupported faultload features, a worker dying
            outside the schedule, or deployment-level failures.
    """
    spec.validate()
    actions = compile_live_faultload(
        faultload, spec.n, restart_delay=restart_delay
    )
    last_action = max([action.at for action in actions], default=0.0)
    needed = last_action + _QUIET_MARGIN - spec.warmup
    if spec.duration < needed:
        spec = dataclasses.replace(spec, duration=needed)
    with contextlib.ExitStack() as stack:
        if spec.wal_dir is None:
            wal_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-wal-")
            )
            spec = dataclasses.replace(spec, wal_dir=wal_dir)
        else:
            os.makedirs(spec.wal_dir, exist_ok=True)
        return asyncio.run(_run_nemesis_live_async(spec, faultload, actions))
