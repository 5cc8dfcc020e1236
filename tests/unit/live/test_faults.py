"""Live faultload compilation and offline merged-log checking."""

import pytest

from repro.config import (
    CrashEvent,
    DelaySpike,
    FaultloadConfig,
    LinkFaultMode,
    LossBurst,
    PartitionEvent,
    WrongSuspicion,
)
from repro.errors import DeploymentError
from repro.live.deploy import Fault, FaultOp
from repro.live.faults import check_merged_logs, compile_live_faultload
from repro.live.wal import WalWriter


class TestCompile:
    def test_crash_becomes_kill_plus_restart(self):
        faultload = FaultloadConfig(crashes=(CrashEvent(time=1.0, process=2),))
        actions = compile_live_faultload(faultload, 3, restart_delay=0.5)
        assert [(a.at, a.kind, a.pid) for a in actions] == [
            (1.0, "kill", 2),
            (1.5, "restart", 2),
        ]

    def test_partition_compiles_to_hold_and_release_directives(self):
        faultload = FaultloadConfig(
            partitions=(
                PartitionEvent(start=0.2, heal=0.6, groups=((0,), (1, 2))),
            )
        )
        up, down = compile_live_faultload(faultload, 3)
        assert (up.at, up.kind) == (0.2, "fault")
        assert (down.at, down.kind) == (0.6, "fault")
        # Every severed direction gets a directive; none cross within a
        # group.
        ops = {pid: doc for pid, doc in up.directives}
        assert ops[0] == Fault(FaultOp.HOLD, (1, 2))
        assert ops[1] == Fault(FaultOp.HOLD, (0,))
        assert ops[2] == Fault(FaultOp.HOLD, (0,))
        heal_ops = {pid: doc.op for pid, doc in down.directives}
        assert set(heal_ops.values()) == {FaultOp.RELEASE}

    def test_drop_partition_uses_drop_directives(self):
        faultload = FaultloadConfig(
            partitions=(
                PartitionEvent(
                    start=0.2, heal=0.6, groups=((0,),), mode=LinkFaultMode.DROP
                ),
            )
        )
        up, down = compile_live_faultload(faultload, 3)
        assert all(doc.op is FaultOp.DROP for __, doc in up.directives)
        assert all(doc.op is FaultOp.UNDROP for __, doc in down.directives)

    def test_delay_spike_compiles_to_delay_directives(self):
        faultload = FaultloadConfig(
            delay_spikes=(
                DelaySpike(start=0.3, end=0.8, extra_delay=0.01, jitter=0.002),
            )
        )
        up, down = compile_live_faultload(faultload, 2)
        assert up.at == 0.3 and down.at == 0.8
        for __, doc in up.directives:
            assert doc.op is FaultOp.DELAY
            assert doc.extra == 0.01
            assert doc.jitter == 0.002
        assert all(doc.op is FaultOp.CLEAR_DELAY for __, doc in down.directives)

    def test_schedule_is_time_sorted_across_fault_kinds(self):
        faultload = FaultloadConfig(
            crashes=(CrashEvent(time=0.5, process=1),),
            partitions=(PartitionEvent(start=0.1, heal=0.9, groups=((0,),)),),
        )
        actions = compile_live_faultload(faultload, 3, restart_delay=0.2)
        assert [a.at for a in actions] == sorted(a.at for a in actions)

    def test_loss_bursts_are_rejected(self):
        faultload = FaultloadConfig(
            loss_bursts=(LossBurst(start=0.1, end=0.2, probability=0.5),)
        )
        with pytest.raises(DeploymentError, match="loss_bursts"):
            compile_live_faultload(faultload, 3)

    def test_wrong_suspicions_are_rejected(self):
        faultload = FaultloadConfig(
            wrong_suspicions=(WrongSuspicion(time=0.1, observer=0, suspect=1),)
        )
        with pytest.raises(DeploymentError, match="wrong_suspicions"):
            compile_live_faultload(faultload, 3)

    def test_out_of_range_victim_is_rejected(self):
        faultload = FaultloadConfig(crashes=(CrashEvent(time=0.1, process=7),))
        with pytest.raises(DeploymentError, match="outside the group"):
            compile_live_faultload(faultload, 3)

    def test_double_crash_of_one_process_is_rejected(self):
        faultload = FaultloadConfig(
            crashes=(
                CrashEvent(time=0.1, process=1),
                CrashEvent(time=0.5, process=1),
            )
        )
        with pytest.raises(DeploymentError, match="crashed twice"):
            compile_live_faultload(faultload, 3)


def write_wal(path, accepts=(), delivers=()):
    writer = WalWriter(path)
    for s, q, at in accepts:
        writer.append({"t": "accept", "s": s, "q": q, "at": at}, sync=True)
    for s, q, at, i in delivers:
        writer.append({"t": "deliver", "s": s, "q": q, "at": at, "i": i})
    writer.close()


class TestCheckMergedLogs:
    def test_consistent_logs_pass(self, tmp_path):
        # p0 abcasts two messages; everyone delivers both in order.
        for pid in range(3):
            write_wal(
                tmp_path / f"worker-{pid}.wal",
                accepts=[(0, 0, 0.1), (0, 1, 0.2)] if pid == 0 else [],
                delivers=[(0, 0, 0.3, 1), (0, 1, 0.4, 2)],
            )
        monitor, accepted = check_merged_logs(3, tmp_path, quiet_time=0.0)
        assert monitor.passed, monitor.violations
        assert accepted == 2
        assert monitor.delivery_count == 6

    def test_order_divergence_is_a_violation(self, tmp_path):
        write_wal(
            tmp_path / "worker-0.wal",
            accepts=[(0, 0, 0.1), (0, 1, 0.1)],
            delivers=[(0, 0, 0.3, 1), (0, 1, 0.4, 2)],
        )
        write_wal(
            tmp_path / "worker-1.wal",
            delivers=[(0, 1, 0.3, 1), (0, 0, 0.4, 2)],  # swapped
        )
        monitor, __ = check_merged_logs(2, tmp_path, quiet_time=0.0)
        assert not monitor.passed

    def test_missing_deliveries_violate_agreement(self, tmp_path):
        write_wal(
            tmp_path / "worker-0.wal",
            accepts=[(0, 0, 0.1)],
            delivers=[(0, 0, 0.3, 1)],
        )
        write_wal(tmp_path / "worker-1.wal", delivers=[(0, 0, 0.3, 1)])
        write_wal(tmp_path / "worker-2.wal")  # never caught up
        monitor, __ = check_merged_logs(3, tmp_path, quiet_time=0.0)
        assert not monitor.passed

    def test_liveness_watchdog_flags_a_stalled_worker(self, tmp_path):
        # Both logs agree, but p1 shows nothing after the disruption
        # quieted at t=1.0.
        write_wal(
            tmp_path / "worker-0.wal",
            accepts=[(0, 0, 0.1), (0, 1, 1.1)],
            delivers=[(0, 0, 0.3, 1), (0, 1, 1.2, 2)],
        )
        write_wal(tmp_path / "worker-1.wal", delivers=[(0, 0, 0.3, 1)])
        monitor, __ = check_merged_logs(2, tmp_path, quiet_time=1.0)
        assert any(v.invariant == "liveness" for v in monitor.violations)

    def test_liveness_check_can_be_disabled(self, tmp_path):
        write_wal(
            tmp_path / "worker-0.wal",
            accepts=[(0, 0, 0.1)],
            delivers=[(0, 0, 0.3, 1)],
        )
        write_wal(tmp_path / "worker-1.wal", delivers=[(0, 0, 0.3, 1)])
        monitor, __ = check_merged_logs(
            2,
            tmp_path,
            quiet_time=1.0,
            check_liveness=False,
            expect_all_delivered=False,
        )
        assert not any(v.invariant == "liveness" for v in monitor.violations)

    def test_empty_wal_dir_is_quietly_empty(self, tmp_path):
        monitor, accepted = check_merged_logs(2, tmp_path, quiet_time=0.0)
        assert accepted == 0
        assert monitor.delivery_count == 0
