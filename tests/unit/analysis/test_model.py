"""Unit tests for the analytical model (pure math).

The paper's §5.2 numbers are pinned as projections of the prediction:
the message counts and data volumes each predict function reports from
its one walk of the good-run pattern must be the closed forms.
"""

import math

import pytest

import repro
from repro.analysis.model import (
    ModularityPrediction,
    predict_gap,
    predict_modular,
    predict_monolithic,
)
from repro.config import CpuCosts, NetworkConfig, StackKind
from repro.errors import ConfigurationError


def test_paper_headline_message_counts_n3():
    """§5.2.1: n=3, M=4 -> modular 16 messages, monolithic 4."""
    gap = predict_gap(3, 4, 1000)
    assert gap.modular.messages == 16
    assert gap.monolithic.messages == 4
    assert gap.message_ratio == 4


def test_paper_message_counts_n7():
    gap = predict_gap(7, 4, 1000)
    assert gap.modular.messages == 60
    assert gap.monolithic.messages == 12


def test_paper_data_volumes():
    """§5.2.2: Datamod = 2(n-1)Ml; Datamono = (n-1)(1+1/n)Ml."""
    gap = predict_gap(3, 4, 1000)
    assert gap.modular.data == 16000
    assert gap.monolithic.data == pytest.approx(2 * (4 / 3) * 4 * 1000)


def test_paper_overhead_headline_numbers():
    """50% for n=3 and 75% for n=7 — the paper's headline result."""
    assert predict_gap(3, 4, 1000).data_overhead == pytest.approx(0.5)
    assert predict_gap(7, 4, 1000).data_overhead == pytest.approx(0.75)


def test_overhead_approaches_one_for_large_groups():
    assert predict_gap(99, 4, 512).data_overhead == pytest.approx(0.98)


def test_overhead_of_zero_byte_messages_is_undefined():
    gap = predict_gap(3, 4, 0)
    assert gap.modular.data == gap.monolithic.data == 0
    assert math.isnan(gap.data_overhead)


@pytest.mark.parametrize("m", [0.5, 1, 4, 10, 4.02])
@pytest.mark.parametrize("n", range(2, 12))
def test_projections_are_the_closed_forms(n, m):
    gap = predict_gap(n, m, 512)
    assert gap.modular.messages == pytest.approx((n - 1) * (m + 2 + (n + 1) // 2))
    assert gap.monolithic.messages == pytest.approx(2 * (n - 1))
    assert gap.modular.data == pytest.approx(2 * (n - 1) * m * 512)
    assert gap.monolithic.data == pytest.approx((n - 1) * (1 + 1 / n) * m * 512)
    assert gap.data_overhead == pytest.approx((n - 1) / (n + 1))


def test_public_analytical_compare_is_the_prediction():
    gap = repro.analytical_compare(3, 4, 16384)
    assert isinstance(gap, ModularityPrediction)
    assert gap.modular.messages == 16
    assert gap.data_overhead == pytest.approx(0.5)
    assert gap.modular.data == 2 * 2 * 4 * 16384


@pytest.mark.parametrize("predict", [predict_modular, predict_monolithic])
@pytest.mark.parametrize("n, m", [(1, 4), (0, 4), (3, 0), (3, -1)])
def test_validation_of_inputs(predict, n, m):
    with pytest.raises(ConfigurationError):
        predict(n, m, 100)


def test_prediction_identifies_stack_and_inputs():
    p = predict_modular(3, 4, 1024)
    assert p.stack is StackKind.MODULAR
    assert p.n == 3
    assert p.messages_per_consensus == 4
    assert p.message_size == 1024
    assert predict_monolithic(3, 4, 1024).stack is StackKind.MONOLITHIC


def test_bottleneck_is_the_max_resource():
    p = predict_modular(3, 4, 1024)
    assert p.bottleneck == max(
        p.coordinator_busy, p.noncoordinator_busy, p.coordinator_nic
    )
    assert p.saturation_throughput == pytest.approx(4 / p.bottleneck)


def test_coordinator_is_busier_than_noncoordinators():
    for n in (3, 5, 7):
        p = predict_modular(n, 4, 4096)
        assert p.coordinator_busy > p.noncoordinator_busy
        q = predict_monolithic(n, 4, 4096)
        assert q.coordinator_busy > q.noncoordinator_busy


def test_modular_costs_more_than_monolithic_everywhere():
    for n in (2, 3, 5, 7, 9):
        for size in (0, 64, 1024, 16384, 65536):
            gap = predict_gap(n, 4, size)
            assert gap.modular.coordinator_busy > gap.monolithic.coordinator_busy
            assert gap.throughput_gain > 0


def test_gap_shrinks_as_bytes_dominate():
    small = predict_gap(3, 4, 64).throughput_gain
    large = predict_gap(3, 4, 65536).throughput_gain
    assert large < small


def test_throughput_decreases_with_message_size():
    previous = float("inf")
    for size in (64, 1024, 8192, 32768):
        t = predict_modular(3, 4, size).saturation_throughput
        assert t < previous
        previous = t


def test_more_processes_cost_more_per_consensus():
    for size in (64, 16384):
        small_group = predict_modular(3, 4, size)
        large_group = predict_modular(7, 4, size)
        assert large_group.coordinator_busy > small_group.coordinator_busy


def test_batching_amortizes_fixed_costs():
    """Per delivered message, a larger M is cheaper for both stacks."""
    for predict in (predict_modular, predict_monolithic):
        m2 = predict(3, 2, 1024)
        m8 = predict(3, 8, 1024)
        per_message_m2 = m2.coordinator_busy / 2
        per_message_m8 = m8.coordinator_busy / 8
        assert per_message_m8 < per_message_m2


def test_zero_byte_messages_are_priced():
    p = predict_monolithic(3, 4, 0)
    assert p.coordinator_busy > 0
    assert p.saturation_throughput > 0


def test_custom_costs_and_network_flow_through():
    slow_cpu = CpuCosts(send_fixed=1e-3, recv_fixed=1e-3)
    slow = predict_modular(3, 4, 1024, costs=slow_cpu)
    fast = predict_modular(3, 4, 1024)
    assert slow.saturation_throughput < fast.saturation_throughput
    thin_pipe = NetworkConfig(bandwidth=1e6)
    choked = predict_modular(3, 4, 16384, net=thin_pipe)
    assert choked.bottleneck == choked.coordinator_nic
