"""Unit tests for the network timing model."""

import pytest

from repro.config import NetworkConfig
from repro.errors import NetworkError
from repro.net.faults import FaultInjector
from repro.net.message import NetMessage
from repro.net.network import Network
from repro.sim.kernel import Kernel


def _msg(src=0, dst=1, size=1000, kind="K"):
    return NetMessage(
        kind=kind, module="m", src=src, dst=dst, payload=None,
        payload_size=size, header_size=0,
    )


def _network(n=3, bandwidth=1000.0, propagation=0.1):
    kernel = Kernel()
    config = NetworkConfig(bandwidth=bandwidth, propagation=propagation)
    network = Network(kernel, n, config)
    arrivals: list[tuple[float, NetMessage]] = []
    for pid in range(n):
        network.register(pid, lambda m, k=kernel: arrivals.append((k.now, m)))
    return kernel, network, arrivals


def test_arrival_time_is_serialization_plus_propagation():
    kernel, network, arrivals = _network(bandwidth=1000.0, propagation=0.1)
    network.transmit(_msg(size=500), depart_time=0.0)  # 0.5s on the NIC
    kernel.run()
    assert arrivals[0][0] == pytest.approx(0.6)


def test_nic_serializes_back_to_back_sends():
    kernel, network, arrivals = _network(bandwidth=1000.0, propagation=0.0)
    network.transmit(_msg(size=500, dst=1), depart_time=0.0)
    network.transmit(_msg(size=500, dst=2), depart_time=0.0)
    kernel.run()
    times = sorted(t for t, __ in arrivals)
    assert times == [pytest.approx(0.5), pytest.approx(1.0)]


def test_different_senders_do_not_contend():
    kernel, network, arrivals = _network(bandwidth=1000.0, propagation=0.0)
    network.transmit(_msg(src=0, dst=2, size=500), depart_time=0.0)
    network.transmit(_msg(src=1, dst=2, size=500), depart_time=0.0)
    kernel.run()
    times = [t for t, __ in arrivals]
    assert times == [pytest.approx(0.5), pytest.approx(0.5)]


def test_per_pair_fifo_is_preserved():
    # A huge message then a tiny one on the same pair: the tiny one may
    # not overtake (TCP channel semantics).
    kernel, network, arrivals = _network(bandwidth=1000.0, propagation=0.5)
    network.transmit(_msg(size=1000), depart_time=0.0)
    network.transmit(_msg(size=1), depart_time=0.0)
    kernel.run()
    uids = [m.uid for __, m in arrivals]
    times = [t for t, __ in arrivals]
    assert uids == sorted(uids)
    assert times[0] <= times[1]


def test_stats_count_transmissions():
    kernel, network, arrivals = _network()
    network.transmit(_msg(size=123), depart_time=0.0)
    assert network.stats.messages_sent == 1
    assert network.stats.bytes_sent == 123


def test_crashed_destination_never_receives():
    kernel, network, arrivals = _network()
    network.faults.mark_crashed(1)
    network.transmit(_msg(dst=1), depart_time=0.0)
    kernel.run()
    assert arrivals == []


def test_crash_after_transmit_but_before_arrival_drops():
    kernel, network, arrivals = _network(propagation=1.0)
    network.transmit(_msg(dst=1, size=0), depart_time=0.0)
    kernel.schedule(0.5, lambda: network.faults.mark_crashed(1))
    kernel.run()
    assert arrivals == []


def test_fault_filter_can_drop_and_delay():
    kernel, network, arrivals = _network(bandwidth=1e9, propagation=0.0)
    network.faults.add_filter(lambda m: None if m.kind == "DROPME" else 0.0)
    network.faults.add_filter(lambda m: 2.0 if m.kind == "SLOW" else 0.0)
    network.transmit(_msg(kind="DROPME"), depart_time=0.0)
    network.transmit(_msg(kind="SLOW"), depart_time=0.0)
    kernel.run()
    assert len(arrivals) == 1
    assert arrivals[0][0] == pytest.approx(2.0, abs=1e-5)


def test_unknown_destination_rejected():
    kernel, network, __ = _network(n=2)
    with pytest.raises(NetworkError):
        network.transmit(_msg(dst=5), depart_time=0.0)


def test_depart_in_the_past_rejected():
    kernel, network, __ = _network()
    kernel.schedule(1.0, lambda: None)
    kernel.run()
    with pytest.raises(NetworkError):
        network.transmit(_msg(), depart_time=0.5)


def test_network_requires_two_processes():
    with pytest.raises(NetworkError):
        Network(Kernel(), 1, NetworkConfig())


def test_unregistered_receiver_is_an_error():
    kernel = Kernel()
    network = Network(kernel, 2, NetworkConfig(bandwidth=1e9, propagation=0.0))
    network.transmit(_msg(dst=1), depart_time=0.0)
    with pytest.raises(NetworkError):
        kernel.run()


def test_propagation_matrix_overrides_uniform_delay():
    kernel = Kernel()
    matrix = (
        (0.0, 0.1, 0.5),
        (0.1, 0.0, 0.5),
        (0.5, 0.5, 0.0),
    )
    config = NetworkConfig(
        bandwidth=1e12, propagation=9.9, propagation_matrix=matrix
    )
    network = Network(kernel, 3, config)
    arrivals = []
    for pid in range(3):
        network.register(pid, lambda m, k=kernel: arrivals.append((k.now, m.dst)))
    network.transmit(_msg(src=0, dst=1, size=0), depart_time=0.0)
    network.transmit(_msg(src=0, dst=2, size=0), depart_time=0.0)
    kernel.run()
    by_dst = {dst: t for t, dst in arrivals}
    assert by_dst[1] == pytest.approx(0.1)
    assert by_dst[2] == pytest.approx(0.5)


def test_uniform_delay_used_without_matrix():
    config = NetworkConfig(propagation=0.25)
    assert config.delay(0, 1) == 0.25
    assert config.delay(2, 0) == 0.25


def test_crashed_sender_cannot_put_new_frames_on_the_wire():
    """Fail-stop guard: transmit attempts after mark_crashed are stifled
    (in-flight frames transmitted *before* the crash still arrive)."""
    kernel, network, arrivals = _network(bandwidth=1000.0, propagation=0.1)
    network.transmit(_msg(src=0, dst=1, size=100), depart_time=0.0)  # pre-crash
    network.faults.mark_crashed(0)
    network.transmit(_msg(src=0, dst=1, size=100), depart_time=0.0)  # post-crash
    kernel.run()
    assert len(arrivals) == 1
    assert network.stats.sends_after_crash == 1
    assert network.stats.messages_sent == 1
