"""Unit and behaviour tests for the fabric simulator.

The multi-link behaviour tested here is the mechanism behind Fig 4.2:
per-connection injection caps a single link pair, the shared NIC pipe
caps the aggregate, and connection sharing serializes injection.
"""

import pytest

from repro.errors import NetworkError
from repro.machine import MachineSpec, MachineTopology, NodeSpec
from repro.network import Fabric, NetworkParams
from repro.sim import Simulator

GB = 1e9


def make_fabric(sim, nodes=2, **params):
    topo = MachineTopology(
        MachineSpec(name="t", nodes=nodes, node=NodeSpec(2, 4, 1))
    )
    defaults = dict(
        latency=1e-6, send_overhead=0.0, recv_overhead=0.0, gap=0.0,
        connection_bw=1 * GB, nic_bw=2 * GB, loopback_bw=4 * GB,
        loopback_latency=0.5e-6, qp_penalty=0.0,
    )
    defaults.update(params)
    return Fabric(sim, topo, NetworkParams(**defaults))


@pytest.fixture
def sim():
    return Simulator()


class TestRegistration:
    def test_register_and_lookup(self, sim):
        fab = make_fabric(sim)
        ep = fab.register_endpoint(0, node_index=0)
        assert fab.endpoint(0) is ep
        assert ep.node_index == 0

    def test_duplicate_rejected(self, sim):
        fab = make_fabric(sim)
        fab.register_endpoint(0, 0)
        with pytest.raises(NetworkError, match="already"):
            fab.register_endpoint(0, 1)

    def test_unknown_endpoint_rejected(self, sim):
        fab = make_fabric(sim)
        with pytest.raises(NetworkError, match="unknown"):
            fab.endpoint(99)

    def test_bad_node_rejected(self, sim):
        fab = make_fabric(sim)
        with pytest.raises(NetworkError, match="out of range"):
            fab.register_endpoint(0, 5)

    def test_private_connections_by_default(self, sim):
        fab = make_fabric(sim)
        a = fab.register_endpoint(0, 0)
        b = fab.register_endpoint(1, 0)
        assert a.connection is not b.connection

    def test_shared_connection_with_key(self, sim):
        fab = make_fabric(sim)
        a = fab.register_endpoint(0, 0, connection_key="proc0")
        b = fab.register_endpoint(1, 0, connection_key="proc0")
        assert a.connection is b.connection

    def test_connection_key_scoped_per_node(self, sim):
        fab = make_fabric(sim)
        a = fab.register_endpoint(0, 0, connection_key="p")
        b = fab.register_endpoint(1, 1, connection_key="p")
        assert a.connection is not b.connection


class TestPointToPoint:
    def test_small_message_latency_bound(self, sim):
        fab = make_fabric(sim, latency=2e-6)
        fab.register_endpoint(0, 0)
        fab.register_endpoint(1, 1)

        def proc(sim, fab):
            yield from fab.transmit(0, 1, 8)
            return sim.now

        p = sim.spawn(proc(sim, fab))
        sim.run()
        assert p.result == pytest.approx(2e-6 + 8 / (2 * GB), rel=1e-6)

    def test_large_message_connection_bound(self, sim):
        fab = make_fabric(sim, connection_bw=1 * GB, nic_bw=10 * GB)
        fab.register_endpoint(0, 0)
        fab.register_endpoint(1, 1)
        n = 1 * GB

        def proc(sim, fab):
            yield from fab.transmit(0, 1, n)
            return sim.now

        p = sim.spawn(proc(sim, fab))
        sim.run()
        assert p.result == pytest.approx(1.0, rel=1e-3)

    def test_matches_analytic_time(self, sim):
        fab = make_fabric(sim)
        fab.register_endpoint(0, 0)
        fab.register_endpoint(1, 1)
        n = 1 << 20

        def proc(sim, fab):
            yield from fab.transmit(0, 1, n)
            return sim.now

        p = sim.spawn(proc(sim, fab))
        sim.run()
        assert p.result == pytest.approx(fab.params.message_time(n), rel=1e-3)

    def test_negative_size_rejected(self, sim):
        fab = make_fabric(sim)
        fab.register_endpoint(0, 0)
        fab.register_endpoint(1, 1)

        def proc(sim, fab):
            yield from fab.transmit(0, 1, -5)

        p = sim.spawn(proc(sim, fab))
        sim.run()
        assert isinstance(p.exc, NetworkError)

    def test_stats_collected(self, sim):
        fab = make_fabric(sim)
        fab.register_endpoint(0, 0)
        fab.register_endpoint(1, 1)

        def proc(sim, fab):
            yield from fab.transmit(0, 1, 100)

        sim.spawn(proc(sim, fab))
        sim.run()
        assert fab.stats.get_count("net.messages") == 1
        assert fab.stats.get_sum("net.bytes") == pytest.approx(100)


class TestLoopback:
    def test_intra_node_skips_wire(self, sim):
        fab = make_fabric(sim, latency=1.0, loopback_latency=1e-6)
        fab.register_endpoint(0, 0)
        fab.register_endpoint(1, 0)

        def proc(sim, fab):
            yield from fab.transmit(0, 1, 8)
            return sim.now

        p = sim.spawn(proc(sim, fab))
        sim.run()
        assert p.result < 1e-3  # wire latency of 1s never paid
        assert fab.stats.get_count("net.loopback_messages") == 1


class TestMultiLink:
    """The Fig 4.2 mechanism: aggregate bandwidth vs number of link pairs."""

    def _flood(self, n_pairs, connection_key=None, nbytes=64 << 20):
        sim = Simulator()
        fab = make_fabric(sim, connection_bw=1 * GB, nic_bw=2 * GB)
        for i in range(n_pairs):
            key = connection_key if connection_key is None else connection_key
            fab.register_endpoint(i, 0, connection_key=key)
            fab.register_endpoint(100 + i, 1, connection_key=key)

        def sender(sim, fab, i):
            yield from fab.transmit(i, 100 + i, nbytes)

        for i in range(n_pairs):
            sim.spawn(sender(sim, fab, i))
        end = sim.run()
        sim.raise_failures()
        return n_pairs * nbytes / end  # aggregate bytes/s

    def test_one_pair_limited_by_connection(self):
        bw = self._flood(1)
        assert bw == pytest.approx(1 * GB, rel=0.01)

    def test_many_pairs_limited_by_nic(self):
        bw = self._flood(4)
        assert bw == pytest.approx(2 * GB, rel=0.01)

    def test_shared_connection_caps_aggregate(self):
        """pthreads-style sharing: 4 'threads' on one connection get ~1 GB/s."""
        bw = self._flood(4, connection_key="proc")
        assert bw == pytest.approx(1 * GB, rel=0.05)

    def test_processes_beat_shared_connection(self):
        assert self._flood(4) > 1.5 * self._flood(4, connection_key="proc")

    def test_two_pairs_fill_nic(self):
        bw = self._flood(2)
        assert bw == pytest.approx(2 * GB, rel=0.02)


class TestQpThrashing:
    """The D2 mechanism: NIC efficiency drops past qp_knee connections."""

    def _flood(self, n_pairs, qp_penalty, nbytes=64 << 20):
        sim = Simulator()
        fab = make_fabric(
            sim, connection_bw=2 * GB, nic_bw=2 * GB, qp_penalty=qp_penalty,
        )
        for i in range(n_pairs):
            fab.register_endpoint(i, 0)
            fab.register_endpoint(100 + i, 1)

        def sender(sim, fab, i):
            yield from fab.transmit(i, 100 + i, nbytes)

        for i in range(n_pairs):
            sim.spawn(sender(sim, fab, i))
        end = sim.run()
        sim.raise_failures()
        return n_pairs * nbytes / end

    def test_within_knee_full_rate(self):
        assert self._flood(2, qp_penalty=0.2) == pytest.approx(2 * GB, rel=0.02)

    def test_beyond_knee_degrades(self):
        bw = self._flood(6, qp_penalty=0.25)
        # 6 connections: eff = 1/(1+0.25*4) = 0.5
        assert bw == pytest.approx(1 * GB, rel=0.05)

    def test_ablation_zero_penalty(self):
        assert self._flood(6, qp_penalty=0.0) == pytest.approx(2 * GB, rel=0.02)

    def test_nic_efficiency_formula(self):
        p = NetworkParams(qp_knee=2, qp_penalty=0.1)
        assert p.nic_efficiency(1) == 1.0
        assert p.nic_efficiency(2) == 1.0
        assert p.nic_efficiency(8) == pytest.approx(1 / 1.6)

    def test_bad_qp_params_rejected(self):
        import pytest as _pytest

        from repro.errors import NetworkError

        with _pytest.raises(NetworkError):
            NetworkParams(qp_knee=0)
        with _pytest.raises(NetworkError):
            NetworkParams(qp_penalty=-0.1)


class TestInjectionSerialization:
    def test_shared_connection_serializes_latency(self, sim):
        """Two large messages on one connection: second waits for first's
        injection — the 'serialized pthread latency' effect."""
        fab = make_fabric(sim, connection_bw=1 * GB, nic_bw=100 * GB, latency=0.0)
        fab.register_endpoint(0, 0, connection_key="p")
        fab.register_endpoint(1, 0, connection_key="p")
        fab.register_endpoint(10, 1)
        fab.register_endpoint(11, 1)
        n = 1 * GB
        ends = []

        def sender(sim, fab, src, dst):
            yield from fab.transmit(src, dst, n)
            ends.append(sim.now)

        sim.spawn(sender(sim, fab, 0, 10))
        sim.spawn(sender(sim, fab, 1, 11))
        sim.run()
        sim.raise_failures()
        assert sorted(ends) == [pytest.approx(1.0, rel=0.01),
                                pytest.approx(2.0, rel=0.01)]
