"""Unit tests for network parameters and conduit presets."""

import pytest

from repro.errors import NetworkError
from repro.network import CONDUITS, NetworkParams, conduit


class TestNetworkParams:
    def test_defaults_valid(self):
        p = NetworkParams()
        assert p.name == "ib-qdr"

    def test_negative_latency_rejected(self):
        with pytest.raises(NetworkError):
            NetworkParams(latency=-1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(NetworkError):
            NetworkParams(nic_bw=0.0)

    def test_message_time_small_is_latency_bound(self):
        p = NetworkParams(latency=2e-6, gap=0.1e-6, connection_bw=1e9, nic_bw=2e9)
        assert p.message_time(8) == pytest.approx(2e-6 + 8 / 2e9)

    def test_message_time_large_is_connection_bound(self):
        p = NetworkParams(latency=2e-6, gap=0.1e-6, connection_bw=1e9, nic_bw=2e9)
        n = 1 << 20
        assert p.message_time(n) == pytest.approx(0.1e-6 + n / 1e9)


class TestConduits:
    def test_all_presets_constructible(self):
        for name, params in CONDUITS.items():
            assert params.name == name

    def test_lookup(self):
        assert conduit("ib-qdr").nic_bw == pytest.approx(2.4e9)
        assert conduit("ib-ddr").nic_bw == pytest.approx(1.5e9)

    def test_unknown_conduit_rejected(self):
        with pytest.raises(NetworkError, match="unknown conduit"):
            conduit("myrinet")

    def test_ethernet_is_much_slower_than_ib(self):
        eth, ib = conduit("gige"), conduit("ib-qdr")
        assert eth.latency > 10 * ib.latency
        assert eth.nic_bw < ib.nic_bw / 10

    def test_qdr_faster_than_ddr(self):
        qdr, ddr = conduit("ib-qdr"), conduit("ib-ddr")
        assert qdr.nic_bw > ddr.nic_bw
        assert qdr.latency < ddr.latency
