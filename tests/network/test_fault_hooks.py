"""Fabric fault hooks: black holes, corruption, repricing, kill cleanup.

Includes the regression for killing a process mid-``transmit``: the
timeout/retransmit layer relies on ``Process.kill`` leaving the fabric
clean (connection injector released, activity counters back to zero), or
every retry would deadlock behind its own corpse.
"""

import pytest

from repro.errors import MessageCorruptedError
from repro.faults import FaultInjector, FaultPlan, LinkDegradation, \
    MessageFaultRule, NodeCrash
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


def faulty_fabric(sim, plan, nodes=2):
    fab = make_fabric(sim, nodes=nodes)
    fab.register_endpoint(0, 0)
    fab.register_endpoint(1, 1)
    inj = FaultInjector(sim, plan, stats=fab.stats)
    inj.attach(fab)
    return fab, inj


@pytest.fixture
def sim():
    return Simulator()


class TestKillMidTransmitCleanup:
    """S3 regression: kill during transmit must not leak fabric state."""

    def _assert_clean(self, fab):
        for ep_id in (0, 1):
            assert fab.endpoint(ep_id).connection.active == 0
        assert fab.active_connections_on_node(0) == 0
        assert fab.active_connections_on_node(1) == 0

    def test_kill_mid_transmit_releases_everything(self, sim):
        fab = make_fabric(sim)
        fab.register_endpoint(0, 0)
        fab.register_endpoint(1, 1)
        proc = sim.spawn(fab.transmit(0, 1, 1_000_000))
        sim.run(until=100e-6)  # transfer takes ~1 ms: still in flight
        assert fab.endpoint(0).connection.active == 1
        proc.kill()
        self._assert_clean(fab)
        # the connection injector must be usable again: a fresh transmit
        # on the same connection completes instead of queueing forever
        done = []
        def retry():
            yield from fab.transmit(0, 1, 1000)
            done.append(sim.now)
        sim.spawn(retry())
        sim.run()
        assert done

    def test_kill_blackholed_transmit_releases_everything(self, sim):
        plan = FaultPlan(message_rules=(MessageFaultRule("loss", 1.0),))
        fab, _inj = faulty_fabric(sim, plan)
        proc = sim.spawn(fab.transmit(0, 1, 1000))
        sim.run()
        assert not proc.done  # black hole: heap drained, sender stuck
        assert fab.stats.get_count("net.messages_lost") == 1
        proc.kill()
        self._assert_clean(fab)

    def test_kill_mid_fetch_releases_everything(self, sim):
        fab = make_fabric(sim)
        fab.register_endpoint(0, 0)
        fab.register_endpoint(1, 1)
        proc = sim.spawn(fab.fetch(0, 1, 1_000_000))
        sim.run(until=100e-6)
        proc.kill()
        self._assert_clean(fab)


class TestMessageFates:
    def test_lost_transmit_never_completes(self, sim):
        plan = FaultPlan(message_rules=(MessageFaultRule("loss", 1.0),))
        fab, _inj = faulty_fabric(sim, plan)
        proc = sim.spawn(fab.transmit(0, 1, 1000))
        sim.run()
        assert not proc.done
        assert proc in sim.stalled_processes()

    def test_corrupt_transmit_raises_after_delivery(self, sim):
        plan = FaultPlan(message_rules=(MessageFaultRule("corrupt", 1.0),))
        fab, _inj = faulty_fabric(sim, plan)
        caught = []
        def driver():
            try:
                yield from fab.transmit(0, 1, 1000)
            except MessageCorruptedError as exc:
                caught.append((sim.now, exc))
        sim.spawn(driver())
        sim.run()
        assert len(caught) == 1
        assert caught[0][0] > 0  # delivery time was paid before the NAK
        assert str(caught[0][1]) == "message 0->1 (1000 B) failed integrity check"
        assert fab.stats.get_count("faults.messages_corrupted") == 1
        # corruption consumes wire resources like a good message
        assert fab.endpoint(0).connection.active == 0

    def test_corrupt_fetch_names_the_read(self, sim):
        plan = FaultPlan(message_rules=(MessageFaultRule("corrupt", 1.0),))
        fab, _inj = faulty_fabric(sim, plan)
        caught = []
        def driver():
            try:
                yield from fab.fetch(0, 1, 1000)
            except MessageCorruptedError as exc:
                caught.append(str(exc))
        sim.spawn(driver())
        sim.run()
        assert caught == ["read 0<-1 (1000 B) failed integrity check"]
        assert fab.endpoint(0).connection.active == 0

    def test_fates_only_consulted_with_injector(self, sim):
        fab = make_fabric(sim)
        fab.register_endpoint(0, 0)
        fab.register_endpoint(1, 1)
        proc = sim.spawn(fab.transmit(0, 1, 1000))
        sim.run()
        assert proc.done
        assert fab.stats.get_count("net.messages_lost") == 0

    def test_crashed_node_black_holes_messages(self, sim):
        plan = FaultPlan(crashes=(NodeCrash(node=1, at=0.0),))
        fab, inj = faulty_fabric(sim, plan)
        sim.step()  # fire the crash
        assert not inj.node_alive(1)
        proc = sim.spawn(fab.transmit(0, 1, 1000))
        sim.run()
        assert not proc.done
        assert fab.stats.get_count("faults.messages_blackholed") == 1


class TestDegradationRepricing:
    def _timed_transmit(self, sim, fab, nbytes=4_000_000):
        out = {}
        def driver():
            t0 = sim.now
            yield from fab.transmit(0, 1, nbytes)
            out["elapsed"] = sim.now - t0
        sim.spawn(driver())
        sim.run()
        return out["elapsed"]

    def test_degraded_window_slows_transfer(self):
        sim_a = Simulator()
        fab_a = make_fabric(sim_a)
        fab_a.register_endpoint(0, 0)
        fab_a.register_endpoint(1, 1)
        healthy = self._timed_transmit(sim_a, fab_a)

        sim_b = Simulator()
        plan = FaultPlan(degradations=(
            LinkDegradation(node=0, start=0.0, end=1.0, factor=0.25),
        ))
        fab_b, _inj = faulty_fabric(sim_b, plan)
        degraded = self._timed_transmit(sim_b, fab_b)
        assert degraded > healthy

    def test_window_ending_mid_flight_is_repriced(self):
        # Full window vs. one that lapses halfway through the transfer:
        # the second must finish strictly earlier (rate restored at edge).
        def run_with(end):
            sim = Simulator()
            plan = FaultPlan(degradations=(
                LinkDegradation(node=0, start=0.0, end=end, factor=0.1),
            ))
            fab, _inj = faulty_fabric(sim, plan)
            return self._timed_transmit(sim, fab)

        fully_degraded = run_with(end=1.0)
        partially = run_with(end=fully_degraded / 2)
        assert partially < fully_degraded
