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


def faulty_fabric(sim, plan, nodes=2, **params):
    fab = make_fabric(sim, nodes=nodes, **params)
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

    def test_each_interval_drains_at_its_own_factor(self):
        # 1 GB through a 2 GB/s NIC halved over [0.1, 0.3): 0.2 GB before
        # the window, 0.2 GB inside it and the last 0.6 GB after it, so
        # delivery ends at 0.6 s.  Pricing each stretch at the factor
        # that follows it would end at 0.55 s.
        sim = Simulator()
        plan = FaultPlan(degradations=(
            LinkDegradation(node=0, start=0.1, end=0.3, factor=0.5),
        ))
        fab, _inj = faulty_fabric(sim, plan, latency=0.0,
                                  connection_bw=1000 * GB)
        elapsed = self._timed_transmit(sim, fab, nbytes=1 * GB)
        assert elapsed == pytest.approx(0.6, rel=1e-12)
        assert fab.degrade_factor(0) == 1.0


class TestFifoNicPipes:
    """D4 ablation: FIFO NIC pipes serve at the nominal ``nic_bw``.

    The D2 connection-count penalty and degradation windows set only the
    processor-sharing rate, so neither moves a FIFO completion.
    """

    def test_fifo_ignores_penalty_and_degradation(self):
        sim = Simulator()
        plan = FaultPlan(degradations=(
            LinkDegradation(node=0, start=0.2, end=0.7, factor=0.25),
        ))
        # qp_knee=1: the second and third active connection on node 0
        # each cut the processor-sharing efficiency.
        fab = make_fabric(sim, fifo_links=True, qp_knee=1, qp_penalty=0.5,
                          connection_bw=1000 * GB)
        for i in range(3):
            fab.register_endpoint(i, 0)
            fab.register_endpoint(10 + i, 1)
        inj = FaultInjector(sim, plan, stats=fab.stats)
        inj.attach(fab)
        ends = {}
        peak = []

        def sender(i):
            yield sim.delay(0.1 * i)
            yield from fab.transmit(i, 10 + i, 1 * GB)
            ends[i] = sim.now

        def watch():
            yield sim.delay(0.25)
            peak.append(fab.active_connections_on_node(0))

        for i in range(3):
            sim.spawn(sender(i))
        sim.spawn(watch())
        sim.run()
        sim.raise_failures()
        assert peak == [3]
        # Back to back at 2 GB/s after the 1 us wire latency: 0.5 s each.
        assert ends == {0: 0.500001, 1: 1.0000010000000001,
                        2: 1.5000010000000001}
        assert fab.degrade_factor(0) == 1.0
