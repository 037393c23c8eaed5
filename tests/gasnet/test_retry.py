"""GASNet timeout + retransmit layer under injected message faults."""

import pytest

from repro.errors import EndpointFailedError, GasnetError
from repro.faults import FaultInjector, FaultPlan, MessageFaultRule
from repro.gasnet import RetryPolicy
from repro.sim import Simulator

from tests.gasnet.conftest import build_runtime


def arm(rt, plan, retry=None):
    inj = FaultInjector(rt.sim, plan, stats=rt.stats)
    rt.attach_faults(inj, retry=retry)
    return inj


def drive(sim, gen):
    """Run ``gen`` to completion, returning (finished, exception)."""
    out = {"exc": None, "done": False}
    def driver():
        try:
            yield from gen
            out["done"] = True
        except Exception as exc:
            out["exc"] = exc
    sim.spawn(driver())
    sim.run()
    return out["done"], out["exc"]


#: rules whose window closes before the first (>= 100 us) timeout: the
#: first attempt is hit deterministically, every retry lands after ``end``.
def transient(kind, end=50e-6):
    return FaultPlan(message_rules=(
        MessageFaultRule(kind, 1.0, start=0.0, end=end),
    ))


@pytest.fixture
def sim():
    return Simulator()


class TestRetryPolicy:
    def test_defaults_valid(self):
        RetryPolicy()

    def test_validation(self):
        with pytest.raises(GasnetError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(GasnetError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(GasnetError):
            RetryPolicy(min_timeout=0.0)
        with pytest.raises(GasnetError):
            RetryPolicy(timeout_factor=-1.0)

    def test_timeout_floor_and_backoff(self):
        pol = RetryPolicy(timeout_factor=8.0, min_timeout=100e-6, backoff=2.0)
        # small op: the floor dominates, then doubles per attempt
        assert pol.timeout_for(1e-6, 0) == 100e-6
        assert pol.timeout_for(1e-6, 1) == 200e-6
        assert pol.timeout_for(1e-6, 3) == 800e-6
        # large op: proportional to the expected time
        assert pol.timeout_for(1e-3, 0) == pytest.approx(8e-3)


class TestReliableXfer:
    def test_no_injector_no_retry_path(self, sim):
        rt = build_runtime(sim)
        done, exc = drive(sim, rt.xfer(0, 2, 4096, "put"))
        assert done and exc is None
        assert rt.stats.get_count("gasnet.timeouts") == 0

    def test_transient_loss_recovered(self, sim):
        rt = build_runtime(sim)
        arm(rt, transient("loss"))
        done, exc = drive(sim, rt.xfer(0, 2, 4096, "put"))
        assert done and exc is None
        assert rt.stats.get_count("gasnet.timeouts") == 1
        assert rt.stats.get_count("gasnet.retransmits") == 1
        assert rt.stats.get_count("gasnet.endpoint_failures") == 0

    def test_transient_corruption_recovered(self, sim):
        rt = build_runtime(sim)
        # corruption is NAKed at delivery and retried immediately (no
        # timeout), so its transient window must close within the first
        # attempt's ~4 us delivery time
        arm(rt, transient("corrupt", end=1e-6))
        done, exc = drive(sim, rt.xfer(0, 2, 4096, "get"))
        assert done and exc is None
        assert rt.stats.get_count("gasnet.corrupt_detected") >= 1
        assert rt.stats.get_count("gasnet.retransmits") >= 1
        # corruption is detected at delivery, not via timeout
        assert rt.stats.get_count("gasnet.timeouts") == 0
        # the failed attempt was supervised: nothing left to re-raise,
        # and nothing is left waiting
        sim.raise_failures()
        assert sim.stalled_processes() == []

    def test_persistent_loss_exhausts_budget(self, sim):
        rt = build_runtime(sim)
        retry = RetryPolicy(max_attempts=3)
        arm(rt, FaultPlan(message_rules=(MessageFaultRule("loss", 1.0),)),
            retry=retry)
        done, exc = drive(sim, rt.xfer(0, 2, 4096, "put"))
        assert not done
        assert isinstance(exc, EndpointFailedError)
        assert exc.thread == 2
        assert rt.stats.get_count("gasnet.timeouts") == 3
        assert rt.stats.get_count("gasnet.retransmits") == 2
        assert rt.stats.get_count("gasnet.endpoint_failures") == 1

    def test_backoff_spaces_attempts_exponentially(self, sim):
        rt = build_runtime(sim)
        retry = RetryPolicy(max_attempts=3, min_timeout=100e-6, backoff=2.0)
        arm(rt, FaultPlan(message_rules=(MessageFaultRule("loss", 1.0),)),
            retry=retry)
        done, exc = drive(sim, rt.xfer(0, 2, 64, "put"))
        assert isinstance(exc, EndpointFailedError)
        # three timeouts of 100/200/400 us (plus negligible overheads)
        assert sim.now == pytest.approx(700e-6, rel=0.2)

    def test_am_roundtrip_recovered(self, sim):
        rt = build_runtime(sim)
        arm(rt, transient("loss"))
        done, exc = drive(sim, rt.am_roundtrip(0, 2))
        assert done and exc is None
        assert rt.stats.get_count("gasnet.retransmits") == 1

    def test_am_roundtrip_to_dead_peer_fails(self, sim):
        rt = build_runtime(sim)
        inj = arm(rt, FaultPlan())
        inj.dead_nodes.add(1)  # threads 2,3 live on node 1
        done, exc = drive(sim, rt.am_roundtrip(0, 2))
        assert isinstance(exc, EndpointFailedError)

    def test_failed_attempts_leave_fabric_clean(self, sim):
        rt = build_runtime(sim)
        arm(rt, FaultPlan(message_rules=(MessageFaultRule("loss", 1.0),)),
            retry=RetryPolicy(max_attempts=2))
        done, exc = drive(sim, rt.xfer(0, 2, 4096, "put"))
        assert isinstance(exc, EndpointFailedError)
        for node in range(rt.topo.total_nodes):
            assert rt.fabric.active_connections_on_node(node) == 0
        # killed attempts are not "stalled": the supervisor reaped them
        assert sim.stalled_processes() == []

    def test_local_ops_bypass_reliability(self, sim):
        # PSHM neighbours copy through shared memory: no fabric message,
        # so a 100%-loss plan cannot touch them.
        rt = build_runtime(sim, pshm=True)
        arm(rt, FaultPlan(message_rules=(MessageFaultRule("loss", 1.0),)))
        done, exc = drive(sim, rt.xfer(0, 1, 4096, "put"))
        assert done and exc is None
        assert rt.stats.get_count("gasnet.timeouts") == 0
