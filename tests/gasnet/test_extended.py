"""Unit tests for non-blocking put/get handles."""

import pytest

from repro.errors import GasnetError
from repro.gasnet import extended

from tests.gasnet.conftest import build_runtime


@pytest.fixture
def rt(sim):
    return build_runtime(sim, nodes=2, threads_per_node=1, pshm=True)


class TestNonBlocking:
    def test_put_nb_returns_immediately(self, sim, rt):
        log = []

        def proc(rt):
            h = extended.put_nb(rt, 0, 1, 1 << 20)
            log.append(("issued", rt.sim.now))
            yield from h.wait()
            log.append(("done", rt.sim.now))

        sim.spawn(proc(rt))
        sim.run()
        sim.raise_failures()
        assert log[0] == ("issued", 0.0)
        assert log[1][1] > 0.0

    def test_overlap_hides_transfer(self, sim, rt):
        """Compute issued after put_nb overlaps with the wire time."""

        def overlapped(rt):
            h = extended.put_nb(rt, 0, 1, 4 << 20)
            yield rt.mem.compute(rt.location(0).pu, 0.01)
            yield from h.wait()
            return rt.sim.now

        p = sim.spawn(overlapped(rt))
        sim.run()
        sim.raise_failures()
        transfer_alone = rt.fabric.params.message_time(4 << 20)
        # 10 ms of compute dwarfs the transfer; total is about the compute
        assert p.result == pytest.approx(0.01, rel=0.15)
        assert transfer_alone < 0.01

    def test_double_wait_rejected(self, sim, rt):
        def proc(rt):
            h = extended.put_nb(rt, 0, 1, 8)
            yield from h.wait()
            yield from h.wait()

        p = sim.spawn(proc(rt))
        sim.run()
        assert isinstance(p.exc, GasnetError)

    def test_waitsync_time_recorded(self, sim, rt):
        def proc(rt):
            h = extended.put_nb(rt, 0, 1, 8 << 20)
            yield from h.wait()

        sim.spawn(proc(rt))
        sim.run()
        sim.raise_failures()
        assert rt.stats.get_count("gasnet.waitsync") == 1
        assert rt.stats.get_sum("gasnet.waitsync_time") > 0

    def test_get_nb(self, sim, rt):
        def proc(rt):
            h = extended.get_nb(rt, 0, 1, 1 << 16)
            yield from h.wait()
            return rt.sim.now

        p = sim.spawn(proc(rt))
        sim.run()
        sim.raise_failures()
        assert p.result > 0

    def test_done_flag(self, sim, rt):
        handles = {}

        def proc(rt):
            h = extended.put_nb(rt, 0, 1, 1 << 20)
            handles["h"] = h
            assert not h.done
            yield from h.wait()
            assert h.done

        sim.spawn(proc(rt))
        sim.run()
        sim.raise_failures()


class TestBlocking:
    def test_put_blocks_caller(self, sim, rt):
        def proc(rt):
            yield from extended.put(rt, 0, 1, 1 << 20)
            return rt.sim.now

        p = sim.spawn(proc(rt))
        sim.run()
        sim.raise_failures()
        assert p.result >= rt.fabric.params.message_time(1 << 20)

    def test_get_blocks_caller(self, sim, rt):
        def proc(rt):
            yield from extended.get(rt, 0, 1, 1 << 20)
            return rt.sim.now

        p = sim.spawn(proc(rt))
        sim.run()
        sim.raise_failures()
        assert p.result > 0
