"""Unit tests for Resource, Store and SharedBandwidth."""

import pytest

from repro.sim import Resource, SharedBandwidth, Simulator, Store
from repro.sim.engine import SimulationError


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_immediate_grant_when_free(self, sim):
        res = Resource(sim, capacity=1)
        ev = res.acquire()
        assert ev.done
        assert res.in_use == 1

    def test_fifo_ordering(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def user(sim, res, name, hold):
            yield res.acquire()
            order.append((name, sim.now))
            yield sim.delay(hold)
            res.release()

        sim.spawn(user(sim, res, "a", 2.0))
        sim.spawn(user(sim, res, "b", 1.0))
        sim.spawn(user(sim, res, "c", 1.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 2.0), ("c", 3.0)]

    def test_capacity_two_allows_two_holders(self, sim):
        res = Resource(sim, capacity=2)
        starts = []

        def user(sim, res):
            yield res.acquire()
            starts.append(sim.now)
            yield sim.delay(1.0)
            res.release()

        for _ in range(4):
            sim.spawn(user(sim, res))
        sim.run()
        assert starts == [0.0, 0.0, 1.0, 1.0]

    def test_release_idle_rejected(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError, match="idle"):
            res.release()

    def test_cancelled_waiter_skipped(self, sim):
        res = Resource(sim, capacity=1)
        first = res.acquire()
        assert first.done
        waiter = res.acquire()
        waiter.cancel()
        third = res.acquire()
        res.release()
        sim.run()
        assert third.done
        assert res.in_use == 1

    def test_second_holder_acquires_at_release(self, sim):
        res = Resource(sim, capacity=1)
        acquired = []

        def user(sim, res, hold):
            yield res.acquire()
            acquired.append(sim.now)
            yield sim.delay(hold)
            res.release()

        sim.spawn(user(sim, res, 2.0))
        sim.spawn(user(sim, res, 2.0))
        sim.run()
        assert acquired == [0.0, 2.0]

    def test_bad_capacity_rejected(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        ev = store.get()
        assert ev.done and ev.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def getter(sim, store):
            val = yield store.get()
            return (sim.now, val)

        p = sim.spawn(getter(sim, store))
        sim.schedule_at(3.0, store.put, "late")
        sim.run()
        assert p.result == (3.0, "late")

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert store.get().value == 1
        assert store.get().value == 2

    def test_try_get(self, sim):
        store = Store(sim)
        ok, item = store.try_get()
        assert not ok and item is None
        store.put(9)
        ok, item = store.try_get()
        assert ok and item == 9

    def test_len(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2

    def test_cancelled_getter_skipped(self, sim):
        store = Store(sim)
        g1 = store.get()
        g1.cancel()
        g2 = store.get()
        store.put("only")
        assert g2.done and g2.value == "only"


class TestSharedBandwidth:
    def test_single_transfer_time(self, sim):
        pipe = SharedBandwidth(sim, rate=100.0)

        def proc(sim, pipe):
            yield pipe.transfer(500.0)
            return sim.now

        p = sim.spawn(proc(sim, pipe))
        sim.run()
        assert p.result == pytest.approx(5.0)

    def test_two_equal_transfers_share_rate(self, sim):
        pipe = SharedBandwidth(sim, rate=100.0)
        ends = []

        def proc(sim, pipe):
            yield pipe.transfer(500.0)
            ends.append(sim.now)

        sim.spawn(proc(sim, pipe))
        sim.spawn(proc(sim, pipe))
        sim.run()
        # both progress at 50 B/s -> both finish at 10s
        assert ends == [pytest.approx(10.0), pytest.approx(10.0)]

    def test_late_arrival_slows_first(self, sim):
        pipe = SharedBandwidth(sim, rate=100.0)
        ends = {}

        def proc(sim, pipe, name, start, nbytes):
            yield sim.delay(start)
            yield pipe.transfer(nbytes)
            ends[name] = sim.now

        # A: 1000 B at t=0. Alone until t=5 (500 B done). B arrives with
        # 250 B; both at 50 B/s. B done at t=10; A has 250 B left, alone
        # again at 100 B/s -> done at t=12.5.
        sim.spawn(proc(sim, pipe, "a", 0.0, 1000.0))
        sim.spawn(proc(sim, pipe, "b", 5.0, 250.0))
        sim.run()
        assert ends["b"] == pytest.approx(10.0)
        assert ends["a"] == pytest.approx(12.5)

    def test_zero_byte_transfer_completes(self, sim):
        pipe = SharedBandwidth(sim, rate=100.0)

        def proc(sim, pipe):
            yield pipe.transfer(0.0)
            return sim.now

        p = sim.spawn(proc(sim, pipe))
        sim.run()
        assert p.result == pytest.approx(0.0)

    def test_negative_transfer_rejected(self, sim):
        pipe = SharedBandwidth(sim, rate=100.0)
        with pytest.raises(ValueError):
            pipe.transfer(-1.0)

    def test_bad_rate_rejected(self, sim):
        with pytest.raises(ValueError):
            SharedBandwidth(sim, rate=0.0)

    def test_fifo_mode_serializes(self, sim):
        pipe = SharedBandwidth(sim, rate=100.0, fifo=True)
        ends = []

        def proc(sim, pipe):
            yield pipe.transfer(500.0)
            ends.append(sim.now)

        sim.spawn(proc(sim, pipe))
        sim.spawn(proc(sim, pipe))
        sim.run()
        assert ends == [pytest.approx(5.0), pytest.approx(10.0)]

    def test_statistics(self, sim):
        pipe = SharedBandwidth(sim, rate=100.0)

        def proc(sim, pipe):
            yield pipe.transfer(200.0)

        sim.spawn(proc(sim, pipe))
        sim.spawn(proc(sim, pipe))
        sim.run()
        assert pipe.total_transfers == 2
        assert pipe.total_bytes == pytest.approx(400.0)
        assert pipe.busy_time == pytest.approx(4.0)

    def test_time_for_analytic(self, sim):
        pipe = SharedBandwidth(sim, rate=100.0)
        assert pipe.time_for(80.0) == pytest.approx(0.8)

    def test_set_rate_reprices_in_flight(self, sim):
        # 1000 B at 100 B/s; at t=5 the rate halves with 500 B left.
        pipe = SharedBandwidth(sim, rate=100.0)
        ev = pipe.transfer(1000.0)
        sim.schedule_at(5.0, pipe.set_rate, 50.0)
        sim.run()
        assert ev.value == 1000.0 and sim.now == pytest.approx(15.0)
        assert pipe.live_rate == 50.0 and pipe.time_for(100.0) == 1.0

    def test_fifo_serves_at_nominal_rate(self, sim):
        pipe = SharedBandwidth(sim, rate=100.0, fifo=True)
        pipe.transfer(1000.0)
        sim.schedule_at(5.0, pipe.set_rate, 50.0)
        sim.run()
        assert sim.now == pytest.approx(10.0)

    def test_many_staggered_transfers_conserve_bytes(self, sim):
        """Total bytes delivered never exceeds rate * elapsed (work conservation)."""
        pipe = SharedBandwidth(sim, rate=64.0)
        done_times = []

        def proc(sim, pipe, start, nbytes):
            yield sim.delay(start)
            yield pipe.transfer(nbytes)
            done_times.append(sim.now)

        sizes = [100.0, 37.0, 256.0, 8.0, 512.0, 64.0]
        starts = [0.0, 0.5, 1.0, 2.25, 3.0, 3.0]
        for st, nb in zip(starts, sizes):
            sim.spawn(proc(sim, pipe, st, nb))
        sim.run()
        total = sum(sizes)
        # the pipe started at t=0 and is never idle between 0 and last end
        assert max(done_times) >= total / 64.0
        assert pipe.busy_time <= max(done_times) + 1e-9
        assert pipe.total_bytes == pytest.approx(total)

    def test_transfer_started_from_completion_callback(self, sim):
        """A synchronous completion callback may start a transfer on the
        same pipe: it completes at its analytic time and no finished
        transfer is succeeded twice."""
        pipe = SharedBandwidth(sim, rate=100.0)
        ends = {}
        a = pipe.transfer(100.0)
        c = pipe.transfer(100.0)  # a and c finish at t=3 (100/3 B/s each)
        d = pipe.transfer(300.0)  # 200 B left at t=3

        def start_b(_ev):
            ends["a"] = sim.now
            b = pipe.transfer(50.0)
            b.add_callback(lambda _ev: ends.setdefault("b", sim.now))

        a.add_callback(start_b)
        c.add_callback(lambda _ev: ends.setdefault("c", sim.now))
        d.add_callback(lambda _ev: ends.setdefault("d", sim.now))
        sim.run()
        # from t=3, b (50 B) and d (200 B) share 100 B/s: b is done at
        # t=4, d drains its last 150 B alone by t=5.5.
        assert ends["a"] == ends["c"] == pytest.approx(3.0)
        assert ends["b"] == pytest.approx(4.0)
        assert ends["d"] == pytest.approx(5.5)
        assert c.value == 100.0 and not pipe._active
