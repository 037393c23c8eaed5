"""Additional engine edge cases: combinators over processes, stores under
simultaneous events, failure bookkeeping."""

import pytest

from repro.sim import ProcessFailure, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestCombinatorsOverProcesses:
    def test_any_of_races_processes(self, sim):
        def fast(sim):
            yield sim.delay(1.0)
            return "fast"

        def slow(sim):
            yield sim.delay(5.0)
            return "slow"

        def boss(sim):
            idx, val = yield sim.any_of([sim.spawn(slow(sim)), sim.spawn(fast(sim))])
            return (idx, val, sim.now)

        p = sim.spawn(boss(sim))
        sim.run()
        assert p.result == (1, "fast", 1.0)

    def test_any_of_losing_process_keeps_running(self, sim):
        """AnyOf cancels its *observation*, not the process itself."""
        finished = []

        def worker(sim, name, dur):
            yield sim.delay(dur)
            finished.append(name)
            return name

        def boss(sim):
            a = sim.spawn(worker(sim, "a", 1.0))
            b = sim.spawn(worker(sim, "b", 3.0))
            yield sim.any_of([a, b])
            return sim.now

        sim.spawn(boss(sim))
        sim.run()
        assert finished == ["a", "b"]  # b still completed at t=3

    def test_all_of_mixed_awaitables(self, sim):
        ev = sim.event()

        def worker(sim):
            yield sim.delay(2.0)
            return "w"

        def boss(sim, ev):
            vals = yield sim.all_of([sim.spawn(worker(sim)), ev, sim.delay(1.0)])
            return vals

        p = sim.spawn(boss(sim, ev))
        sim.schedule_at(0.5, ev.succeed, "e")
        sim.run()
        assert p.result == ["w", "e", 1.0]

    def test_nested_process_failure_chain(self, sim):
        def inner(sim):
            yield sim.delay(1.0)
            raise KeyError("deep")

        def middle(sim):
            yield sim.spawn(inner(sim))

        def outer(sim):
            try:
                yield sim.spawn(middle(sim))
            except ProcessFailure as e:
                # middle failed because inner failed
                assert isinstance(e.__cause__, ProcessFailure)
                return "caught-chain"

        p = sim.spawn(outer(sim))
        sim.run()
        assert p.result == "caught-chain"


class TestStoreOrdering:
    def test_getters_served_fifo(self, sim):
        store = Store(sim)
        got = []

        def getter(sim, store, name):
            item = yield store.get()
            got.append((name, item))

        sim.spawn(getter(sim, store, "first"))
        sim.spawn(getter(sim, store, "second"))
        sim.schedule_at(1.0, store.put, "x")
        sim.schedule_at(2.0, store.put, "y")
        sim.run()
        assert got == [("first", "x"), ("second", "y")]

    def test_interleaved_put_get(self, sim):
        store = Store(sim)

        def producer(sim, store):
            for i in range(5):
                yield sim.delay(1.0)
                store.put(i)

        def consumer(sim, store):
            out = []
            for _ in range(5):
                item = yield store.get()
                out.append(item)
            return out

        sim.spawn(producer(sim, store))
        c = sim.spawn(consumer(sim, store))
        sim.run()
        assert c.result == [0, 1, 2, 3, 4]


class TestFailureBookkeeping:
    def test_multiple_failures_recorded_in_order(self, sim):
        def bad(sim, when, msg):
            yield sim.delay(when)
            raise RuntimeError(msg)

        sim.spawn(bad(sim, 2.0, "second"))
        sim.spawn(bad(sim, 1.0, "first"))
        sim.run()
        assert [str(e) for _p, e in sim.failures] == ["first", "second"]
