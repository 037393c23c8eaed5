"""Unit tests for Condition and SimBarrier."""

import pytest

from repro.sim import Condition, SimBarrier, Simulator
from repro.sim.engine import SimulationError


@pytest.fixture
def sim():
    return Simulator()


class TestCondition:
    def test_notify_wakes_all(self, sim):
        cond = Condition(sim)
        woken = []

        def waiter(sim, cond, name):
            val = yield cond.wait()
            woken.append((name, val, sim.now))

        sim.spawn(waiter(sim, cond, "a"))
        sim.spawn(waiter(sim, cond, "b"))
        sim.schedule_at(2.0, cond.notify_all, "ping")
        sim.run()
        assert sorted(woken) == [("a", "ping", 2.0), ("b", "ping", 2.0)]

    def test_notify_returns_count(self, sim):
        cond = Condition(sim)
        cond.wait()
        cond.wait()
        sim.run()
        assert cond.notify_all() == 2
        assert cond.notify_all() == 0

    def test_wait_after_notify_needs_new_notify(self, sim):
        cond = Condition(sim)
        cond.notify_all()
        ev = cond.wait()
        assert not ev.done
        cond.notify_all()
        assert ev.done

    def test_cancelled_waiter_not_counted(self, sim):
        cond = Condition(sim)
        ev = cond.wait()
        ev.cancel()
        assert cond.notify_all() == 0


class TestSimBarrier:
    def test_all_released_together(self, sim):
        bar = SimBarrier(sim, parties=3)
        times = []

        def worker(sim, bar, arrive_at):
            yield sim.delay(arrive_at)
            yield bar.wait(bar.notify())
            times.append(sim.now)

        for t in (1.0, 2.0, 5.0):
            sim.spawn(worker(sim, bar, t))
        sim.run()
        assert times == [5.0, 5.0, 5.0]
        assert bar.generation == 1

    def test_reusable_generations(self, sim):
        bar = SimBarrier(sim, parties=2)
        log = []

        def worker(sim, bar, name, pace):
            for i in range(3):
                yield sim.delay(pace)
                gen = yield bar.wait(bar.notify())
                log.append((name, i, gen))

        sim.spawn(worker(sim, bar, "fast", 1.0))
        sim.spawn(worker(sim, bar, "slow", 2.0))
        sim.run()
        gens = [g for (_, _, g) in log]
        assert gens == [0, 0, 1, 1, 2, 2]

    def test_single_party_never_blocks(self, sim):
        bar = SimBarrier(sim, parties=1)

        def worker(sim, bar):
            yield bar.wait(bar.notify())
            return sim.now

        p = sim.spawn(worker(sim, bar))
        sim.run()
        assert p.result == 0.0

    def test_bad_parties_rejected(self, sim):
        with pytest.raises(ValueError):
            SimBarrier(sim, parties=0)

    def test_over_arrival_detected(self, sim):
        bar = SimBarrier(sim, parties=2)
        bar.notify()
        bar._arrived = 2  # simulate a missed release bug
        with pytest.raises(SimulationError, match="arrivals"):
            bar.notify()

    def test_release_wakes_waiters_before_the_last_arriver(self, sim):
        bar = SimBarrier(sim, parties=3)
        order = []

        def member(i, delay):
            yield sim.delay(delay)
            yield bar.wait(bar.notify(i))
            order.append(i)

        for i, delay in ((0, 1.0), (1, 2.0), (2, 3.0)):
            sim.spawn(member(i, delay))
        sim.run()
        assert order == [0, 1, 2]
        assert bar.last_arriver == 2
