"""Satellite tests: stalled-process detection, post-cancel Event rules,
and barrier fail-stop recovery."""

import gc
import weakref

import pytest

from repro.sim import Event, SimBarrier, Simulator, StalledProcessError
from repro.sim.engine import SimulationError


@pytest.fixture
def sim():
    return Simulator()


class TestEventCompletionAfterCancel:
    """Completing a cancelled event is a documented no-op; completing a
    completed event is an error (S2)."""

    def test_succeed_after_cancel_is_noop(self, sim):
        ev = Event(sim)
        woken = []
        ev.add_callback(woken.append)
        ev.cancel()
        assert ev.succeed(42) is ev  # chains, but wakes nobody
        assert woken == []
        assert not ev.done
        assert ev.cancelled
        assert ev.value is None  # the completion value is discarded

    def test_fail_after_cancel_is_noop(self, sim):
        ev = Event(sim)
        ev.cancel()
        assert ev.fail(RuntimeError("late")) is ev
        assert not ev.done
        assert ev.exc is None

    def test_succeed_after_succeed_raises(self, sim):
        ev = Event(sim).succeed(1)
        with pytest.raises(SimulationError, match="already completed"):
            ev.succeed(2)
        with pytest.raises(SimulationError, match="already completed"):
            ev.fail(RuntimeError())

    def test_cancel_after_complete_is_noop(self, sim):
        ev = Event(sim).succeed(1)
        ev.cancel()
        assert ev.done and not ev.cancelled

    def test_lost_anyof_racer_may_fire_unconditionally(self, sim):
        # the pattern the no-op exists for: a completer that lost an
        # AnyOf race fires without tracking whether anyone still waits
        ev = Event(sim)
        winner = sim.delay(1e-6)
        got = []
        def waiter():
            got.append((yield sim.any_of([winner, ev])))
        sim.spawn(waiter())
        sim.schedule_at(2e-6, lambda: ev.succeed("late"))
        sim.run()
        assert got and got[0][0] == 0  # the delay won; the late succeed is moot
        assert ev.cancelled and not ev.done


class TestStalledProcesses:
    """Quiescence/deadlock detection once the heap drains (S1)."""

    def test_finished_run_has_no_stalled(self, sim):
        def work():
            yield sim.delay(1e-6)
        sim.spawn(work())
        sim.run()
        assert sim.stalled_processes() == []
        sim.raise_failures(check_stalled=True)  # no-op

    def test_orphaned_waiter_is_stalled(self, sim):
        never = Event(sim)
        def waiter():
            yield never
        proc = sim.spawn(waiter(), name="orphan")
        sim.run()
        assert not proc.done
        assert sim.stalled_processes() == [proc]

    def test_raise_failures_reports_stall_when_asked(self, sim):
        def waiter():
            yield Event(sim)
        proc = sim.spawn(waiter(), name="stuck-waiter")
        sim.run()
        sim.raise_failures()  # default: stalls tolerated
        with pytest.raises(StalledProcessError, match="stuck-waiter") as ei:
            sim.raise_failures(check_stalled=True)
        assert ei.value.processes == [proc]

    def test_killed_process_is_not_stalled(self, sim):
        def waiter():
            yield Event(sim)
        proc = sim.spawn(waiter())
        sim.run()
        proc.kill()
        assert sim.stalled_processes() == []

    def test_stalled_keeps_spawn_order(self, sim):
        never = Event(sim)

        def waiter():
            yield never

        def done():
            yield sim.delay(1e-6)

        a = sim.spawn(waiter(), name="a")
        sim.spawn(done())
        b = sim.spawn(waiter(), name="b")
        sim.run()
        assert sim.stalled_processes() == [a, b]

    def test_finished_process_is_not_retained(self, sim):
        """Nothing but its joiners keeps a finished process (and what it
        returned) alive, so long runs do not accumulate them."""
        class Result:
            pass

        refs = []

        def work():
            yield sim.delay(1e-6)
            result = Result()
            refs.append(weakref.ref(result))
            return result

        sim.spawn(work())
        gc.disable()
        try:
            sim.run()
            assert refs and refs[0]() is None
        finally:
            gc.enable()

    def test_unhandled_failure_reported_before_stall(self, sim):
        def boom():
            yield sim.delay(0.0)
            raise ValueError("bug")
        def waiter():
            yield Event(sim)
        sim.spawn(boom())
        sim.spawn(waiter())
        sim.run()
        with pytest.raises(Exception, match="bug"):
            sim.raise_failures(check_stalled=True)

    def test_forgive_failure_clears_supervised_crash(self, sim):
        def boom():
            yield sim.delay(0.0)
            raise ValueError("supervised")
        proc = sim.spawn(boom())
        sim.run()
        assert sim.failures
        sim.forgive_failure(proc)
        assert not sim.failures
        sim.raise_failures(check_stalled=True)

    def test_error_message_caps_listed_names(self, sim):
        procs = []
        for i in range(12):
            def waiter():
                yield Event(sim)
            procs.append(sim.spawn(waiter(), name=f"w{i}"))
        sim.run()
        err = StalledProcessError(sim.stalled_processes())
        assert "12 stalled" in str(err)
        assert "+4 more" in str(err)


class TestBarrierFailStop:
    """drop_party: a crashed participant must not strand barrier waiters."""

    def test_drop_missing_party_releases_waiters(self, sim):
        bar = SimBarrier(sim, parties=3)
        crossed = []
        def member(i):
            yield bar.wait(bar.notify(i))
            crossed.append(i)
        sim.spawn(member(0))
        sim.spawn(member(1))  # party 2 never arrives: it is dead
        sim.schedule_at(1.0, bar.drop_party, 2)
        sim.run()
        assert sorted(crossed) == [0, 1]
        assert bar.parties == 2

    def test_drop_arrived_party_withdraws_its_arrival(self, sim):
        bar = SimBarrier(sim, parties=3)
        crossed = []
        def member(i):
            yield bar.wait(bar.notify(i))
            crossed.append(i)
        dead = sim.spawn(member(0))  # arrives, then dies while blocked
        def crash():
            dead.kill()  # fail-stop order: kill the process...
            bar.drop_party(0)  # ...then withdraw its barrier seat
        sim.schedule_at(1.0, crash)
        sim.run()
        assert crossed == []  # 0's arrival was withdrawn with it
        # the two survivors now complete a generation on their own
        sim.spawn(member(1))
        sim.spawn(member(2))
        sim.run()
        assert sorted(crossed) == [1, 2]

    def test_next_generation_uses_reduced_parties(self, sim):
        bar = SimBarrier(sim, parties=3)
        bar.drop_party(2)
        crossed = []
        def member(i):
            for _ in range(2):  # two generations back to back
                yield bar.wait(bar.notify(i))
            crossed.append(i)
        sim.spawn(member(0))
        sim.spawn(member(1))
        sim.run()
        assert sorted(crossed) == [0, 1]
        assert bar.generation == 2

    def test_cannot_drop_last_party(self, sim):
        bar = SimBarrier(sim, parties=1)
        with pytest.raises(SimulationError, match="last party"):
            bar.drop_party(0)

    def test_killing_one_waiter_does_not_strand_the_others(self, sim):
        # regression: waiters used to share the release event, so one
        # kill cancelled the generation for everyone still blocked
        bar = SimBarrier(sim, parties=3)
        crossed = []
        def member(i):
            yield bar.wait(bar.notify(i))
            crossed.append(i)
        victim = sim.spawn(member(0))
        sim.spawn(member(1))
        def crash():
            victim.kill()
            bar.drop_party(0)
        sim.schedule_at(1.0, crash)
        def late_member():
            yield sim.delay(2.0)
            yield bar.wait(bar.notify(2))
            crossed.append(2)
        sim.spawn(late_member())
        sim.run()
        assert sorted(crossed) == [1, 2]
