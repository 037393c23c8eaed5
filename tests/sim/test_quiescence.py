"""Stalled-process detection and the job's deadlock diagnostic, the
process lifecycle rule (only a kill stops a process), post-cancel Event
rules, and barrier fail-stop recovery."""

import gc
import weakref

import pytest

from repro.errors import UpcError
from repro.machine.presets import generic_smp
from repro.obs import instrument
from repro.obs.tracer import META_TRACK
from repro.sim import Event, ProcessFailure, SimBarrier, Simulator
from repro.sim.engine import SimulationError
from repro.upc import UpcProgram


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


def _program(threads):
    preset = generic_smp(nodes=4, sockets=2, cores_per_socket=2, smt_per_core=1)
    return UpcProgram(preset, threads=threads)


class TestStalledProcesses:
    """Quiescence/deadlock detection once the heap drains: the engine's
    ``stalled_processes`` and the job's deadlock error, the one stall
    diagnostic."""

    def test_finished_run_has_no_stalled(self, sim):
        def work():
            yield sim.delay(1e-6)
        sim.spawn(work())
        sim.run()
        assert sim.stalled_processes() == []
        sim.raise_failures()  # no-op

    def test_orphaned_waiter_is_stalled(self, sim):
        never = Event(sim)
        def waiter():
            yield never
        proc = sim.spawn(waiter(), name="orphan")
        sim.run()
        assert not proc.done
        assert sim.stalled_processes() == [proc]

    def test_raise_failures_tolerates_stall(self, sim):
        def waiter():
            yield Event(sim)
        proc = sim.spawn(waiter(), name="stuck-waiter")
        sim.run()
        sim.raise_failures()  # a stall is the job layer's to diagnose
        assert sim.pending == 0
        assert sim.stalled_processes() == [proc]

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

    def test_forgive_failure_clears_supervised_crash(self, sim):
        def boom():
            yield sim.delay(0.0)
            raise ValueError("supervised")
        proc = sim.spawn(boom())
        sim.run()
        assert sim.failures
        sim.forgive_failure(proc)
        assert not sim.failures
        sim.raise_failures()

    def test_job_error_names_stalled_and_marks_quiescence(self):
        def main(upc):
            if upc.MYTHREAD == 0:
                yield from upc.barrier()  # thread 1 never arrives
            else:
                yield from upc.compute(1e-9)

        with instrument("deadlock", trace=True) as sess:
            with pytest.raises(UpcError, match="deadlock") as info:
                _program(2).run(main)
        message = str(info.value)
        assert "threads never finished: ['upc0'] (1 total)" in message
        assert "stalled processes: ['upc0'] (1 total)" in message
        (tracer,) = sess.tracers
        marks = [i for i in tracer.instants if i.name == "quiescence"]
        assert len(marks) == 1
        assert marks[0].track == META_TRACK
        assert marks[0].args == {"stalled": 1, "names": ["upc0"]}

    def test_unhandled_failure_reported_before_stall(self):
        def main(upc):
            yield from upc.compute(0.0)
            if upc.MYTHREAD == 0:
                raise ValueError("bug")
            yield Event(upc.sim)  # waits forever

        with pytest.raises(ProcessFailure, match="bug"):
            _program(2).run(main)

    def test_error_message_caps_listed_names(self):
        def main(upc):
            yield Event(upc.sim)  # every thread waits forever

        with pytest.raises(UpcError) as info:
            _program(14).run(main)
        message = str(info.value)
        ranks = [f"upc{r}" for r in range(14)]
        assert f"threads never finished: {ranks[:8]} (14 total)" in message
        assert f"stalled processes: {ranks[:12]} (14 total)" in message


class TestKillNeverCancelsAProcess:
    """Only ``kill()`` stops a process; a joiner withdrawing does not."""

    @staticmethod
    def _child(sim):
        yield sim.delay(1.0)
        yield sim.delay(1.0)
        return "child"

    def test_killing_a_joiner_leaves_the_child_running(self, sim):
        child = sim.spawn(self._child(sim), name="child")

        def parent():
            yield child

        joiner = sim.spawn(parent(), name="parent")
        sim.schedule_at(0.5, joiner.kill)
        assert sim.run() == 2.0
        assert joiner.done and child.done
        assert child.result == "child"
        assert not child.cancelled
        assert sim.stalled_processes() == []

    def test_other_joiners_still_get_the_result(self, sim):
        child = sim.spawn(self._child(sim), name="child")
        got = []

        def parent():
            got.append((yield child))

        doomed = sim.spawn(parent())
        sim.spawn(parent())
        sim.schedule_at(0.5, doomed.kill)
        sim.run()
        assert got == ["child"]

    def test_anyof_losing_to_a_child_leaves_it_running(self, sim):
        child = sim.spawn(self._child(sim), name="child")
        got = []

        def racer():
            got.append((yield sim.any_of([sim.delay(0.5), child])))

        sim.spawn(racer())
        assert sim.run() == 2.0
        assert got == [(0, 0.5)]
        assert child.result == "child"

    def test_cancel_is_a_no_op(self, sim):
        child = sim.spawn(self._child(sim), name="child")
        child.cancel()
        sim.run()
        assert child.result == "child"
        assert not child.cancelled


class TestClockNeverRunsBackwards:
    def test_run_until_a_past_time_raises(self, sim):
        fired = []
        sim.schedule_at(10.0, fired.append, 10.0)
        sim.schedule_at(20.0, fired.append, 20.0)
        assert sim.run(until=10.0) == 10.0
        with pytest.raises(SimulationError, match="before now"):
            sim.run(until=5.0)
        assert sim.now == 10.0
        assert sim.pending == 1
        assert sim.run() == 20.0
        assert fired == [10.0, 20.0]

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
