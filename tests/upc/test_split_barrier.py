"""The split-phase barrier: ``upc_notify`` / ``upc_wait``.

Both run on the world team's :class:`~repro.sim.SimBarrier`, the one
``upc_barrier`` uses (``notify`` returns the generation joined, ``wait``
blocks on it); the UPC program keeps each thread's pending generation
and rejects notify/wait out of order.
"""

import pytest

from repro.errors import UpcError
from repro.obs import names
from repro.obs.session import instrument
from repro.sim import SimBarrier, Simulator
from tests.upc.conftest import make_program


@pytest.fixture
def sim():
    return Simulator()


def _run_misuse(main):
    with pytest.raises(Exception) as info:
        make_program(threads=2).run(main)
    return info.value


class TestSplitPhaseBarrier:
    def test_wait_without_notify_rejected(self):
        def main(upc):
            yield from upc.barrier_wait()

        err = _run_misuse(main)
        assert isinstance(err.__cause__, UpcError)
        assert "upc_wait without upc_notify" in str(err.__cause__)

    def test_double_notify_rejected(self):
        def main(upc):
            yield from upc.barrier_notify()
            yield from upc.barrier_notify()

        err = _run_misuse(main)
        assert isinstance(err.__cause__, UpcError)
        assert "upc_notify before matching upc_wait" in str(err.__cause__)

    def test_barrier_between_notify_and_wait_rejected(self):
        # One world barrier: a upc_barrier here would arrive a second
        # time in the pending generation and release it early.
        def main(upc):
            yield from upc.barrier_notify()
            yield from upc.barrier()

        with instrument("test", sanitize=True) as session:
            err = _run_misuse(main)
        assert isinstance(err.__cause__, UpcError)
        what = "upc_barrier between upc_notify and upc_wait"
        assert what in str(err.__cause__)
        assert any(what in f.message for f in session.findings)

    def test_release_on_last_notify(self, sim):
        bar = SimBarrier(sim, 2)
        ev = bar.wait(bar.notify(0))
        assert not ev.done
        bar.notify(1)
        assert ev.done

    def test_late_waiter_passes_through(self, sim):
        bar = SimBarrier(sim, 2)
        g0 = bar.notify(0)
        g1 = bar.notify(1)
        assert bar.wait(g0).done
        assert bar.wait(g1).done

    def test_phases_are_independent(self, sim):
        bar = SimBarrier(sim, 2)
        # phase 0
        g0, g1 = bar.notify(0), bar.notify(1)
        bar.wait(g0)
        bar.wait(g1)
        # phase 1: thread 0 races ahead
        ev = bar.wait(bar.notify(0))
        assert not ev.done
        bar.notify(1)
        assert ev.done and ev.value == 1


class TestUpcNotifyWait:
    def test_compute_hides_barrier_latency(self):
        """Work placed between notify and wait overlaps the stragglers."""
        prog = make_program(threads=4)

        def main(upc):
            # thread 3 arrives very late
            if upc.MYTHREAD == 3:
                yield from upc.compute(10e-3)
            yield from upc.barrier_notify()
            yield from upc.compute(10e-3)  # everyone's useful work
            yield from upc.barrier_wait()
            return upc.wtime()

        res = prog.run(main)
        # the early threads' 10ms compute ran *during* thread 3's delay,
        # so the whole job ends ~20ms, not ~30ms
        assert max(res.returns) < 25e-3

    def test_blocking_barrier_cannot_hide_it(self):
        prog = make_program(threads=4)

        def main(upc):
            if upc.MYTHREAD == 3:
                yield from upc.compute(10e-3)
            yield from upc.barrier()
            yield from upc.compute(10e-3)
            return upc.wtime()

        res = prog.run(main)
        assert max(res.returns) >= 20e-3 - 1e-6

    def test_repeated_split_barriers(self):
        prog = make_program(threads=3)

        def main(upc):
            for _ in range(5):
                yield from upc.barrier_notify()
                yield from upc.compute(1e-4)
                yield from upc.barrier_wait()
            return upc.wtime()

        res = prog.run(main)
        assert len(set(res.returns)) <= 2  # all aligned within barrier costs

    def test_mismatched_use_fails_program(self):
        prog = make_program(threads=2)

        def main(upc):
            yield from upc.barrier_wait()  # no notify first

        with pytest.raises(Exception, match="without"):
            prog.run(main)


class TestMixedBarrierForms:
    """``upc_barrier`` is ``upc_notify`` + ``upc_wait``: threads may mix."""

    @pytest.mark.parametrize("threads", [2, 4])
    def test_mixed_forms_meet(self, threads):
        def main(upc):
            for phase in range(3):
                if (upc.MYTHREAD + phase) % 2:
                    yield from upc.barrier_notify()
                    yield from upc.compute(1e-5)
                    yield from upc.barrier_wait()
                else:
                    yield from upc.barrier()
            return upc.MYTHREAD

        with instrument("test", sanitize=True) as session:
            res = make_program(threads=threads).run(main)
        assert res.returns == list(range(threads))
        assert session.findings == []

    def test_mixed_forms_order_accesses(self):
        def main(upc):
            arr = yield from upc.all_alloc(4)
            if upc.MYTHREAD == 0:
                yield from arr.write_elem(upc, 0, 1.0)
                yield from upc.barrier()
            else:
                yield from upc.barrier_notify()
                yield from upc.barrier_wait()
                yield from arr.read_elem(upc, 0)
            yield from upc.barrier()

        with instrument("test", sanitize=True) as session:
            make_program(threads=2).run(main)
        assert session.findings == []


class TestSplitPhaseFailStop:
    """drop_party: crashed threads must not strand a split-phase pair."""

    def test_dead_thread_that_never_notified(self, sim):
        bar = SimBarrier(sim, 3)
        g0 = bar.notify(0)
        g1 = bar.notify(1)
        assert not bar.wait(g0).done
        assert bar.drop_party(2)
        assert bar.wait(g1).done  # phase released by the drop

    def test_dead_thread_that_notified_current_phase(self, sim):
        bar = SimBarrier(sim, 3)
        bar.notify(0)  # then dies while others compute
        bar.drop_party(0)
        bar.notify(1)
        g2 = bar.notify(2)
        assert bar.wait(g2).done  # 0's withdrawn notify was not counted

    def test_dead_thread_blocked_in_wait_is_withdrawn(self, sim):
        bar = SimBarrier(sim, 3)
        waiting = bar.wait(bar.notify(0))  # 0 dies blocked in upc_wait
        bar.drop_party(0)
        bar.notify(1)
        assert not waiting.done  # 2 has not notified yet
        bar.notify(2)
        assert waiting.done

    def test_dead_thread_notify_from_released_phase_not_withdrawn(self, sim):
        bar = SimBarrier(sim, 2)
        g0 = bar.notify(0)
        bar.notify(1)  # phase 0 releases here; both are "expecting wait"
        bar.drop_party(1)
        assert bar.wait(g0).done
        # next phase is thread 0 alone
        assert bar.wait(bar.notify(0)).done

    def test_mark_dead_idempotent(self, sim):
        bar = SimBarrier(sim, 3)
        assert bar.drop_party(2)
        assert not bar.drop_party(2)

    def test_program_crash_mid_barrier_releases_survivors(self):
        # End-to-end: half the job dies while everyone is blocked in
        # upc_barrier; the crash handler drops the dead seats and the
        # survivors cross instead of deadlocking.
        prog = make_program(threads=4, nodes=2, threads_per_node=2,
                            faults="crash:node=1,at=5e-5")

        def main(upc):
            # survivors are still computing when the crash fires, so the
            # dead threads are blocked *inside* the barrier at that point
            yield from upc.compute(1e-4 if upc.MYTHREAD < 2 else 1e-6)
            yield from upc.barrier()  # threads 2,3 die waiting here
            return upc.MYTHREAD

        res = prog.run(main)
        assert res.returns[0] == 0 and res.returns[1] == 1
        assert res.returns[2] is None and res.returns[3] is None

    def test_crash_between_notify_and_wait_releases_barrier(self):
        # Thread 2 dies between its upc_notify and upc_wait, thread 3
        # before it notifies; survivors blocked in upc_barrier cross once
        # the crash drops the two seats, one per dead thread.
        prog = make_program(threads=4, nodes=2, threads_per_node=2,
                            faults="crash:node=1,at=5e-5")

        def main(upc):
            if upc.MYTHREAD == 2:
                yield from upc.barrier_notify()
            if upc.MYTHREAD >= 2:
                yield from upc.compute(1e-4)  # killed here
                yield from upc.barrier_wait()
            else:
                yield from upc.barrier()  # blocked when the crash fires
                yield from upc.barrier()
            return upc.MYTHREAD

        res = prog.run(main)
        assert res.returns == [0, 1, None, None]
        assert res.stats.get_count(names.FAULTS_BARRIER_SEATS_DROPPED) == 2
