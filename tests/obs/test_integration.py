"""End-to-end tracing of simulated programs and the leak-proofing
satellites (open phase timers must be loud, not silently lost)."""

import json

import pytest

from repro.errors import UpcError
from repro.obs import names
from repro.obs.critical_path import attribute_run, breakdown_rows
from repro.obs.export import dump_chrome_trace
from repro.obs.session import instrument
from repro.obs.validate import validate_document
from repro.sim import Simulator, StatsCollector
from repro.upc.runtime import UpcProgram


def _app(upc):
    yield from upc.compute(1e-6)
    yield from upc.memput((upc.MYTHREAD + 1) % upc.THREADS, 1 << 16)
    yield from upc.barrier()
    if upc.MYTHREAD == 0:
        lock = upc.lock("tally")
        yield from lock.acquire(upc)
        yield from upc.compute(5e-7)
        yield from lock.release(upc)
    yield from upc.barrier()


def _traced_run(threads=4):
    with instrument("test", trace=True) as sess:
        UpcProgram(threads=threads).run(_app)
    (tracer,) = sess.tracers
    return tracer


class TestTracedUpcRun:
    def test_thread_and_link_tracks_present(self):
        tracer = _traced_run()
        assert len(tracer.thread_tracks()) == 4
        assert tracer.link_tracks()  # NIC pipes declared by the fabric

    def test_span_categories_cover_the_stack(self):
        tracer = _traced_run()
        cats = {s.category for s in tracer.spans}
        assert names.CAT_NETWORK in cats
        assert names.CAT_BARRIER in cats
        assert names.CAT_LOCK in cats

    def test_barrier_spans_carry_releaser(self):
        tracer = _traced_run()
        barriers = [s for s in tracer.spans
                    if s.category == names.CAT_BARRIER and s.args]
        assert barriers
        assert all("releaser" in s.args for s in barriers)

    def test_all_spans_closed(self):
        tracer = _traced_run()
        assert all(s.t1 is not None for s in tracer.spans)

    def test_comm_matrix_populated(self):
        tracer = _traced_run()
        # Only inter-node puts traverse the fabric (same-node neighbours
        # use the shared-memory bypass), so 2 of the 4 ring puts appear.
        total = sum(r["bytes"] for r in tracer.comm_matrix())
        assert total >= 2 * (1 << 16)
        assert tracer.comm_matrix()

    def test_same_seed_traces_byte_identical(self):
        a = dump_chrome_trace([_traced_run()])
        b = dump_chrome_trace([_traced_run()])
        assert a == b
        assert validate_document(json.loads(a)) == []

    def test_breakdown_sums_within_one_percent(self):
        tracer = _traced_run()
        totals = attribute_run(tracer)
        assert sum(totals.values()) == pytest.approx(
            tracer.end_time, rel=0.01
        )
        rows = breakdown_rows([tracer])
        total_row = [r for r in rows if r["category"] == "total"][0]
        parts = sum(r["seconds"] for r in rows if r["category"] != "total")
        assert parts == pytest.approx(total_row["seconds"], rel=0.01)

    def test_untraced_run_attaches_null_tracer(self):
        prog = UpcProgram(threads=2)
        assert prog.sim.tracer.enabled is False
        prog.run(_app)  # still runs clean


class TestOpenTimerLeaks:
    """Satellites: dead processes must not silently lose phase time."""

    def _sim_stats(self):
        sim = Simulator()
        return sim, StatsCollector(sim)

    def test_open_timers_listed(self):
        sim, st = self._sim_stats()

        def proc():
            st.timer_enter("fft", key=0)
            yield sim.delay(1.0)
            st.timer_exit("fft", key=0)

        sim.spawn(proc())
        assert st.open_timers() == []
        sim.run(until=0.5)
        assert st.open_timers() == [("fft", 0)]
        sim.run()
        assert st.open_timers() == []

    def test_snapshot_raises_on_open_timer(self):
        sim, st = self._sim_stats()
        st.timer_enter("fft", key=1)
        with pytest.raises(ValueError, match="in-flight phase timers"):
            st.snapshot()
        st.timer_exit("fft", key=1)
        assert st.snapshot()  # clean afterwards

    def test_merge_rejects_open_timers(self):
        sim, a = self._sim_stats()
        b = StatsCollector(sim)
        b.timer_enter("fft", key=2)
        with pytest.raises(ValueError, match=r"fft.*2"):
            a.merge(b)
        b.timer_exit("fft", key=2)
        a.merge(b)  # clean afterwards

    def test_killed_phase_fails_loud_at_end_of_run(self):
        # A thread dies mid-phase: the run must raise instead of
        # silently dropping the phase's elapsed time.
        def app(upc):
            if upc.MYTHREAD == 0:
                upc.stats.timer_enter("doomed", key=0)
                yield from upc.compute(1.0)  # killed before this ends
                upc.stats.timer_exit("doomed", key=0)
            else:
                yield from upc.compute(1e-6)

        prog = UpcProgram(threads=2)
        prog.sim.schedule_at(
            5e-7, lambda: prog._thread_procs[0].kill()
        )
        with pytest.raises(UpcError, match="phase timers still open"):
            prog.run(app)
