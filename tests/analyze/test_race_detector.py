"""The dynamic race detector: seeded races flagged, synchronized code clean.

Every fixture is a tiny SPMD program with a deliberate (or deliberately
absent) bug; the assertions pin both directions — the checker *fires* on
the bug and *stays silent* once the code is synchronized, so the
happens-before edges (barrier, lock, notify/wait) are each proven to
exist.
"""

import numpy as np

from repro.obs.session import instrument
from repro.sim.engine import OFF
from tests.upc.conftest import make_program


def run_sanitized(main, threads=2, **kwargs):
    with instrument("test", sanitize=True) as session:
        prog = make_program(threads=threads, **kwargs)
        res = prog.run(main)
    return res, session


def race_findings(session):
    return [f for f in session.findings if f.checker == "race"]


class TestSeededRaces:
    def test_concurrent_writes_flagged(self):
        def main(upc):
            arr = yield from upc.all_alloc(8)
            yield from arr.write_elem(upc, 0, float(upc.MYTHREAD))
            yield from upc.barrier()

        res, session = run_sanitized(main)
        races = race_findings(session)
        assert len(races) == 1
        f = races[0]
        assert f.threads == (0, 1)
        assert "data race" in f.message
        assert "write_elem" in f.message
        assert res.findings == session.findings

    def test_write_read_race_flagged(self):
        def main(upc):
            arr = yield from upc.all_alloc(8)
            if upc.MYTHREAD == 0:
                yield from arr.write_elem(upc, 3, 1.0)
            else:
                yield from arr.read_elem(upc, 3)
            yield from upc.barrier()

        _res, session = run_sanitized(main)
        races = race_findings(session)
        assert len(races) == 1
        assert "read_elem" in races[0].message
        assert "write_elem" in races[0].message

    def test_block_op_overlap_flagged(self):
        def main(upc):
            arr = yield from upc.all_alloc(8, blocksize="block")
            if upc.MYTHREAD == 0:
                yield from arr.put_block(upc, 0, np.arange(8.0))
            else:
                yield from arr.write_elem(upc, 5, 0.0)
            yield from upc.barrier()

        _res, session = run_sanitized(main)
        races = race_findings(session)
        assert len(races) == 1
        assert "put_block" in races[0].message
        assert "write_elem" in races[0].message

    def test_post_notify_accesses_still_race(self):
        # upc_notify alone is not a fence: accesses between notify and
        # wait are concurrent with every other thread's.
        def main(upc):
            arr = yield from upc.all_alloc(4)
            yield from upc.barrier_notify()
            yield from arr.write_elem(upc, 0, 1.0)
            yield from upc.barrier_wait()

        _res, session = run_sanitized(main)
        assert len(race_findings(session)) == 1

    def test_read_between_notify_and_wait_races_after_a_peer_passed(self):
        # Thread 1 is already through its upc_wait when thread 2 reads;
        # thread 2 has not waited yet, so thread 0's pre-notify write is
        # still unordered with the read.  Passing a generation must not
        # forget that write.
        def main(upc):
            arr = yield from upc.all_alloc(4)
            if upc.MYTHREAD == 0:
                yield from arr.write_elem(upc, 0, 1.0)
            yield from upc.barrier_notify()
            if upc.MYTHREAD == 2:
                yield from upc.compute(2e-5)
                yield from arr.read_elem(upc, 0)
            yield from upc.barrier_wait()

        _res, session = run_sanitized(main, threads=3)
        races = race_findings(session)
        assert len(races) == 1
        assert races[0].threads == (0, 2)
        assert "read_elem" in races[0].message

    def test_write_after_notify_races_with_peer_after_wait(self):
        # upc_wait orders what the peers did before their upc_notify, not
        # after it: thread 0's write between its notify and wait is
        # concurrent with thread 1's read after its own wait.
        def main(upc):
            arr = yield from upc.all_alloc(4)
            yield from upc.barrier_notify()
            if upc.MYTHREAD == 0:
                yield from arr.write_elem(upc, 0, 1.0)
            yield from upc.barrier_wait()
            if upc.MYTHREAD == 1:
                yield from arr.read_elem(upc, 0)
            yield from upc.barrier()

        _res, session = run_sanitized(main)
        races = race_findings(session)
        assert len(races) == 1
        assert races[0].threads == (0, 1)

    def test_sweep_race_deduplicated(self):
        # 8 racing elements, one finding: dedup is per (array, thread
        # pair, op pair), not per element.
        def main(upc):
            arr = yield from upc.all_alloc(8)
            for i in range(8):
                yield from arr.write_elem(upc, i, 1.0)
            yield from upc.barrier()

        _res, session = run_sanitized(main)
        assert len(race_findings(session)) == 1


class TestSynchronizedClean:
    def test_barrier_separated_clean(self):
        def main(upc):
            arr = yield from upc.all_alloc(8)
            if upc.MYTHREAD == 0:
                yield from arr.write_elem(upc, 0, 1.0)
            yield from upc.barrier()
            if upc.MYTHREAD == 1:
                yield from arr.write_elem(upc, 0, 2.0)
            yield from upc.barrier()

        _res, session = run_sanitized(main)
        assert session.findings == []

    def test_lock_protected_clean(self):
        def main(upc):
            arr = yield from upc.all_alloc(4)
            lock = upc.lock("L")
            yield from lock.acquire(upc)
            yield from arr.write_elem(upc, 0, float(upc.MYTHREAD))
            yield from lock.release(upc)
            yield from upc.barrier()

        _res, session = run_sanitized(main)
        assert session.findings == []

    def test_notify_wait_ordered_clean(self):
        def main(upc):
            arr = yield from upc.all_alloc(4)
            if upc.MYTHREAD == 0:
                yield from arr.write_elem(upc, 0, 1.0)
            yield from upc.barrier_notify()
            yield from upc.barrier_wait()
            if upc.MYTHREAD == 1:
                yield from arr.write_elem(upc, 0, 2.0)
            yield from upc.barrier()

        _res, session = run_sanitized(main)
        assert session.findings == []

    def test_concurrent_reads_clean(self):
        def main(upc):
            arr = yield from upc.all_alloc(4)
            yield from arr.read_elem(upc, 0)
            yield from arr.read_elem(upc, 0)
            yield from upc.barrier()

        _res, session = run_sanitized(main, threads=4)
        assert session.findings == []

    def test_disjoint_ranges_clean(self):
        def main(upc):
            arr = yield from upc.all_alloc(8, blocksize="block")
            start = 4 * upc.MYTHREAD
            yield from arr.put_block(upc, start, np.zeros(4))
            yield from upc.barrier()

        _res, session = run_sanitized(main)
        assert session.findings == []


class TestArming:
    def test_no_session_means_null_sanitizer(self):
        def main(upc):
            arr = yield from upc.all_alloc(8)
            yield from arr.write_elem(upc, 0, 1.0)  # races, but unobserved
            yield from upc.barrier()

        prog = make_program(threads=2)
        assert prog.sim.sanitizer is OFF
        res = prog.run(main)
        assert res.findings == []
        # a session that does not ask for the sanitizer leaves it off too
        with instrument("test", trace=True):
            assert make_program(threads=2).sim.sanitizer is OFF

    def test_finding_renders_with_context(self):
        def main(upc):
            arr = yield from upc.all_alloc(8)
            yield from arr.write_elem(upc, 0, 1.0)
            yield from upc.barrier()

        _res, session = run_sanitized(main)
        f = race_findings(session)[0]
        text = str(f)
        assert text.startswith("[race]")
        assert "threads={0,1}" in text
        row = f.row()
        assert set(row) == {"checker", "threads", "time", "phase", "message"}
        assert row["threads"] == "0,1"
