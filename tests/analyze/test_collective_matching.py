"""The collective/barrier-matching checker.

The matching checks mostly run in ``finalize()`` (after the simulation
drains), so the fixtures pair each finding assertion with the runtime
error the bug also produces — the finding is what *explains* the
deadlock/raise to the user.
"""

import pytest

from repro.errors import UpcError
from repro.obs.session import instrument
from tests.upc.conftest import make_program


def coll_findings(session):
    return [f for f in session.findings if f.checker == "collective"]


class TestBarrierMatching:
    def test_skipped_barrier_deadlock_explained(self):
        def main(upc):
            if upc.MYTHREAD == 0:
                yield from upc.barrier()  # thread 1 never shows up
            else:
                yield from upc.compute(0.0)

        with instrument("test", sanitize=True) as session:
            prog = make_program(threads=2)
            with pytest.raises(UpcError, match="deadlock"):
                prog.run(main)
        findings = coll_findings(session)
        assert len(findings) == 1
        assert "never completed" in findings[0].message
        assert "[0] arrived" in findings[0].message
        assert "[1] never did" in findings[0].message

    def test_pass_count_mismatch_flagged(self):
        # Count mismatches without a stuck generation can't happen
        # through the real barrier (the short thread would block), so
        # drive the checker directly at the unit level.
        with instrument("test", sanitize=True) as session:
            prog = make_program(threads=2)
            san = prog.sim.sanitizer
            key = ("team", "world")
            for _ in range(2):
                san.barrier_arrive(key, 0, (0, 1))
                san.barrier_pass(key, 0)
            san.barrier_arrive(key, 1, (0, 1))
            san.barrier_pass(key, 1)
            san.finalize()
        findings = coll_findings(session)
        assert len(findings) == 1
        assert "mismatched" in findings[0].message
        assert "{0: 2, 1: 1}" in findings[0].message

    def test_matched_barriers_clean(self):
        def main(upc):
            for _ in range(3):
                yield from upc.barrier()

        with instrument("test", sanitize=True) as session:
            prog = make_program(threads=4)
            prog.run(main)
        assert session.findings == []


class TestSplitPhaseMisuse:
    def test_notify_without_wait_flagged(self):
        def main(upc):
            yield from upc.barrier_notify()
            # every thread notifies, so nothing deadlocks — the phase is
            # simply never closed with upc_wait

        with instrument("test", sanitize=True) as session:
            prog = make_program(threads=2)
            prog.run(main)
        findings = coll_findings(session)
        assert len(findings) == 2  # one per thread
        assert all("without a matching upc_wait" in f.message for f in findings)

    def test_unfinished_wait_distinguished(self):
        def main(upc):
            if upc.MYTHREAD == 0:
                yield from upc.barrier_notify()
                yield from upc.barrier_wait()  # blocks: thread 1 is silent
            else:
                yield from upc.compute(0.0)

        with instrument("test", sanitize=True) as session:
            prog = make_program(threads=2)
            with pytest.raises(UpcError, match="deadlock"):
                prog.run(main)
        findings = coll_findings(session)
        assert len(findings) == 1
        assert "never completed" in findings[0].message
        assert "never notified" in findings[0].message

    def test_wait_without_notify_raises_and_reports(self):
        def main(upc):
            yield from upc.barrier_wait()  # no notify first: UPC error

        with instrument("test", sanitize=True) as session:
            prog = make_program(threads=2)
            with pytest.raises(Exception, match="upc_wait without upc_notify"):
                prog.run(main)
        findings = coll_findings(session)
        assert findings
        assert "upc_wait without upc_notify" in findings[0].message


class TestCollectiveGate:
    def test_double_submit_raises_and_reports(self):
        def main(upc):
            if upc.MYTHREAD == 0:
                gate = upc.program.gate
                gate.submit("x", 0, None, lambda p: None)
                gate.submit("x", 0, None, lambda p: None)
            yield from upc.compute(0.0)

        with instrument("test", sanitize=True) as session:
            prog = make_program(threads=2)
            with pytest.raises(Exception, match="submitted twice"):
                prog.run(main)
        findings = coll_findings(session)
        assert any("submitted twice to collective 'x'" in f.message
                   for f in findings)

    def test_collectives_and_allocs_clean(self):
        def main(upc):
            arr = yield from upc.all_alloc(8)
            total = yield from upc.collective(
                "sum", upc.MYTHREAD, lambda p: sum(p.values())
            )
            yield from upc.barrier()
            return (arr.nelems, total)

        with instrument("test", sanitize=True) as session:
            prog = make_program(threads=4)
            res = prog.run(main)
        assert res.returns == [(8, 6)] * 4
        assert session.findings == []
