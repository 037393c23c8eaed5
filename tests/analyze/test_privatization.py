"""The privatization-legality checker and stale-pointer fail-stop.

Covers the three illegal dereference shapes — pointer arithmetic that
crossed an affinity boundary, a target outside the holder's castable
supernode, and an owner killed by a fault plan — plus the clean in-block
case that must stay silent.
"""

import pytest

from repro.obs.session import instrument
from repro.upc.pointers import LocalPointer, SharedPointer
from tests.upc.conftest import make_program


def priv_findings(session):
    return [f for f in session.findings if f.checker == "privatization"]


class TestAffinityCrossing:
    def test_arithmetic_across_blocks_flagged(self):
        # Cast into thread 0's block, walk into thread 1's: still a legal
        # load (same supernode) but no longer the memory the cast blessed.
        def main(upc):
            arr = yield from upc.all_alloc(8, blocksize="block")
            if upc.MYTHREAD == 0:
                lp = SharedPointer(arr, 0).privatize(upc)
                yield from (lp + 4).get(upc)

        with instrument("test", sanitize=True) as session:
            prog = make_program(threads=2, nodes=1, threads_per_node=2)
            prog.run(main)
        findings = priv_findings(session)
        assert len(findings) == 1
        assert "affinity boundary" in findings[0].message
        assert findings[0].details["base_owner"] == 0
        assert findings[0].details["owner"] == 1

    def test_in_block_arithmetic_clean(self):
        def main(upc):
            arr = yield from upc.all_alloc(8, blocksize="block")
            lp = SharedPointer(arr, 4 * upc.MYTHREAD).privatize(upc)
            for i in range(4):
                yield from (lp + i).put(upc, float(i))
                yield from (lp + i).get(upc)
            yield from upc.barrier()

        with instrument("test", sanitize=True) as session:
            prog = make_program(threads=2, nodes=1, threads_per_node=2)
            prog.run(main)
        assert session.findings == []


class TestSupernodeEscape:
    def test_target_outside_supernode_flagged(self):
        # A hand-built LocalPointer into a remote node's memory models a
        # pointer that survived a topology it was never legal for (e.g.
        # smuggled through shared state).  privatize() itself raises on
        # this; the checker catches the ones that dodged it.
        def main(upc):
            arr = yield from upc.all_alloc(4, blocksize="block")
            if upc.MYTHREAD == 0:
                lp = LocalPointer(arr, 3, holder=0)  # owner: thread 1, other node
                yield from lp.get(upc)

        with instrument("test", sanitize=True) as session:
            prog = make_program(threads=2, nodes=2, threads_per_node=1)
            prog.run(main)
        findings = priv_findings(session)
        assert len(findings) == 1
        assert "castable supernode" in findings[0].message


class TestStalePointers:
    CRASH = "crash:node=1,at=5e-5"

    @staticmethod
    def _main(upc):
        arr = yield from upc.all_alloc(8, blocksize="block")
        yield from upc.compute(1e-4)  # let the crash at 5e-5 land
        if upc.MYTHREAD == 0:
            # index 4 is owned by thread 2, which died with node 1.  The
            # pointer is built directly: a legal pre-crash cast would have
            # required sharing (and losing) the node with its target.
            lp = LocalPointer(arr, 4, holder=0)
            yield from lp.get(upc)

    def test_deref_after_owner_crash_raises(self):
        prog = make_program(
            threads=4, nodes=2, threads_per_node=2, faults=self.CRASH
        )
        with pytest.raises(Exception, match="stale privatized pointer"):
            prog.run(self._main)

    def test_sanitizer_reports_stale_owner(self):
        with instrument("test", sanitize=True) as session:
            prog = make_program(
                threads=4, nodes=2, threads_per_node=2, faults=self.CRASH
            )
            with pytest.raises(Exception, match="stale privatized pointer"):
                prog.run(self._main)
        stale = [f for f in priv_findings(session)
                 if "killed by a fault plan" in f.message]
        assert len(stale) == 1
        assert stale[0].details["owner"] == 2
