"""No-false-positive + no-perturbation contract on the real applications.

Two guarantees the sanitizer ships with:

* the repo's own applications (UTS, GUPS, FT) run sanitized with zero
  findings — the checkers understand every synchronization idiom the
  stack actually uses;
* arming the sanitizer does not change what the simulation does: stats
  snapshots, timings and results are byte-identical with and without it.
"""

from repro.apps.ft import run_ft
from repro.apps.randomaccess import GupsConfig, run_gups
from repro.apps.uts import run_uts, small_tree
from repro.obs.session import instrument
from tests.upc.conftest import make_program


class TestAppsSanitizeClean:
    def test_uts_clean(self):
        with instrument("uts", sanitize=True) as session:
            r = run_uts("local+diffusion", tree=small_tree("tiny"),
                        threads=4, threads_per_node=2)
        assert r["tree_nodes"] > 0
        assert session.sanitizers  # the run really was observed
        assert session.findings == []

    def test_gups_clean(self):
        cfg = GupsConfig(variant="bucketed", table_words=1 << 12,
                         updates_per_thread=256)
        with instrument("gups", sanitize=True) as session:
            r = run_gups(config=cfg, threads=4, threads_per_node=2)
        assert r["verified"]
        assert session.sanitizers
        assert session.findings == []

    def test_ft_clean(self):
        with instrument("ft", sanitize=True) as session:
            r = run_ft("T", model="upc", variant="split",
                       threads=4, threads_per_node=2, iterations=2)
        assert r["verified"]
        assert session.sanitizers
        assert session.findings == []


class TestNoPerturbation:
    @staticmethod
    def _main(upc):
        arr = yield from upc.all_alloc(32, blocksize="block")
        lock = upc.lock("sum")
        yield from lock.acquire(upc)
        yield from arr.write_elem(upc, 0, float(upc.MYTHREAD))
        yield from lock.release(upc)
        yield from upc.barrier()
        data = yield from arr.get_block(upc, 0, 32)
        yield from upc.barrier_notify()
        yield from upc.barrier_wait()
        return float(data.sum())

    def _run(self, sanitized):
        if sanitized:
            with instrument("identity", sanitize=True):
                prog = make_program(threads=4)
                res = prog.run(self._main)
        else:
            prog = make_program(threads=4)
            res = prog.run(self._main)
        return prog, res

    def test_sanitized_run_is_byte_identical(self):
        bare_prog, bare = self._run(sanitized=False)
        san_prog, san = self._run(sanitized=True)
        assert san.findings == []
        assert san.elapsed == bare.elapsed
        assert san.returns == bare.returns
        # sanitizer counters are zero on a clean run, so even the stats
        # snapshots match byte for byte
        assert san_prog.stats.snapshot() == bare_prog.stats.snapshot()
