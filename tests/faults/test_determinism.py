"""S4: fault-injected runs are seed-reproducible and seed-transparent.

Two guarantees:

* the same seed + the same FaultPlan produces a byte-identical
  :meth:`StatsCollector.snapshot` (and identical app results);
* ``faults=None``, ``faults=""`` and an empty plan are all exactly the
  seed behaviour — fault plumbing has zero effect until a plan is armed.
"""

from repro.faults import FaultPlan
from repro.upc import UpcProgram

from tests.upc.conftest import make_program

#: mixed crash + loss + degradation: exercises every injection site
SPEC = ("crash:node=1,at=6e-5;loss:prob=0.3,end=2e-4;"
        "degrade:node=0,start=0,end=1e-4,factor=0.5;seed=13")


def chatty_main(upc):
    """All-to-all puts + AM lock rounds: plenty of message fates drawn."""
    me = upc.MYTHREAD
    for rounds in range(3):
        for peer in range(upc.THREADS):
            if peer == me:
                continue
            try:
                yield from upc.memput(peer, 2048)
            except Exception:
                pass  # dead peers are expected under the crash plan
        yield from upc.compute(1e-6)
    return me


def run_once(faults):
    prog = make_program(threads=4, nodes=2, threads_per_node=2, faults=faults)
    res = prog.run(chatty_main)
    return prog, res


class TestSeedReproducibility:
    def test_snapshots_byte_identical(self):
        prog_a, res_a = run_once(SPEC)
        prog_b, res_b = run_once(SPEC)
        snap_a = prog_a.stats.snapshot()
        assert snap_a == prog_b.stats.snapshot()
        assert res_a.elapsed == res_b.elapsed
        assert res_a.returns == res_b.returns
        # the plan actually did something — this is not a vacuous check
        assert prog_a.stats.get_count("faults.crashes") == 1
        assert prog_a.stats.get_count("net.messages_lost") > 0

    def test_different_plan_seed_diverges(self):
        # aggregate counters can coincide by luck, so compare the full
        # observable outcome: snapshot plus the run's finish time
        _prog_a, res_a = run_once("loss:prob=0.3;seed=1")
        _prog_b, res_b = run_once("loss:prob=0.3;seed=2")
        assert res_a.elapsed != res_b.elapsed


class TestSeedTransparency:
    def test_empty_plan_matches_no_faults(self):
        baseline, res_base = run_once(None)
        for faults in ("", FaultPlan()):
            prog, res = run_once(faults)
            assert prog.faults is None  # empty plans are normalized away
            assert prog.stats.snapshot() == baseline.stats.snapshot()
            assert res.elapsed == res_base.elapsed
            assert res.returns == res_base.returns

    def test_armed_but_quiet_plan_still_diverges(self):
        # A plan with rules (prob=0 loss) engages the timeout/retransmit
        # machinery even though no fault ever fires; that path is allowed
        # to cost differently from seed — which is exactly why empty
        # plans must be normalized to None instead of armed.
        baseline, _ = run_once(None)
        prog, res = run_once("loss:prob=0.0")
        assert prog.faults is not None
        assert res is not None  # runs fine; timings may legitimately differ


class TestSnapshotFormat:
    def test_snapshot_is_sorted_text(self):
        prog, _ = run_once(SPEC)
        snap = prog.stats.snapshot()
        lines = snap.splitlines()
        counts = [ln for ln in lines if ln.startswith("count ")]
        assert counts and counts == sorted(counts)  # canonical key order
        assert any(ln.startswith("count faults.crashes ") for ln in lines)


class TestTraceDeterminism:
    """Traces under fault injection are part of the determinism
    contract: same seed and plan, byte-identical export."""

    def _trace_once(self, faults):
        from repro.obs.export import dump_chrome_trace
        from repro.obs.session import instrument

        with instrument("det", trace=True) as sess:
            prog = make_program(
                threads=4, nodes=2, threads_per_node=2, faults=faults
            )
            prog.run(chatty_main)
        return dump_chrome_trace(sess.tracers)

    def test_traced_faulty_runs_byte_identical(self):
        assert self._trace_once(SPEC) == self._trace_once(SPEC)

    def test_tracing_does_not_perturb_stats(self):
        # Attaching a tracer must not change what the simulation does.
        from repro.obs.session import instrument

        with instrument("det", trace=True):
            traced = make_program(
                threads=4, nodes=2, threads_per_node=2, faults=SPEC
            )
            traced.run(chatty_main)
        bare = make_program(
            threads=4, nodes=2, threads_per_node=2, faults=SPEC
        )
        bare.run(chatty_main)
        assert traced.stats.snapshot() == bare.stats.snapshot()
