"""Engine self-measurement: every run counts what the engine did.

The simulator counts events popped, context switches and costed delay
cycles on every run, traced or not (``Simulator.engine_counts``, carried
by every ``ProgramResult`` as ``engine``).  The heap peak is tracked only
while a tracer is armed, since it would cost a check on every push.
Finalize copies the counts onto the tracer (surviving simulator
detachment) and publishes them as counter samples on the meta track.
"""

import pytest

from repro.apps.ft import run_ft
from repro.apps.uts import run_uts, small_tree
from repro.gasnet.job import SpmdJob
from repro.machine.presets import pyramid
from repro.mpi import MpiProgram, collectives
from repro.obs import names
from repro.obs.session import instrument
from repro.obs.tracer import META_TRACK
from repro.sim import Simulator
from repro.upc.runtime import UpcProgram


def _app(upc):
    yield from upc.compute(1e-6)
    yield from upc.barrier()


def _traced_run():
    with instrument("metrics", trace=True) as sess:
        UpcProgram(threads=4).run(_app)
    (tracer,) = sess.tracers
    return tracer


def _alltoall(rank):
    yield from collectives.alltoall(rank, 4096)


#: One workload per stack: a UPC barrier program, an MPI alltoall, UTS
#: under a node crash (kills, retransmits, cancelled timeouts) and a
#: hybrid FT class S run whose sub-threads issue non-blocking puts.
WORKLOADS = {
    "upc_barrier": lambda: UpcProgram(threads=4).run(_app),
    "mpi_alltoall": lambda: MpiProgram(ranks=4).run(_alltoall),
    "uts_crash": lambda: run_uts(
        "local", tree=small_tree("small"), threads=16, threads_per_node=4,
        preset=pyramid(nodes=4), faults="crash:node=1,at=3e-5"),
    "ft_hybrid": lambda: run_ft(
        "S", variant="overlap", threads=4, threads_per_node=2,
        threads_per_process=2, omp_threads=2, backing="virtual", verify=False),
}


@pytest.fixture
def results(monkeypatch):
    """Every ProgramResult the test's jobs return, in run order."""
    got = []
    real_run = SpmdJob.run

    def run(self, *args, **kwargs):
        res = real_run(self, *args, **kwargs)
        got.append(res)
        return res

    monkeypatch.setattr(SpmdJob, "run", run)
    return got


class TestEngineMetrics:
    def test_traced_run_tallies_everything(self):
        tracer = _traced_run()
        metrics = tracer.engine_metrics
        assert set(metrics) == set(names.ENGINE_METRICS)
        assert metrics[names.ENGINE_EVENTS_POPPED] > 0
        assert metrics[names.ENGINE_HEAP_PEAK] > 0
        assert metrics[names.ENGINE_CONTEXT_SWITCHES] > 0
        assert metrics[names.ENGINE_COSTED_CYCLES] > 0
        # more switches than pops is impossible: every switch is an event
        assert (metrics[names.ENGINE_CONTEXT_SWITCHES]
                <= metrics[names.ENGINE_EVENTS_POPPED])

    def test_metrics_published_as_meta_counters(self):
        tracer = _traced_run()
        samples = {s.name: s.value for s in tracer.samples
                   if s.track == META_TRACK and s.name in names.ENGINE_METRICS}
        assert samples == dict(tracer.engine_metrics)

    def test_metrics_survive_simulator_detach(self):
        tracer = _traced_run()
        tracer.sim = None  # what run_point does before pickling
        assert tracer.engine_metrics[names.ENGINE_EVENTS_POPPED] > 0

    def test_same_seed_same_tallies(self):
        assert _traced_run().engine_metrics == _traced_run().engine_metrics

    def test_bare_simulator_counts_under_tracer(self):
        from repro.obs.tracer import Tracer

        sim = Simulator()
        sim.tracer = Tracer(sim, label="bare")

        def proc():
            yield sim.delay(1e-6)
            yield sim.delay(0.0)   # zero-cost: not a costed cycle

        sim.spawn(proc())
        sim.run()
        sim.tracer.finalize(sim.now)
        metrics = sim.tracer.engine_metrics
        assert metrics[names.ENGINE_COSTED_CYCLES] == 1
        assert metrics[names.ENGINE_EVENTS_POPPED] >= 2


class TestUntracedCounts:
    def test_bare_simulator_counts_without_tracer(self):
        sim = Simulator()

        def proc():
            yield sim.delay(1e-6)
            yield sim.delay(0.0)

        sim.spawn(proc())
        sim.run()
        # spawn step, two delays, two resumes
        assert sim.engine_counts() == {
            names.ENGINE_EVENTS_POPPED: 5,
            names.ENGINE_HEAP_PEAK: 0,
            names.ENGINE_CONTEXT_SWITCHES: 3,
            names.ENGINE_COSTED_CYCLES: 1,
        }

    def test_reading_the_counts_is_not_a_push(self):
        sim = Simulator()
        sim.schedule_after(1.0, lambda: None)
        first = sim.engine_counts()
        assert sim.engine_counts() == first
        sim.run()
        assert sim.engine_counts()[names.ENGINE_EVENTS_POPPED] == 1

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_untraced_counts_equal_traced(self, workload, results):
        WORKLOADS[workload]()
        (untraced,) = results
        with instrument(workload, trace=True) as sess:
            WORKLOADS[workload]()
        (tracer,) = sess.tracers
        traced = results[1]
        assert traced.engine == tracer.engine_metrics
        assert untraced.engine[names.ENGINE_HEAP_PEAK] == 0
        assert tracer.engine_metrics[names.ENGINE_HEAP_PEAK] > 0
        assert untraced.engine == {
            **tracer.engine_metrics, names.ENGINE_HEAP_PEAK: 0}
        assert untraced.engine[names.ENGINE_EVENTS_POPPED] > 0
