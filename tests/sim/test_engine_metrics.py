"""Engine self-measurement: tallies exist only while a tracer is armed.

The simulator counts events popped, heap peak, context switches and
costed delay cycles — but only under ``tracer.enabled``, so the untraced
hot path stays tally-free.  Finalize harvests the tallies onto the
tracer (surviving simulator detachment) and publishes them as counter
samples on the meta track.
"""

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


class TestEngineMetrics:
    def test_untraced_sim_keeps_zero_tallies(self):
        prog = UpcProgram(threads=2)
        prog.run(_app)
        assert all(v == 0 for v in prog.sim.engine_metrics.values())

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
