"""Property-based invariants across the stack (hypothesis)."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan, LinkDegradation
from repro.machine import MachineSpec, MachineTopology, NodeSpec
from repro.network import Fabric, NetworkParams
from repro.sim import SharedBandwidth, SimBarrier, Simulator
from repro.upc import UpcProgram, collectives
from repro.machine.presets import generic_smp


class TestBandwidthConservation:
    @given(
        transfers=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),    # start time
                st.floats(min_value=1.0, max_value=1e6),    # bytes
            ),
            min_size=1, max_size=12,
        ),
        rate=st.floats(min_value=10.0, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_work_conservation(self, transfers, rate):
        """A PS pipe never delivers faster than rate and never loses work:
        last completion >= total_bytes/rate + first_start, and every
        transfer completes."""
        sim = Simulator()
        pipe = SharedBandwidth(sim, rate=rate)
        done = []

        def proc(sim, pipe, start, nbytes):
            yield sim.delay(start)
            yield pipe.transfer(nbytes)
            done.append(sim.now)

        for start, nbytes in transfers:
            sim.spawn(proc(sim, pipe, start, nbytes))
        sim.run()
        sim.raise_failures()
        assert len(done) == len(transfers)
        total = sum(n for _s, n in transfers)
        first = min(s for s, _n in transfers)
        assert max(done) >= first + total / rate * (1 - 1e-9)

    @given(
        nbytes=st.floats(min_value=1.0, max_value=1e9),
        n_streams=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_streams_finish_together(self, nbytes, n_streams):
        sim = Simulator()
        pipe = SharedBandwidth(sim, rate=1e6)
        ends = []

        def proc(sim, pipe):
            yield pipe.transfer(nbytes)
            ends.append(sim.now)

        for _ in range(n_streams):
            sim.spawn(proc(sim, pipe))
        sim.run()
        assert max(ends) - min(ends) <= 1e-9 * max(ends)
        assert max(ends) == pytest.approx(n_streams * nbytes / 1e6, rel=1e-6)


class _LinearScanPipe:
    """Reference processor sharing: a min over every in-flight transfer.

    The algorithm :class:`SharedBandwidth` used before it kept its
    remainders sorted; the sorted pipe must match it float for float.
    """

    def __init__(self, sim, rate):
        self.sim, self.rate, self.live_rate = sim, rate, rate
        self._active = []  # [remaining, nbytes, event], in arrival order
        self._last_update = sim.now
        self._timer_generation = 0

    def _aggregate_rate(self, n):
        return self.live_rate

    def set_rate(self, rate):
        self._advance()
        self.live_rate = rate  # no cache: the rate is recomputed on every use
        self._reschedule()

    def _stream_rate(self):
        n = len(self._active)
        return self._aggregate_rate(n) / n

    def transfer(self, nbytes):
        ev = self.sim.event()
        self._advance()
        self._active.append([float(nbytes), float(nbytes), ev])
        self._reschedule()
        return ev

    def _advance(self):
        now, dt = self.sim.now, self.sim.now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._active:
            return
        drained = self._stream_rate() * dt
        for tr in self._active:
            tr[0] -= drained

    def _reschedule(self):
        self._timer_generation += 1
        if not self._active:
            return
        now = self.sim.now
        rem = min(tr[0] for tr in self._active)
        target = now + max(rem, 0.0) / self._stream_rate()
        if target <= now:
            target = math.nextafter(now, math.inf)
        self.sim.schedule_at(target, self._on_timer, self._timer_generation)

    def _on_timer(self, generation):
        if generation != self._timer_generation:
            return
        self._advance()
        still = []
        for tr in self._active:
            if tr[0] <= max(1e-9, 1e-12 * tr[1]):
                tr[2].succeed(tr[1])
            else:
                still.append(tr)
        self._active = still
        self._reschedule()


class _Occupancy:
    """Occupancy-dependent rate (like ``SmtCore``) scaling the set rate
    (which a re-rate changes, as the fabric does to a NIC)."""

    def _aggregate_rate(self, n):
        return self.live_rate * (1.0 + 0.25 * min(n - 1, 3)) / (
            1.0 + 0.1 * (n > 4))


class _OccupancySorted(_Occupancy, SharedBandwidth):
    pass


class _OccupancyReference(_Occupancy, _LinearScanPipe):
    pass


class _TimerCounting(Simulator):
    def __init__(self):
        super().__init__()
        self.timer_pushes = 0

    def schedule_at(self, time, fn, *args):
        if getattr(fn, "__name__", "") == "_on_timer":
            self.timer_pushes += 1
        super().schedule_at(time, fn, *args)


_sizes = st.one_of(
    st.floats(min_value=-3.0, max_value=9.0).map(lambda e: 10.0 ** e),
    st.sampled_from([1e-3, 1.0, 1e3, 4096.0, 1e9]),
)
_times = st.one_of(
    st.sampled_from([0.0, 1e-6, 0.5]),
    st.floats(min_value=0.0, max_value=2.0),
)


class TestSortedMatchesLinearScan:
    @given(
        arrivals=st.lists(st.tuples(_times, _sizes), min_size=1, max_size=16),
        rerates=st.lists(
            st.tuples(_times, st.floats(min_value=0.1, max_value=4.0)),
            max_size=4,
        ),
        rate=st.floats(min_value=1e3, max_value=1e9),
        occupancy=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_completions_match_reference(
        self, arrivals, rerates, rate, occupancy
    ):
        """Same completion times (float ``==``), same completion order and
        same timer pushes as the linear scan; ``_rem`` stays sorted."""

        def simulate(sorted_pipe):
            sim = _TimerCounting()
            if sorted_pipe:
                cls = _OccupancySorted if occupancy else SharedBandwidth
            else:
                cls = _OccupancyReference if occupancy else _LinearScanPipe
            pipe = cls(sim, rate)
            done = []

            def arrive(i, start, nbytes):
                yield sim.delay(start)
                ev = pipe.transfer(nbytes)
                ev.add_callback(lambda _ev: done.append((i, sim.now)))

            def rerate(start, factor):
                yield sim.delay(start)
                pipe.set_rate(rate * factor)  # what Fabric._reprice does

            for i, (start, nbytes) in enumerate(arrivals):
                sim.spawn(arrive(i, start, nbytes))
            for start, factor in rerates:
                sim.spawn(rerate(start, factor))
            while sim.step():
                if sorted_pipe:
                    rem = pipe._rem
                    assert all(a <= b for a, b in zip(rem, rem[1:]))
                    assert len(rem) == len(pipe._active)
            sim.raise_failures()
            return done, sim.timer_pushes

        done, pushes = simulate(sorted_pipe=True)
        ref_done, ref_pushes = simulate(sorted_pipe=False)
        assert len(done) == len(arrivals)
        assert done == ref_done
        assert pushes == ref_pushes


class TestBarrierProperties:
    @given(
        parties=st.integers(min_value=1, max_value=12),
        rounds=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_barrier_generations_never_mix(self, parties, rounds, data):
        """No process observes a generation out of order, for arbitrary
        arrival skews."""
        sim = Simulator()
        bar = SimBarrier(sim, parties=parties)
        observed = {p: [] for p in range(parties)}
        delays = [
            [data.draw(st.floats(min_value=0.0, max_value=3.0)) for _ in range(rounds)]
            for _ in range(parties)
        ]

        def worker(sim, bar, p):
            for r in range(rounds):
                yield sim.delay(delays[p][r])
                gen = yield bar.wait(bar.notify())
                observed[p].append(gen)

        for p in range(parties):
            sim.spawn(worker(sim, bar, p))
        sim.run()
        sim.raise_failures()
        for p in range(parties):
            assert observed[p] == list(range(rounds))


class TestCollectiveProperties:
    @given(
        nthreads=st.integers(min_value=1, max_value=8),
        values=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_allreduce_equals_python_reduce(self, nthreads, values):
        vals = [values.draw(st.integers(-1000, 1000)) for _ in range(nthreads)]
        prog = UpcProgram(generic_smp(nodes=2), threads=nthreads)

        def main(upc):
            out = yield from collectives.allreduce(
                upc, upc.program.world, vals[upc.MYTHREAD], lambda a, b: a + b
            )
            return out

        res = prog.run(main)
        assert res.returns == [sum(vals)] * nthreads

    @given(
        nthreads=st.integers(min_value=2, max_value=8),
        root=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_broadcast_from_any_root(self, nthreads, root):
        r = root.draw(st.integers(0, nthreads - 1))
        prog = UpcProgram(generic_smp(nodes=2), threads=nthreads)

        def main(upc):
            payload = ("gold", upc.MYTHREAD) if upc.MYTHREAD == r else None
            out = yield from collectives.broadcast(
                upc, upc.program.world, 32, root_rank=r, value=payload
            )
            return out

        res = prog.run(main)
        assert res.returns == [("gold", r)] * nthreads


def _uncached_stream_rate(pipe):
    """The per-stream rate recomputed from ``n`` and the set rate."""
    n = len(pipe._active)
    return pipe._aggregate_rate(n) / n


#: Patched over ``SharedBandwidth._stream_rate``: every read recomputes
#: the rate and every store is dropped.
_RECOMPUTED_AT_EVERY_USE = property(_uncached_stream_rate,
                                    lambda pipe, value: None)


class TestNicRateCache:
    @given(
        messages=st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 5), _times, _sizes),
            min_size=1, max_size=12,
        ),
        windows=st.lists(
            st.tuples(st.integers(0, 2), _times,
                      st.floats(min_value=1e-7, max_value=2.0),
                      st.floats(min_value=0.1, max_value=0.9)),
            max_size=3,
        ),
        shared=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_cached_rate_matches_formula_after_every_event(
        self, messages, windows, shared
    ):
        """Under connection churn and degradation windows, every NIC
        pipe's set rate equals the D2 formula over the fabric's state,
        after each event every busy pipe's stored stream rate equals
        ``_aggregate_rate(n) / n``, and completions match a run that
        recomputes the rate at every use."""
        plan = FaultPlan(degradations=tuple(
            LinkDegradation(node=node, start=start, end=start + length,
                            factor=factor)
            for node, start, length, factor in windows
        ))
        edges = {t for w in plan.degradations for t in (w.start, w.end)}

        def simulate(check):
            sim = Simulator()
            topo = MachineTopology(
                MachineSpec(name="t", nodes=3, node=NodeSpec(1, 2, 1)))
            fab = Fabric(sim, topo, NetworkParams(
                latency=1e-6, send_overhead=0.0, recv_overhead=0.0, gap=0.0,
                connection_bw=1e9, nic_bw=2e9, loopback_bw=4e9,
                loopback_latency=0.5e-6, qp_knee=1, qp_penalty=0.25,
            ))
            for ep in range(6):  # two endpoints per node
                fab.register_endpoint(ep, ep // 2, "proc" if shared else None)
            inj = FaultInjector(sim, plan, stats=fab.stats)
            inj.attach(fab)
            done = []

            def send(i, src, hop, start, nbytes):
                yield sim.delay(start)
                yield from fab.transmit(src, (src + hop) % 6, nbytes)
                done.append((i, sim.now))

            for i, (src, hop, start, nbytes) in enumerate(messages):
                sim.spawn(send(i, src, hop, start, nbytes))
            while sim.step():
                if not check:
                    continue
                for node in range(3):
                    if sim.now not in edges:
                        assert fab.degrade_factor(node) == \
                            inj.degrade_factor(node)
                    active = fab.active_connections_on_node(node)
                    rate = (fab.params.nic_bw
                            * fab.params.nic_efficiency(active)
                            * fab.degrade_factor(node))
                    for pipe in (fab.nic_tx[node], fab.nic_rx[node]):
                        assert pipe.live_rate == rate
                        if pipe._active:
                            assert pipe._stream_rate == \
                                _uncached_stream_rate(pipe)
            sim.raise_failures()
            return done

        done = simulate(check=True)
        with mock.patch.object(SharedBandwidth, "_stream_rate",
                               _RECOMPUTED_AT_EVERY_USE, create=True):
            reference = simulate(check=False)
        assert len(done) == len(messages)
        assert done == reference
