"""Dispatch order of the two-tier queue equals a heap-only engine's.

The simulator keeps future events on a ``(time, seq)`` heap and the
events due now in a FIFO.  :class:`_HeapOnly` is the engine without the
FIFO: every push, same-instant ones included, goes on one heap keyed by
``(time, push order)``.  Hypothesis builds programs that mix same-instant
and future schedules, callbacks that schedule from inside callbacks,
processes waiting on delays, events, timeout races and other processes,
cancellation, kills, and ``run(until)``/``step()`` driving; both engines
must log the same dispatches at the same instants.
"""

import itertools
from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import names
from repro.obs.tracer import Tracer
from repro.sim import Simulator
from repro.sim.engine import SimulationError


class _HeapPush:
    """Stands in for the FIFO: a resume's push goes on the heap at ``now``."""

    def __init__(self, sim):
        self.sim = sim

    def append(self, entry):
        fn, args = entry
        heappush(self.sim._heap,
                 (self.sim.now, next(self.sim._order), fn, args))

    def __len__(self):
        return 0


class _HeapOnly(Simulator):
    """The reference: one heap, popped in ``(time, push order)``."""

    def __init__(self):
        super().__init__()
        self._ready = _HeapPush(self)
        self._order = itertools.count()

    def schedule_at(self, time, fn, *args):
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} before now={self.now}")
        heappush(self._heap, (time, next(self._order), fn, args))

    def run(self, until=None):
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run until {until} before now={self.now}")
        while self._heap:
            time, _order, fn, args = self._heap[0]
            if until is not None and time > until:
                self.now = until
                break
            heappop(self._heap)
            self.now = time
            fn(*args)
        else:
            if until is not None and until > self.now:
                self.now = until
        return self.now

    def step(self):
        if not self._heap:
            return False
        time, _order, fn, args = heappop(self._heap)
        self.now = time
        fn(*args)
        return True


#: Few distinct offsets, zero twice as likely, so instants collide often.
_DT = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])

_WAIT = st.one_of(
    st.tuples(st.just("delay"), _DT),
    st.tuples(st.just("event"), st.just(0.0)),
    st.tuples(st.just("race"), _DT),  # a delay against a fresh event
    st.tuples(st.just("join"), st.integers(0, 7)),  # an earlier process
)

_ACTION = st.recursive(
    st.one_of(
        st.tuples(st.just("fire"), st.integers(0, 7)),
        st.tuples(st.just("cancel"), st.integers(0, 7)),
        st.tuples(st.just("kill"), st.integers(0, 7)),
        st.tuples(st.just("spawn"), st.lists(_WAIT, min_size=1, max_size=4)),
    ),
    lambda inner: st.tuples(st.just("call"), _DT,
                            st.lists(inner, max_size=3)),
    max_leaves=12,
)

_DRIVE = st.lists(
    st.one_of(
        st.tuples(st.just("until"), _DT),  # run(until=now + offset)
        st.tuples(st.just("step"), st.integers(1, 6)),
    ),
    max_size=4,
)


class _Script:
    """Runs one generated program on ``sim`` and logs every dispatch."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        #: Every delay and event made so far: ``fire``/``cancel`` pick one.
        self.made = []
        #: Every process spawned so far: ``kill``/``join`` pick one.
        self.procs = []
        self._labels = itertools.count()

    def start(self, actions):
        for action in actions:
            self.act(action)

    def act(self, action):
        sim, label = self.sim, next(self._labels)
        kind = action[0]
        if kind == "call":
            _kind, dt, children = action

            def callback():
                self.log.append(("call", label, sim.now))
                for child in children:
                    self.act(child)

            sim.schedule_after(dt, callback)
        elif kind == "spawn":
            proc = self._proc(label, action[1], self.procs[:])
            self.procs.append(sim.spawn(proc))
        elif kind == "kill":
            if self.procs:
                self.procs[action[1] % len(self.procs)].kill()
                self.log.append((kind, label, sim.now))
        elif self.made:
            target = self.made[action[1] % len(self.made)]
            if kind == "cancel":
                target.cancel()
            elif not target.done and hasattr(target, "succeed"):
                target.succeed(label)
            self.log.append((kind, label, sim.now))

    def _proc(self, label, waits, earlier):
        """``earlier``: the processes spawned before this one."""
        sim = self.sim
        for i, (kind, dt) in enumerate(waits):
            if kind == "join":  # ``dt`` picks the process
                awaitable = (earlier[dt % len(earlier)] if earlier
                             else sim.delay(0.0))
            elif kind == "delay":
                awaitable = sim.delay(dt)
                self.made.append(awaitable)
            else:
                awaitable = sim.event()
                self.made.append(awaitable)
                if kind == "race":
                    delay = sim.delay(dt)
                    self.made.append(delay)
                    awaitable = sim.any_of([delay, awaitable])
            value = yield awaitable
            self.log.append(("proc", label, i, value, sim.now))


def _drive(sim, actions, drive):
    script = _Script(sim)
    script.start(actions)
    states = []
    for kind, arg in drive:
        if kind == "until":
            sim.run(until=sim.now + arg)
        else:
            for _ in range(arg):
                sim.step()
        states.append((sim.now, sim.pending, len(script.log)))
    sim.run()
    states.append((sim.now, sim.pending, len(script.log)))
    return script.log, states


class TestDispatchOrder:
    @given(actions=st.lists(_ACTION, min_size=1, max_size=6), drive=_DRIVE)
    @settings(max_examples=200, deadline=None)
    def test_matches_heap_only_engine(self, actions, drive):
        """Same dispatches at the same instants, same clock and pending
        count after every ``run(until)`` or ``step()`` segment."""
        got = _drive(Simulator(), actions, drive)
        want = _drive(_HeapOnly(), actions, drive)
        assert got == want

    def test_heap_entries_due_now_precede_pushes_at_now(self):
        sim, order = Simulator(), []

        def first():
            order.append("a")
            sim.schedule_after(0.0, order.append, "c")  # pushed at t=1

        sim.schedule_at(1.0, first)
        sim.schedule_at(1.0, order.append, "b")  # pushed at t=0
        sim.run()
        assert order == ["a", "b", "c"]

    def test_pops_count_both_tiers(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(0.0, lambda: None)
        assert sim.pending == 2
        assert sim.engine_counts()[names.ENGINE_EVENTS_POPPED] == 0
        assert sim.step()
        assert (sim.pending, sim.now) == (1, 0.0)
        assert sim.engine_counts()[names.ENGINE_EVENTS_POPPED] == 1


class TestHeapPeakCountsTheFifo:
    def test_same_instant_entries_reach_the_peak(self):
        """Ten spawns at t=0 are ten same-instant entries and no heap
        entry; the traced peak counts them."""
        sim = Simulator()
        sim.tracer = Tracer(sim, label="fifo")
        heap_sizes = []

        def proc():
            heap_sizes.append(len(sim._heap))
            yield sim.delay(0.0)

        for _ in range(10):
            sim.spawn(proc())
        sim.run()
        sim.tracer.finalize(sim.now)
        assert heap_sizes == [0] * 10
        assert sim.tracer.engine_metrics[names.ENGINE_HEAP_PEAK] == 10
