"""Core event loop and process machinery.

The engine keeps pending callbacks in two tiers: a binary heap of the
events at a *future* instant, keyed by ``(time, sequence)``, and a FIFO
of the events due at the current instant.  Simulated *processes* are
plain Python generators that ``yield`` :class:`Awaitable` objects —
delays, one-shot events, other processes, or ``AllOf``/``AnyOf``
combinators — and are resumed with the awaitable's value once it
completes.  Failures propagate by throwing into the generator, so
ordinary ``try/except`` works inside simulated code.

Design notes
------------
* Time is a ``float`` in seconds.  Ties are broken by a monotonically
  increasing sequence number (first scheduled, first run), which keeps
  runs deterministic.  Dispatch is in ``(time, sequence)`` order, yet
  only future events pay for the heap: when the FIFO runs dry the clock
  moves to the heap top's time and every heap entry due then moves, in
  sequence order, to the FIFO.  Each of them was pushed before the
  clock reached that time, so its sequence number is below that of
  anything pushed at it, and appending keeps the order exact.
* ``yield from`` composes simulated subroutines with zero overhead in the
  engine; only top-level ``yield`` values reach the scheduler.
* Cancellation is cooperative: ``Delay.cancel()`` and ``Event.cancel()``
  mark the awaitable dead so a pending entry becomes a no-op.  This
  is what lets ``AnyOf`` race a timeout against an event without leaking
  callbacks.  A process is never cancelled: a joiner that withdraws (a
  lost ``AnyOf`` race, a killed joiner) stops listening and the process
  runs on.  Only ``Process.kill()`` stops a process.
* The clock never runs backwards: ``schedule_at`` a past time and
  ``run(until)`` a past time both raise :class:`SimulationError`.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs import names as _metric_names

__all__ = [
    "Awaitable",
    "Event",
    "Delay",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
    "SimulationError",
    "ProcessFailure",
    "OFF",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class ProcessFailure(SimulationError):
    """Raised when joining a process that terminated with an exception.

    The original exception is available as ``__cause__``.
    """

    def __init__(self, process: "Process", cause: BaseException):
        super().__init__(f"process {process.name!r} failed: {cause!r}")
        self.process = process
        self.__cause__ = cause


class Awaitable:
    """Base class for everything a simulated process may ``yield``.

    An awaitable completes at most once, with either a value or an
    exception, and then invokes its registered callbacks in registration
    order.
    """

    __slots__ = ("sim", "_callbacks", "_done", "_cancelled", "value", "exc")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: list[Callable[[Awaitable], None]] = []
        self._done = False
        self._cancelled = False
        self.value: Any = None
        self.exc: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def add_callback(self, fn: Callable[["Awaitable"], None]) -> None:
        """Register ``fn`` to run when this awaitable completes.

        If already complete, ``fn`` runs immediately (synchronously).
        """
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _complete(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        if self._done or self._cancelled:
            return
        self._done = True
        self.value = value
        self.exc = exc
        # A completed awaitable never takes another callback (add_callback
        # runs it at once), so the list is dropped, not replaced.
        callbacks, self._callbacks = self._callbacks, ()
        for fn in callbacks:
            fn(self)

    def cancel(self) -> None:
        """Mark the awaitable dead; a later completion becomes a no-op."""
        if not self._done:
            self._cancelled = True
            self._callbacks.clear()


class Event(Awaitable):
    """A one-shot trigger that processes can wait on.

    ``succeed(value)`` wakes all waiters with ``value``; ``fail(exc)``
    throws ``exc`` into them.

    Completing a **cancelled** event is an explicit, documented no-op:
    cancellation means every waiter has already withdrawn (a lost
    ``AnyOf`` race, a killed process), so there is nobody left to wake
    and the completion value is discarded.  This lets completers fire
    unconditionally without tracking who lost which race.  Completing an
    event that already *completed* is still an error.
    """

    __slots__ = ()

    def succeed(self, value: Any = None) -> "Event":
        if self._done:
            raise SimulationError("event already completed")
        self._complete(value)  # a no-op once cancelled
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._done:
            raise SimulationError("event already completed")
        self._complete(None, exc)  # a no-op once cancelled
        return self


class Delay(Awaitable):
    """Completes ``dt`` simulated seconds after creation."""

    __slots__ = ("dt",)

    def __init__(self, sim: "Simulator", dt: float):
        if dt < 0:
            raise ValueError(f"negative delay: {dt}")
        Awaitable.__init__(self, sim)
        self.dt = dt
        sim.schedule_at(sim.now + dt, self._complete, dt)


class Process(Awaitable):
    """A running simulated process wrapping a generator.

    A process is itself awaitable: ``yield other_process`` joins it and
    evaluates to its return value.  If the joined process raised, a
    :class:`ProcessFailure` is thrown into the joiner.  It stops only by
    returning, raising or :meth:`kill`; it is never cancelled.
    """

    __slots__ = ("gen", "name", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        Awaitable.__init__(self, sim)
        if not hasattr(gen, "send"):
            raise TypeError(
                f"sim.spawn() needs a generator; got {type(gen).__name__}. "
                "Did you forget to call the generator function?"
            )
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Awaitable] = None
        sim._live[self] = None
        sim.schedule_at(sim.now, self._step, None, None)

    @property
    def result(self) -> Any:
        """Return value of the process; raises if it failed or is running."""
        if not self._done:
            raise SimulationError(f"process {self.name!r} has not finished")
        if self.exc is not None:
            raise ProcessFailure(self, self.exc)
        return self.value

    def _step(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        if self._done:
            return
        self._waiting_on = None
        sim = self.sim
        sim.context_switches += 1
        if sim.profiler.enabled:
            sim.profiler.context_switch(self)
        try:
            if throw_exc is None:
                target = self.gen.send(send_value)
            else:
                target = self.gen.throw(throw_exc)
        except StopIteration as stop:
            self._complete(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to joiners
            sim._record_failure(self, exc)
            self._complete(None, exc)
            return
        if not isinstance(target, Awaitable):
            if not isinstance(target, (int, float)):
                self.gen.close()
                exc = TypeError(
                    f"process {self.name!r} yielded {target!r}; expected an "
                    "Awaitable or a number of seconds"
                )
                sim._record_failure(self, exc)
                self._complete(None, exc)
                return
            target = Delay(sim, float(target))
        self._waiting_on = target
        # ``target.add_callback(self._resume)``, inlined: every yield
        # comes through here.
        if target._done:
            self._resume(target)
        else:
            target._callbacks.append(self._resume)

    def _complete(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        # ``Awaitable._complete`` less its cancelled test (a process is
        # never cancelled), plus leaving the live registry.
        if self._done:
            return
        del self.sim._live[self]
        self._done = True
        self.value = value
        self.exc = exc
        callbacks, self._callbacks = self._callbacks, ()
        for fn in callbacks:
            fn(self)

    def _resume(self, awaited: Awaitable) -> None:
        if self._done:
            return
        if awaited.exc is not None:
            if isinstance(awaited, Process):
                exc: BaseException = ProcessFailure(awaited, awaited.exc)
            else:
                exc = awaited.exc
            args: tuple = (None, exc)
        else:
            args = (awaited.value, None)
        # An inlined ``schedule_at(sim.now, ...)``: resumes are the
        # commonest push.
        sim = self.sim
        next(sim._seq)
        sim._ready.append((self._step, args))
        if sim.tracer.enabled or sim.profiler.enabled:
            sim._tally_push(False, self._step)

    def cancel(self) -> None:
        """A no-op: withdrawing one observer does not stop a process.

        A joiner that loses interest (a lost ``AnyOf`` race, a killed
        joiner) only stops listening, and its stale callback returns at
        once; other joiners still get the result.  :meth:`kill` stops
        the process.
        """

    def kill(self) -> None:
        """Terminate the process without running any more of its code."""
        if self._done:
            return
        if self._waiting_on is not None:
            self._waiting_on.cancel()
        if self.sim.tracer.enabled:
            self.sim.tracer.process_killed(self)
        self.gen.close()
        self._complete(value=None)


class AllOf(Awaitable):
    """Completes when *all* children complete; value is the list of values.

    Fails fast with the first child failure (remaining children keep
    running — this combinator only observes them).
    """

    __slots__ = ("children", "_pending")

    def __init__(self, sim: "Simulator", children: Iterable[Awaitable]):
        Awaitable.__init__(self, sim)
        self.children = list(children)
        self._pending = len(self.children)
        if self._pending == 0:
            sim.schedule_after(0.0, self._complete, [])
            return
        child_done = self._child_done
        for child in self.children:
            child.add_callback(child_done)

    def _child_done(self, child: Awaitable) -> None:
        if self._done or self._cancelled:
            return
        if child.exc is not None:
            self._complete(None, child.exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self._complete([c.value for c in self.children])


class AnyOf(Awaitable):
    """Completes when the *first* child completes; value is ``(index, value)``.

    Losing children are **cancelled** so a timeout race leaves no pending
    wakeup behind.  Cancelling a losing **process** is a no-op: it runs
    on (use :meth:`Process.kill` to stop it).
    """

    __slots__ = ("children",)

    def __init__(self, sim: "Simulator", children: Iterable[Awaitable]):
        Awaitable.__init__(self, sim)
        self.children = list(children)
        if not self.children:
            raise ValueError("AnyOf needs at least one child")
        for child in self.children:
            child.add_callback(self._child_done)

    def _child_done(self, child: Awaitable) -> None:
        if self._done or self._cancelled:
            return
        for other in self.children:
            if other is not child:
                other.cancel()
        if child.exc is not None:
            self._complete(exc=child.exc)
        else:
            self._complete(value=(self.children.index(child), child.value))


class _Off:
    """The sink of instrumentation that is off: it only says so.

    Every hook site guards with ``if sim.tracer.enabled:`` (likewise
    ``sanitizer`` and ``profiler``), so an uninstrumented run pays one
    attribute load per site.  An unguarded hook call raises
    ``AttributeError``.  ``enabled`` is a slot, not a class attribute:
    CPython specializes a slot load, and every push reads it twice.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


#: The one off-sink every :class:`Simulator` starts with for its
#: tracer, sanitizer and profiler; :func:`repro.obs.session.arm` replaces
#: the ones a session turns on.
OFF = _Off()


class Simulator:
    """The event loop: a clock, a heap of future callbacks and a FIFO of
    the callbacks due now."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Callbacks at a future instant, as ``(time, seq, fn, args)``.
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        #: Callbacks due at ``now``, in sequence order, as ``(fn, args)``.
        self._ready: deque[tuple[Callable, tuple]] = deque()
        self._seq = itertools.count()
        self._running = False
        self.failures: list[tuple[Process, BaseException]] = []
        #: Unfinished processes in spawn order (a dict used as an ordered
        #: set); a process leaves on completion, so a finished one is
        #: freed as soon as nothing else holds it.
        self._live: dict[Process, None] = {}
        #: Instrumentation sinks: the tracer (repro.obs), the sanitizer
        #: (repro.analyze) and the cost profiler (repro.obs.profile).  All
        #: start as the shared :data:`OFF`; ``repro.obs.session.arm`` sets
        #: the ones an ``instrument()`` session turns on.
        self.tracer = self.sanitizer = self.profiler = OFF
        #: Engine self-measurement, counted on every run (see
        #: :meth:`engine_counts`): generator steps, pushes at a future
        #: instant, and the peak of pending events (heap and FIFO), which
        #: only a traced run tracks.
        self.context_switches = 0
        self.costed_cycles = 0
        self.heap_peak = 0

    # -- scheduling --------------------------------------------------

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> None:
        now = self.now
        costed = time > now
        if costed:
            self.costed_cycles += 1
            heappush(self._heap, (time, next(self._seq), fn, args))
        elif time < now:
            raise SimulationError(f"cannot schedule at {time} before now={now}")
        else:
            next(self._seq)
            self._ready.append((fn, args))
        if self.tracer.enabled or self.profiler.enabled:
            self._tally_push(costed, fn)

    def schedule_after(self, dt: float, fn: Callable, *args: Any) -> None:
        self.schedule_at(self.now + dt, fn, *args)

    def _tally_push(self, costed: bool, fn: Callable) -> None:
        """Instrumentation of one push (``costed``: at a future instant).

        Every push site calls this only while a tracer or profiler is
        armed.  A traced run tracks the peak of pending events, heap and
        FIFO together, here; the profiler attributes the push to the
        layer that scheduled it.
        """
        if self.tracer.enabled:
            pending = len(self._heap) + len(self._ready)
            if pending > self.heap_peak:
                self.heap_peak = pending
        if self.profiler.enabled:
            self.profiler.event_scheduled(fn, costed)

    def engine_counts(self) -> dict:
        """The engine's self-measurement so far, keyed by metric name.

        Every push draws one ``_seq`` number, so the next number is the
        push count, and a pushed event no longer pending was popped.
        The number drawn here is handed back, so reading the counts is
        not a push.  Every event at a *future* instant is one costed
        cycle: delays, resource transfers, network latencies; same-instant
        wakeups are scheduling artifacts and stay free.  The heap peak is
        0 on an untraced run.
        """
        pushes = next(self._seq)
        self._seq = itertools.count(pushes)
        return {
            _metric_names.ENGINE_EVENTS_POPPED: pushes - self.pending,
            _metric_names.ENGINE_HEAP_PEAK: self.heap_peak,
            _metric_names.ENGINE_CONTEXT_SWITCHES: self.context_switches,
            _metric_names.ENGINE_COSTED_CYCLES: self.costed_cycles,
        }

    # -- awaitable factories -----------------------------------------

    def event(self) -> Event:
        return Event(self)

    def delay(self, dt: float) -> Delay:
        return Delay(self, dt)

    def all_of(self, children: Iterable[Awaitable]) -> AllOf:
        return AllOf(self, children)

    def any_of(self, children: Iterable[Awaitable]) -> AnyOf:
        return AnyOf(self, children)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    # -- execution ---------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Dispatch pending events; return the final simulated time.

        With ``until`` the clock stops advancing past that time (pending
        later events remain queued); an ``until`` before ``now`` raises.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run until {until} before now={self.now}")
        self._running = True
        heap, ready = self._heap, self._ready
        popleft, append = ready.popleft, ready.append
        try:
            while True:
                while ready:
                    fn, args = popleft()
                    fn(*args)
                if not heap:
                    if until is not None and until > self.now:
                        self.now = until
                    break
                time = heap[0][0]
                if until is not None and time > until:
                    self.now = until
                    break
                self.now = time
                # The first entry due runs at once; the rest wait in the
                # FIFO, ahead of anything it pushes.
                _time, _seq, fn, args = heappop(heap)
                while heap and heap[0][0] == time:
                    entry = heappop(heap)
                    append((entry[2], entry[3]))
                fn(*args)
        finally:
            self._running = False
        return self.now

    def step(self) -> bool:
        """Execute a single event; return False when none is pending."""
        if not self._ready:
            if not self._heap:
                return False
            self.now = time = self._heap[0][0]
            while self._heap and self._heap[0][0] == time:
                entry = heappop(self._heap)
                self._ready.append((entry[2], entry[3]))
        fn, args = self._ready.popleft()
        fn(*args)
        return True

    @property
    def pending(self) -> int:
        return len(self._heap) + len(self._ready)

    # -- diagnostics -------------------------------------------------

    def _record_failure(self, process: Process, exc: BaseException) -> None:
        self.failures.append((process, exc))
        if self.tracer.enabled:
            self.tracer.process_failed(process, exc)

    def forgive_failure(self, process: Process) -> None:
        """Drop recorded failures of ``process``: a supervisor handled them.

        Retry layers spawn an attempt, observe its failure through a
        combinator, and recover; without forgiveness the handled
        exception would still trip :meth:`raise_failures` at run end.
        """
        self.failures = [(p, e) for (p, e) in self.failures if p is not process]

    def stalled_processes(self) -> list:
        """Processes still waiting after the pending events ran out.

        Only meaningful once :attr:`pending` is zero: with nothing left
        to dispatch, a live process can never be resumed again, so every
        entry returned here is deadlocked (typically a waiter orphaned by
        an injected fault or by a kill).  With events still pending the
        result is merely "not finished yet", not a diagnosis.  The job
        layer's deadlock error (``SpmdJob.run``) names these.
        """
        return list(self._live)

    def raise_failures(self) -> None:
        """Re-raise the first unhandled process failure, if any.

        Harness code calls this after :meth:`run` so programming errors in
        simulated code do not silently produce bogus timings.
        """
        if self.failures:
            process, exc = self.failures[0]
            raise ProcessFailure(process, exc)
