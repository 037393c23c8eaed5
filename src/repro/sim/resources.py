"""Shared resources: FIFO resources, message stores, and shared bandwidth.

:class:`SharedBandwidth` is the workhorse of the fabric and memory models.
It implements *processor sharing*: ``n`` concurrent transfers each progress
at ``rate / n``.  This is the standard first-order model for links, NICs
and memory controllers under contention, and is what produces the graceful
saturation curves in the paper's Figures 4.2, 4.4 and 4.5.
"""

from __future__ import annotations

import collections
import math
import operator
from bisect import bisect_right
from typing import Any, Deque

from repro.sim.engine import Event, SimulationError, Simulator

__all__ = ["Resource", "Store", "SharedBandwidth"]

#: Bytes below this remainder count as finished (guards float drift).
_EPSILON_BYTES = 1e-9


class Resource:
    """A counted FIFO resource (capacity ``k`` concurrent holders).

    >>> res = Resource(sim, capacity=1)
    >>> def user(sim, res):
    ...     yield res.acquire()
    ...     try:
    ...         yield sim.delay(1.0)    # critical section
    ...     finally:
    ...         res.release()

    Cancelled waiters (e.g. the losing side of an ``AnyOf`` timeout race)
    are skipped at grant time and never count as holders.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: Deque[Event] = collections.deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    def acquire(self) -> Event:
        """Return an event that succeeds once the caller holds the resource."""
        ev = Event(self.sim)
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            ev.succeed()
        else:
            self._queue.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        self._grant_next()

    def _grant_next(self) -> None:
        while self._queue and self._in_use < self.capacity:
            ev = self._queue.popleft()
            if ev.cancelled:
                continue
            self._in_use += 1
            ev.succeed()


class Store:
    """An unbounded FIFO queue of items with blocking ``get``.

    Used for message queues (active-message delivery, MPI match queues).
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = collections.deque()
        self._getters: Deque[Event] = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if getter.cancelled:
                continue
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None


class _Transfer(Event):
    """One transfer, and the event that signals its completion; processor
    sharing keeps its remaining bytes in the pipe's sorted ``_rem``."""

    __slots__ = ("nbytes", "arrival", "tol")

    def __init__(self, sim: Simulator, nbytes: float, arrival: int):
        Event.__init__(self, sim)
        self.nbytes = float(nbytes)
        #: Per-pipe arrival number: transfers that finish on one timer
        #: complete in arrival order.
        self.arrival = arrival
        #: Remaining bytes at or below this count as finished: the
        #: relative term guards against float drift on large transfers.
        tol = 1e-12 * self.nbytes
        self.tol = tol if tol > _EPSILON_BYTES else _EPSILON_BYTES


_arrival = operator.attrgetter("arrival")


class SharedBandwidth:
    """A processor-sharing pipe of fixed aggregate ``rate`` (bytes/s).

    ``transfer(nbytes)`` returns an event that succeeds once the bytes have
    drained.  With ``n`` concurrent transfers each progresses at
    ``rate / n``, so a transfer's finish time depends on what else is in
    flight — exactly the contention behaviour of a shared NIC or memory
    controller.  :meth:`set_rate` changes the aggregate rate mid-flight
    (the fabric sets a NIC's from its active connections and degradation).

    The in-flight remainders live in ``_rem``, a list kept sorted
    ascending, with ``_active`` holding their transfers in the same
    order.  Every transfer drains by the same ``drained`` bytes, and IEEE
    subtraction is monotone (``a <= b`` implies ``fl(a - d) <= fl(b - d)``),
    so a drain never reorders the list: the next completion is always
    ``_rem[0]``, bit-for-bit the minimum a full scan would find.  Costs:
    an arrival is an O(log n) search plus a C memmove; the next
    completion is O(1); a drain is one list comprehension, run only when
    simulated time advanced.

    Setting ``fifo=True`` degrades the pipe to strict FIFO service at the
    nominal ``rate``, used by the D4 ablation in DESIGN.md.
    """

    def __init__(self, sim: Simulator, rate: float, name: str = "",
                 fifo: bool = False):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.sim = sim
        #: The nominal rate: FIFO service and :meth:`time_for` use it.
        self.rate = float(rate)
        #: The aggregate rate processor sharing divides (see :meth:`set_rate`).
        self.live_rate = self.rate
        self.name = name
        self.fifo = fifo
        #: Remaining bytes of the in-flight transfers, sorted ascending.
        self._rem: list[float] = []
        #: The in-flight transfers, in ``_rem`` order.
        self._active: list[_Transfer] = []
        #: Largest finish tolerance since the pipe last idled: a transfer
        #: with more than this left cannot be finished (see ``_on_timer``).
        self._tol_cap = _EPSILON_BYTES
        self._last_update = sim.now
        self._timer_generation = 0
        #: ``_aggregate_rate(n) / n`` for the ``n`` in-flight transfers,
        #: recomputed whenever ``n`` or the rate changes (0.0 when idle).
        self._stream_rate = 0.0
        # FIFO mode state.
        self._fifo_queue: Deque[_Transfer] = collections.deque()
        self._fifo_busy = False
        # Statistics.
        self.total_bytes = 0.0
        self.total_transfers = 0
        self.busy_time = 0.0

    # -- public API ---------------------------------------------------

    @property
    def active_transfers(self) -> int:
        return len(self._active) + len(self._fifo_queue) + (1 if self._fifo_busy else 0)

    def transfer(self, nbytes: float) -> Event:
        """Start moving ``nbytes`` through the pipe; returns completion event."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        self.total_transfers += 1
        self.total_bytes += nbytes
        if nbytes == 0:
            ev = Event(self.sim)
            self.sim.schedule_after(0.0, ev.succeed, None)
            return ev
        tr = _Transfer(self.sim, nbytes, self.total_transfers)
        if self.fifo:
            self._fifo_queue.append(tr)
            self._fifo_pump()
        else:
            self._advance()
            i = bisect_right(self._rem, tr.nbytes)
            self._rem.insert(i, tr.nbytes)
            self._active.insert(i, tr)
            if tr.tol > self._tol_cap:
                self._tol_cap = tr.tol
            n = len(self._active)
            self._stream_rate = self._aggregate_rate(n) / n
            self._reschedule()
        return tr

    def time_for(self, nbytes: float) -> float:
        """Uncontended service time for ``nbytes`` (for analytic checks)."""
        return nbytes / self.rate

    def set_rate(self, rate: float) -> None:
        """Make ``rate`` the aggregate rate of processor sharing.

        Progress since the last update drains at the old rate; what
        remains of the in-flight transfers is priced at the new one.
        """
        self._advance()
        if rate != self.live_rate:
            self.live_rate = rate
            n = len(self._active)
            if n:
                self._stream_rate = self._aggregate_rate(n) / n
        self._reschedule()

    # -- processor-sharing internals -----------------------------------

    def _aggregate_rate(self, n: int) -> float:
        """Aggregate service rate with ``n`` active transfers.

        Subclasses override this for occupancy-dependent throughput, e.g.
        an SMT core whose two hardware threads together exceed the
        single-thread rate but each run slower than alone.  It is read
        only when ``n`` or the set rate changes, so an override reads
        only ``n`` and :attr:`live_rate`.
        """
        return self.live_rate

    def _advance(self) -> None:
        """Drain progress made since ``_last_update`` from every transfer."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._rem:
            return
        self.busy_time += dt
        drained = self._stream_rate * dt
        self._rem = [r - drained for r in self._rem]

    def _reschedule(self) -> None:
        """Schedule a timer for the next completion among active transfers.

        The timer target is snapped forward to the next representable
        float after ``now`` when the remaining service time underflows —
        without this, a transfer whose tail rounds below the clock's ULP
        would re-fire forever at the same instant.
        """
        self._timer_generation += 1
        if not self._rem:
            return
        now = self.sim.now
        rem = self._rem[0]
        if rem < 0.0:
            rem = 0.0
        target = now + rem / self._stream_rate
        if target <= now:
            target = math.nextafter(now, math.inf)
        self.sim.schedule_at(target, self._on_timer, self._timer_generation)

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # superseded by a newer arrival/completion
        self._advance()
        # A transfer is finished within its own tolerance; only the prefix
        # within the largest tolerance can hold finished ones.
        rem, active = self._rem, self._active
        done = []
        i = bisect_right(rem, self._tol_cap)
        while i:
            i -= 1
            tr = active[i]
            if rem[i] <= tr.tol:
                # Removed before any waiter runs, so a synchronous
                # callback that starts a transfer here sees only live ones.
                del rem[i], active[i]
                done.append(tr)
        if done:
            n = len(active)
            if n:
                self._stream_rate = self._aggregate_rate(n) / n
            else:
                self._tol_cap = _EPSILON_BYTES
            if len(done) > 1:
                done.sort(key=_arrival)
            for tr in done:
                tr._complete(tr.nbytes)  # a no-op if cancelled
        self._reschedule()

    # -- FIFO-mode internals --------------------------------------------

    def _fifo_pump(self) -> None:
        if self._fifo_busy or not self._fifo_queue:
            return
        tr = self._fifo_queue.popleft()
        self._fifo_busy = True
        dt = tr.nbytes / self.rate
        self.busy_time += dt
        self.sim.schedule_after(dt, self._fifo_done, tr)

    def _fifo_done(self, tr: _Transfer) -> None:
        self._fifo_busy = False
        tr.succeed(tr.nbytes)  # a no-op if cancelled
        self._fifo_pump()
