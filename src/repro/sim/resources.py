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
from typing import Any, Deque, Optional

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


class _Transfer:
    """One transfer; processor sharing keeps its remaining bytes in the
    pipe's sorted ``_rem``."""

    __slots__ = ("event", "nbytes", "arrival")

    def __init__(self, nbytes: float, event: Event, arrival: int):
        self.nbytes = float(nbytes)
        self.event = event
        #: Per-pipe arrival number: transfers that finish on one timer
        #: complete in arrival order.
        self.arrival = arrival


_arrival = operator.attrgetter("arrival")


class SharedBandwidth:
    """A processor-sharing pipe of fixed aggregate ``rate`` (bytes/s).

    ``transfer(nbytes)`` returns an event that succeeds once the bytes have
    drained.  With ``n`` concurrent transfers each progresses at
    ``rate / n`` (optionally capped at ``per_stream_rate``), so a transfer's
    finish time depends on what else is in flight — exactly the contention
    behaviour of a shared NIC or memory controller.

    The in-flight remainders live in ``_rem``, a list kept sorted
    ascending, with ``_active`` holding their transfers in the same
    order.  Every transfer drains by the same ``drained`` bytes, and IEEE
    subtraction is monotone (``a <= b`` implies ``fl(a - d) <= fl(b - d)``),
    so a drain never reorders the list: the next completion is always
    ``_rem[0]``, bit-for-bit the minimum a full scan would find.  Costs:
    an arrival is an O(log n) search plus a C memmove; the next
    completion is O(1); a drain is one list comprehension, run only when
    simulated time advanced.

    Setting ``fifo=True`` degrades the pipe to strict FIFO service, used by
    the D4 ablation in DESIGN.md.
    """

    def __init__(
        self,
        sim: Simulator,
        rate: float,
        name: str = "",
        per_stream_rate: Optional[float] = None,
        fifo: bool = False,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if per_stream_rate is not None and per_stream_rate <= 0:
            raise ValueError(f"per_stream_rate must be positive, got {per_stream_rate}")
        self.sim = sim
        self.rate = float(rate)
        self.per_stream_rate = per_stream_rate
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
        #: The per-stream rate for ``_rate_n`` in-flight transfers; -1
        #: marks it stale (see :meth:`_invalidate_rate`).
        self._rate_n = -1
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
        ev = Event(self.sim)
        self.total_transfers += 1
        self.total_bytes += nbytes
        if nbytes == 0:
            self.sim.schedule_after(0.0, ev.succeed, None)
            return ev
        tr = _Transfer(nbytes, ev, self.total_transfers)
        if self.fifo:
            self._fifo_queue.append(tr)
            self._fifo_pump()
        else:
            self._advance()
            i = bisect_right(self._rem, tr.nbytes)
            self._rem.insert(i, tr.nbytes)
            self._active.insert(i, tr)
            if 1e-12 * tr.nbytes > self._tol_cap:
                self._tol_cap = 1e-12 * tr.nbytes
            self._reschedule()
        return ev

    def time_for(self, nbytes: float) -> float:
        """Uncontended service time for ``nbytes`` (for analytic checks)."""
        stream_rate = self.rate
        if self.per_stream_rate is not None:
            stream_rate = min(stream_rate, self.per_stream_rate)
        return nbytes / stream_rate

    # -- processor-sharing internals -----------------------------------

    def _aggregate_rate(self, n: int) -> float:
        """Aggregate service rate with ``n`` active transfers.

        Subclasses override this for occupancy-dependent throughput, e.g.
        an SMT core whose two hardware threads together exceed the
        single-thread rate but each run slower than alone.  The result is
        cached per ``n``: when an override also reads outside state, each
        change to that state must call :meth:`_invalidate_rate`.
        """
        return self.rate

    def _current_stream_rate(self) -> float:
        n = len(self._active)
        if n == self._rate_n:
            return self._stream_rate
        if n == 0:
            return self.rate
        rate = self._aggregate_rate(n) / n
        if self.per_stream_rate is not None:
            rate = min(rate, self.per_stream_rate)
        self._rate_n = n
        self._stream_rate = rate
        return rate

    def _invalidate_rate(self) -> None:
        """Forget the cached stream rate: ``_aggregate_rate`` changed.

        Call it between :meth:`_advance`, which drains at the old rate,
        and :meth:`_reschedule`, which prices the rest at the new one.
        """
        self._rate_n = -1

    def _advance(self) -> None:
        """Drain progress made since ``_last_update`` from every transfer."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._rem:
            return
        self.busy_time += dt
        drained = self._current_stream_rate() * dt
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
        target = now + max(self._rem[0], 0.0) / self._current_stream_rate()
        if target <= now:
            target = math.nextafter(now, math.inf)
        self.sim.schedule_at(target, self._on_timer, self._timer_generation)

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # superseded by a newer arrival/completion
        self._advance()
        # A transfer is finished within its own tolerance, whose relative
        # term guards against float drift on large transfers; only the
        # prefix within the largest tolerance can hold finished ones.
        rem, active = self._rem, self._active
        done = []
        i = bisect_right(rem, self._tol_cap)
        while i:
            i -= 1
            tr = active[i]
            if rem[i] <= max(_EPSILON_BYTES, 1e-12 * tr.nbytes):
                # Removed before any waiter runs, so a synchronous
                # callback that starts a transfer here sees only live ones.
                del rem[i], active[i]
                done.append(tr)
        if done:
            if not rem:
                self._tol_cap = _EPSILON_BYTES
            done.sort(key=_arrival)
            for tr in done:
                if not tr.event.cancelled:
                    tr.event.succeed(tr.nbytes)
        self._reschedule()

    # -- FIFO-mode internals --------------------------------------------

    def _fifo_pump(self) -> None:
        if self._fifo_busy or not self._fifo_queue:
            return
        tr = self._fifo_queue.popleft()
        self._fifo_busy = True
        stream_rate = self.rate
        if self.per_stream_rate is not None:
            stream_rate = min(stream_rate, self.per_stream_rate)
        dt = tr.nbytes / stream_rate
        self.busy_time += dt
        self.sim.schedule_after(dt, self._fifo_done, tr)

    def _fifo_done(self, tr: _Transfer) -> None:
        self._fifo_busy = False
        if not tr.event.cancelled:
            tr.event.succeed(tr.nbytes)
        self._fifo_pump()
