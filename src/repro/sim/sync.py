"""Process synchronization: broadcast conditions and counted barriers."""

from __future__ import annotations

from typing import Any

from repro.sim.engine import Event, SimulationError, Simulator

__all__ = ["Condition", "SimBarrier"]


class Condition:
    """A broadcast condition: many waiters, woken all at once.

    Unlike :class:`~repro.sim.engine.Event` a condition can be notified
    repeatedly; each ``wait()`` call returns a fresh one-shot event tied to
    the *next* notification.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._waiters: list[Event] = []
        self.notify_count = 0

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        ev = Event(self.sim)
        self._waiters.append(ev)
        return ev

    def notify_all(self, value: Any = None) -> int:
        """Wake every current waiter; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        self.notify_count += 1
        woken = 0
        for ev in waiters:
            if not ev.cancelled:
                ev.succeed(value)
                woken += 1
        return woken


class SimBarrier:
    """A reusable, fail-stop-aware barrier for ``parties`` simulated processes.

    The barrier is split-phase: :meth:`notify` records an arrival without
    blocking and returns the generation it joined; :meth:`wait` blocks on
    that generation.  ``wait(notify(party))`` is the blocking barrier;
    the pair is ``upc_notify`` / ``upc_wait``.  Each
    generation has its own release event, so a fast process re-entering
    the barrier cannot consume the previous generation's release.
    """

    def __init__(self, sim: Simulator, parties: int, name: str = ""):
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.sim = sim
        self.parties = parties
        self.name = name
        self._arrived = 0
        self._arrived_parties: set = set()
        self._dropped: set = set()
        self._generation = 0
        self._release = Event(sim)
        #: Party whose arrival completed the most recent generation (None
        #: when a :meth:`drop_party` released it, or before any release).
        #: Observability reads this to attribute barrier waits to the
        #: straggler that ended them.
        self.last_arriver: Any = None

    @property
    def generation(self) -> int:
        return self._generation

    def notify(self, party: Any = None) -> int:
        """Arrive without blocking; returns the generation joined.

        ``party`` optionally identifies the arriver so a fail-stopped
        participant can later be withdrawn via :meth:`drop_party`.
        """
        self._arrived += 1
        if self._arrived > self.parties:
            raise SimulationError(
                f"barrier {self.name!r}: {self._arrived} arrivals for "
                f"{self.parties} parties (reuse before release?)"
            )
        if party is not None:
            self._arrived_parties.add(party)
        generation = self._generation
        if self._arrived == self.parties:
            self.last_arriver = party
            self._release_generation()
        return generation

    def wait(self, generation: int) -> Event:
        """An event that fires, valued ``generation``, once it is released.

        Already complete for a released generation.  Otherwise each waiter
        gets its own event chained off the shared release: killing one
        blocked process then cancels only that process's event, not the
        generation everyone else still waits on.  (succeed() on a
        cancelled event is a documented no-op.)
        """
        waiter = Event(self.sim)
        if generation < self._generation:
            return waiter.succeed(generation)
        self._release.add_callback(lambda ev: waiter.succeed(ev.value))
        return waiter

    def drop_party(self, party: Any) -> bool:
        """Fail-stop support: permanently remove one participant.

        The barrier now needs one fewer arrival per generation.  If the
        dropped party had already arrived this generation (it died while
        blocked, or between notify and wait), its arrival is withdrawn
        too.  When the drop makes the current generation complete,
        waiters are released immediately; without this, survivors at the
        barrier would hang forever.  Returns False when already dropped.
        """
        if party in self._dropped:
            return False
        if self.parties <= 1:
            raise SimulationError(
                f"barrier {self.name!r}: cannot drop the last party"
            )
        self._dropped.add(party)
        self.parties -= 1
        if party in self._arrived_parties:
            self._arrived_parties.discard(party)
            self._arrived -= 1
        if self._arrived == self.parties:
            self.last_arriver = None  # released by a death, not an arrival
            self._release_generation()
        return True

    def _release_generation(self) -> None:
        """Complete the current generation, waking everyone blocked."""
        release = self._release
        completed = self._generation
        self._generation += 1
        self._arrived = 0
        self._arrived_parties.clear()
        self._release = Event(self.sim)
        release.succeed(completed)
