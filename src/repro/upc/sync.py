"""UPC locks, and the one-reader flags collectives hand data through.

``upc_lock_t`` objects live in shared memory with affinity to one thread;
acquiring from elsewhere is an active-message round to that thread (or a
cache-coherent atomic round when the contender shares memory with the
lock's home).  Contended waiters queue FIFO at the home, like the
Berkeley runtime's list locks.  :func:`post_flag` and
:func:`consume_flag` are a flag's two ends, with the sanitizer's
release and acquire.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import UpcError
from repro.obs import names
from repro.obs.tracer import thread_track
from repro.sim import Resource

__all__ = ["UpcLock", "consume_flag", "post_flag"]


def post_flag(upc, tag: str, key: Any, value: Any = None) -> None:
    """Set flag ``(tag, key)`` for its one reader, releasing to it."""
    sanitizer = upc.sim.sanitizer
    if sanitizer.enabled:
        sanitizer.release(("flag", tag, key), upc.MYTHREAD)
    upc.program.flag((tag, key)).succeed(value)


def consume_flag(upc, tag: str, key: Any) -> Generator:
    """Wait for flag ``(tag, key)``, acquire it and drop it from the
    program's store; returns its value."""
    value = yield upc.program.flag((tag, key))
    sanitizer = upc.sim.sanitizer
    if sanitizer.enabled:
        sanitizer.acquire(("flag", tag, key), upc.MYTHREAD)
    upc.program.drop_flag((tag, key))
    return value


class UpcLock:
    """A global lock with affinity (see module docstring).

    Obtain instances through ``upc.lock(key, affinity_thread=...)`` so
    that all threads share one object per key.
    """

    def __init__(self, program, key: object, affinity_thread: int = 0):
        if not 0 <= affinity_thread < program.threads:
            raise UpcError(f"lock affinity thread {affinity_thread} out of range")
        self.program = program
        self.key = key
        self.affinity_thread = affinity_thread
        self._resource = Resource(program.sim, 1, name=f"upc_lock:{key}")
        self._holder = None
        self._hold_span = None
        self.contended_acquires = 0

    @property
    def holder(self):
        return self._holder

    def acquire(self, upc) -> Generator:
        """Simulated generator: blocking ``upc_lock``."""
        # The acquisition request travels to the lock's home...
        yield from upc.gasnet.am_roundtrip(upc.MYTHREAD, self.affinity_thread)
        # ...and the contender queues there until granted.
        grant = self._resource.acquire()
        if not grant.done:
            self.contended_acquires += 1
        yield grant
        self._holder = upc.MYTHREAD
        sanitizer = self.program.sim.sanitizer
        if sanitizer.enabled:
            # acquire joins the previous releaser's clock: accesses under
            # the lock are ordered across threads.
            sanitizer.acquire(("lock", self.key), upc.MYTHREAD)
        tracer = self.program.sim.tracer
        if tracer.enabled:
            self._hold_span = tracer.begin(
                thread_track(upc.MYTHREAD), f"hold {self.key}", names.CAT_LOCK
            )

    def release(self, upc) -> Generator:
        """Simulated generator: ``upc_unlock``."""
        if self._holder != upc.MYTHREAD:
            raise UpcError(
                f"thread {upc.MYTHREAD} releasing lock {self.key!r} held by "
                f"{self._holder}"
            )
        self._holder = None
        sanitizer = self.program.sim.sanitizer
        if sanitizer.enabled:
            sanitizer.release(("lock", self.key), upc.MYTHREAD)
        # Releasing notifies the home; a shared-memory round when local.
        # The hand-off to queued waiters must happen even if the round
        # fails (dead home) or the releaser is killed mid-round —
        # otherwise the lock is leaked and every queued thief deadlocks.
        try:
            yield from upc.gasnet.am_roundtrip(upc.MYTHREAD, self.affinity_thread)
        finally:
            self._resource.release()
            self._end_hold_span()

    def abandon(self, thread: int) -> bool:
        """Force-release ``thread``'s hold without the unlock AM round.

        The failover path: a holder that cannot reach the lock's home
        (dead affinity thread) still must hand the lock to queued
        waiters, or they block forever.
        """
        if self._holder != thread:
            return False
        self._holder = None
        self._resource.release()
        self._end_hold_span()
        return True

    def _end_hold_span(self) -> None:
        if self._hold_span is not None:
            self.program.sim.tracer.end(self._hold_span)
            self._hold_span = None

    def break_dead_holder(self, dead_threads: set) -> bool:
        """Crash recovery: force-release when the holder fail-stopped.

        Without this, survivors queued at the lock's home would wait
        forever for a release that can never come.  Models the runtime
        reclaiming a lock after its owner's node is declared dead.
        """
        if self._holder is None or self._holder not in dead_threads:
            return False
        return self.abandon(self._holder)
