"""GASNet teams: named thread subsets with their own barrier.

The thesis cites the (then-unreleased) GASNet team extension as the
natural substrate for UPC thread groups; here a :class:`Team` is an
ordered subset of threads carrying a team barrier.  Splitting a team is
collective, so :func:`repro.upc.groups.split` builds the child teams.
Collective *algorithms* (broadcast, exchange, reduce) live in
:mod:`repro.upc.collectives` and take a team argument;
:func:`binomial_tree` is the one tree shape both their broadcast and
reduce and MPI's broadcast walk.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.errors import GasnetError
from repro.obs import names
from repro.obs.tracer import thread_track
from repro.sim import SimBarrier, Simulator

__all__ = ["Team", "binomial_tree"]


def binomial_tree(rel: int, size: int) -> Tuple[Optional[int], List[int]]:
    """Parent (None at the root, ``rel`` 0) and children of root-relative
    rank ``rel``: the parent is ``rel`` minus its lowest set bit, the
    children ``rel`` plus each smaller power of two below ``size``, in
    ascending stride."""
    children = []
    stride = 1
    while stride < size and not rel & stride:
        if rel + stride < size:
            children.append(rel + stride)
        stride <<= 1
    return (rel - stride if rel else None), children


class Team:
    """An ordered, immutable set of thread ids with a reusable barrier.

    ``name`` prefixes the team's op tags, sanitizer keys and barrier span
    names, so every caller chooses it.
    """

    def __init__(self, sim: Simulator, members: Sequence[int], name: str):
        members = tuple(members)
        if not members:
            raise GasnetError("team needs at least one member")
        if len(set(members)) != len(members):
            raise GasnetError(f"duplicate members in team: {members}")
        self.sim = sim
        self.members = members
        self.name = name
        self._rank_of = {t: i for i, t in enumerate(members)}
        self._barrier = SimBarrier(sim, parties=len(members), name=f"{self.name}.bar")
        self._op_counters = {t: 0 for t in members}

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, thread_id: int) -> bool:
        return thread_id in self._rank_of

    def rank(self, thread_id: int) -> int:
        """Team-relative rank of a thread."""
        try:
            return self._rank_of[thread_id]
        except KeyError:
            raise GasnetError(
                f"thread {thread_id} is not in team {self.name!r}"
            ) from None

    def thread_at(self, rank: int) -> int:
        if not 0 <= rank < len(self.members):
            raise GasnetError(f"rank {rank} out of range for team of {len(self)}")
        return self.members[rank]

    def op_tag(self, thread_id: int) -> str:
        """Per-thread collective sequence tag.

        SPMD members execute the same collective sequence, so the Nth
        call on every member yields the same tag — giving collectives a
        rendezvous namespace without global coordination.
        """
        n = self._op_counters[thread_id]
        self._op_counters[thread_id] = n + 1
        return f"{self.name}:op{n}"

    def barrier(self, thread_id: int) -> Generator:
        """Simulated generator: team barrier (all live members must call)."""
        yield from self.wait(thread_id, self.notify(thread_id))

    def notify(self, thread_id: int) -> int:
        """Arrive at the team barrier without blocking; returns the
        generation joined (``upc_notify`` on the world team)."""
        self.rank(thread_id)  # membership check
        sanitizer = self.sim.sanitizer
        if sanitizer.enabled:
            sanitizer.barrier_arrive(("team", self.name), thread_id, self.members)
        return self._barrier.notify(thread_id)

    def wait(self, thread_id: int, generation: int) -> Generator:
        """Simulated generator: block until ``generation`` is released
        (``upc_wait`` on the world team).

        Traced runs record the wait as a barrier span on the thread's
        track.  The span names the barrier's last arriver as its
        ``releaser``, so the critical-path walk can jump to the
        straggler's track.
        """
        event = self._barrier.wait(generation)
        tracer = self.sim.tracer
        if tracer.enabled:
            span = tracer.begin(
                thread_track(thread_id), f"barrier {self.name}", names.CAT_BARRIER
            )
            try:
                yield event
            finally:
                tracer.end(span, args={"releaser": self._barrier.last_arriver})
        else:
            yield event
        sanitizer = self.sim.sanitizer
        if sanitizer.enabled:
            sanitizer.barrier_pass(("team", self.name), thread_id)

    def drop_dead(self, thread_id: int) -> bool:
        """Fail-stop a member: future barriers no longer count it.

        Survivors blocked at the team barrier are released if the dead
        thread was the only one missing.  Membership and ranks are
        unchanged (the team is still the same ordered set; one seat is
        just permanently empty).  Returns False when already dropped.
        """
        self.rank(thread_id)
        return self._barrier.drop_party(thread_id)
