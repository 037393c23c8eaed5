"""UPC collective operations over teams.

All functions here are *SPMD collectives*: every member of the team calls
the same function in the same order, passing its own ``upc`` context.
Pairwise dependencies are expressed through one-shot program flags keyed
by the team's per-op tag, so timing emerges from the same fabric the
point-to-point operations use.

``exchange`` (the all-to-all of NAS FT) is implemented with point-to-point
memory copies in a staggered peer order — the thesis's implementations use
p2p ``upc_memcpy`` rather than library collectives (§3.3.3, §4.3.3.1).
The ``reduce``/``broadcast`` trees are binomial, matching the scale of
log-P software collectives.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.errors import UpcError
from repro.gasnet.team import Team, binomial_tree
from repro.upc.sync import consume_flag, post_flag

__all__ = ["broadcast", "reduce", "allreduce", "exchange", "gather", "scatter"]


def broadcast(upc, team: Team, nbytes: float, root_rank: int = 0, value: Any = None):
    """Binomial-tree broadcast of ``nbytes`` (and optionally a value).

    Returns the broadcast value on every member.
    """
    size = len(team)
    me = team.rank(upc.MYTHREAD)
    if not 0 <= root_rank < size:
        raise UpcError(f"root rank {root_rank} out of range for team of {size}")
    tag = team.op_tag(upc.MYTHREAD)
    rel = (me - root_rank) % size

    # Binomial tree: receive the value from my parent, then fan it out to
    # my children at decreasing strides, each in its own one-reader flag.
    parent, children = binomial_tree(rel, size)
    if parent is not None:
        value = yield from consume_flag(upc, tag, rel)
    for child_rel in reversed(children):
        yield from upc.memput(team.thread_at((child_rel + root_rank) % size), nbytes)
        post_flag(upc, tag, child_rel, value)
    return value


def reduce(
    upc,
    team: Team,
    value: Any,
    op: Callable[[Any, Any], Any],
    nbytes: float = 8.0,
    root_rank: int = 0,
):
    """Binomial-tree reduction to ``root_rank``; returns the result there
    (``None`` elsewhere)."""
    size = len(team)
    me = team.rank(upc.MYTHREAD)
    tag = team.op_tag(upc.MYTHREAD)
    rel = (me - root_rank) % size
    parent, children = binomial_tree(rel, size)
    acc = value
    # Fold in my children's accumulators at increasing strides.
    for child_rel in children:
        other = yield from consume_flag(upc, tag, child_rel)
        acc = op(acc, other)
    if parent is None:
        return acc
    yield from upc.memput(team.thread_at((parent + root_rank) % size), nbytes)
    post_flag(upc, tag, rel, acc)
    return None


def allreduce(
    upc,
    team: Team,
    value: Any,
    op: Callable[[Any, Any], Any],
    nbytes: float = 8.0,
):
    """Reduce to rank 0 then broadcast; returns the result on every member."""
    partial = yield from reduce(upc, team, value, op, nbytes=nbytes, root_rank=0)
    result = yield from broadcast(upc, team, nbytes, root_rank=0, value=partial)
    return result


def exchange(
    upc,
    team: Team,
    nbytes_per_pair: float,
    asynchronous: bool = False,
    privatized: bool = False,
    barrier: bool = True,
):
    """All-to-all: every member puts ``nbytes_per_pair`` to every other.

    Peer order is staggered (``(rank + i) % size``) to avoid hot spots.
    ``asynchronous=True`` issues all puts non-blocking then synchronizes
    (the Berkeley ``upc_memput_async`` pattern of Fig 3.4b); otherwise
    puts are blocking, the Fortran-MPI-like split-phase pattern.
    ``barrier=True`` closes with a team barrier so the exchange is usable
    directly as a synchronizing collective.
    """
    size = len(team)
    me = team.rank(upc.MYTHREAD)
    if asynchronous:
        handles = []
        for i in range(1, size):
            dst = team.thread_at((me + i) % size)
            priv = privatized and upc.can_cast(dst)
            handles.append(upc.memput_nb(dst, nbytes_per_pair, privatized=priv))
        for h in handles:
            yield from h.wait()
    else:
        for i in range(1, size):
            dst = team.thread_at((me + i) % size)
            priv = privatized and upc.can_cast(dst)
            yield from upc.memput(dst, nbytes_per_pair, privatized=priv)
    if barrier:
        yield from team.barrier(upc.MYTHREAD)


def gather(upc, team: Team, nbytes: float, root_rank: int = 0) -> Generator:
    """Every member puts its contribution to the root (flat gather)."""
    me = team.rank(upc.MYTHREAD)
    root = team.thread_at(root_rank)
    tag = team.op_tag(upc.MYTHREAD)
    if me != root_rank:
        yield from upc.memput(root, nbytes)
        post_flag(upc, tag, me)
    else:
        for r in range(len(team)):
            if r != root_rank:
                yield from consume_flag(upc, tag, r)


def scatter(upc, team: Team, nbytes: float, root_rank: int = 0) -> Generator:
    """Root puts a distinct ``nbytes`` chunk to every member (flat scatter)."""
    me = team.rank(upc.MYTHREAD)
    tag = team.op_tag(upc.MYTHREAD)
    if me == root_rank:
        for r in range(len(team)):
            if r != root_rank:
                yield from upc.memput(team.thread_at(r), nbytes)
                post_flag(upc, tag, r)
    else:
        yield from consume_flag(upc, tag, me)
