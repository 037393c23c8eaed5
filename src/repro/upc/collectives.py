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
from repro.gasnet.team import Team

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
    sanitizer = upc.sim.sanitizer

    box = upc.program.flag((tag, "value"))
    if rel == 0 and not box.done:
        if sanitizer.enabled:
            sanitizer.release(("flag", tag, "value"), upc.MYTHREAD)
        box.succeed(value)

    # Standard binomial tree: receive from the parent below my lowest
    # set bit, then fan out to children at decreasing strides.
    mask = 1
    while mask < size:
        if rel & mask:
            flag = upc.program.flag((tag, rel))
            yield flag
            if sanitizer.enabled:
                sanitizer.acquire(("flag", tag, rel), upc.MYTHREAD)
            upc.program._flags.pop((tag, rel), None)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        child_rel = rel + mask
        if child_rel < size:
            dst = team.thread_at((child_rel + root_rank) % size)
            yield from upc.memput(dst, nbytes)
            if sanitizer.enabled:
                sanitizer.release(("flag", tag, child_rel), upc.MYTHREAD)
            upc.program.flag((tag, child_rel)).succeed()
        mask >>= 1

    result = yield box
    if sanitizer.enabled:
        sanitizer.acquire(("flag", tag, "value"), upc.MYTHREAD)
    return result


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
    sanitizer = upc.sim.sanitizer

    acc = value
    bit = 1
    while bit < size:
        if rel & bit:
            # Send my accumulator to the partner below and stop.
            dst_rel = rel & ~bit
            dst = team.thread_at((dst_rel + root_rank) % size)
            yield from upc.memput(dst, nbytes)
            flag = upc.program.flag((tag, rel))
            if sanitizer.enabled:
                sanitizer.release(("flag", tag, rel), upc.MYTHREAD)
            flag.succeed(acc)
            return None
        partner_rel = rel | bit
        if partner_rel < size:
            flag = upc.program.flag((tag, partner_rel))
            other = yield flag
            if sanitizer.enabled:
                sanitizer.acquire(("flag", tag, partner_rel), upc.MYTHREAD)
            upc.program._flags.pop((tag, partner_rel), None)
            acc = op(acc, other)
        bit <<= 1
    return acc


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
    sanitizer = upc.sim.sanitizer
    if me != root_rank:
        yield from upc.memput(root, nbytes)
        if sanitizer.enabled:
            sanitizer.release(("flag", tag, me), upc.MYTHREAD)
        upc.program.flag((tag, me)).succeed()
    else:
        for r in range(len(team)):
            if r == root_rank:
                continue
            flag = upc.program.flag((tag, r))
            yield flag
            if sanitizer.enabled:
                sanitizer.acquire(("flag", tag, r), upc.MYTHREAD)
            upc.program._flags.pop((tag, r), None)


def scatter(upc, team: Team, nbytes: float, root_rank: int = 0) -> Generator:
    """Root puts a distinct ``nbytes`` chunk to every member (flat scatter)."""
    me = team.rank(upc.MYTHREAD)
    tag = team.op_tag(upc.MYTHREAD)
    sanitizer = upc.sim.sanitizer
    if me == root_rank:
        for r in range(len(team)):
            if r == root_rank:
                continue
            yield from upc.memput(team.thread_at(r), nbytes)
            if sanitizer.enabled:
                sanitizer.release(("flag", tag, r), upc.MYTHREAD)
            upc.program.flag((tag, r)).succeed()
    else:
        flag = upc.program.flag((tag, me))
        yield flag
        if sanitizer.enabled:
            sanitizer.acquire(("flag", tag, me), upc.MYTHREAD)
        upc.program._flags.pop((tag, me), None)
