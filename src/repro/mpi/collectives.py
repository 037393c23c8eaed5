"""Tuned MPI collectives (the library algorithms OpenMPI ships).

* :func:`alltoall` — pairwise exchange: ``P-1`` synchronized rounds of
  ``MPI_Sendrecv`` with partner ``(rank ± i) % P``.  Each rank keeps one
  bidirectional flow per round, which is why "the optimized collective
  functionalities used in the MPI-Fortran implementation" outperform
  hand-rolled blocking puts in Fig 4.5 — blocking puts serialize the wire
  latency per peer.
* :func:`allreduce` — recursive doubling (power-of-two ranks; a fold-in
  pre-phase handles the rest).
* :func:`bcast` — binomial tree.

All are SPMD generators: every rank calls with its own context.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.errors import MpiError
from repro.gasnet.team import binomial_tree
from repro.mpi.comm import MpiRank

__all__ = ["alltoall", "allreduce", "bcast"]


def alltoall(rank: MpiRank, nbytes_per_pair: float, tag_base: int = 1000) -> Generator:
    """Pairwise-exchange all-to-all over COMM_WORLD."""
    me, size = rank.rank, rank.size
    yield rank.mem.compute(rank.pu, rank.program.params.collective_op_overhead)
    for i in range(1, size):
        dst = (me + i) % size
        src = (me - i) % size
        yield from rank.sendrecv(dst, nbytes_per_pair, src, tag=tag_base + i)
    yield from rank.barrier()


def allreduce(
    rank: MpiRank,
    value: Any,
    op: Callable[[Any, Any], Any],
    nbytes: float = 8.0,
    tag_base: int = 2000,
) -> Generator:
    """Recursive-doubling allreduce; returns the reduced value everywhere.

    Values travel through program flags (the data plane); timing comes
    from the paired sendrecv at each doubling distance.
    """
    me, size = rank.rank, rank.size
    prog = rank.program

    # Fold non-power-of-two ranks into the largest power-of-two group.
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    acc = value
    seq = prog.world.op_tag(me)

    if me < 2 * rem and me % 2 == 1:
        # odd ranks in the remainder send their value down and wait
        yield from rank.send(me - 1, nbytes, tag=tag_base)
        prog.flag((seq, "fold", me)).succeed(acc)
        yield from rank.recv(me - 1, tag=tag_base + pof2)
        result = yield prog.flag((seq, "result", me))
        prog.drop_flag((seq, "result", me))
        return result
    if me < 2 * rem:
        other = yield from _recv_value(rank, me + 1, tag_base, (seq, "fold", me + 1))
        acc = op(acc, other)

    new_rank = me // 2 if me < 2 * rem else me - rem
    mask = 1
    while mask < pof2:
        partner_new = new_rank ^ mask
        partner = partner_new * 2 if partner_new < rem else partner_new + rem
        prog.flag((seq, "x", mask, me)).succeed(acc)
        sr = rank.sendrecv(partner, nbytes, partner, tag=tag_base + mask)
        yield from sr
        other = yield prog.flag((seq, "x", mask, partner))
        prog.drop_flag((seq, "x", mask, partner))
        acc = op(acc, other)
        mask *= 2

    if me < 2 * rem:
        yield from rank.send(me + 1, nbytes, tag=tag_base + pof2)
        prog.flag((seq, "result", me + 1)).succeed(acc)
    return acc


def _recv_value(rank: MpiRank, src: int, tag: int, flag_key) -> Generator:
    yield from rank.recv(src, tag=tag)
    value = yield rank.program.flag(flag_key)
    rank.program.drop_flag(flag_key)
    return value


def bcast(
    rank: MpiRank,
    nbytes: float,
    root: int = 0,
    value: Any = None,
    tag: int = 3000,
) -> Generator:
    """Binomial-tree broadcast; returns the value everywhere."""
    me, size = rank.rank, rank.size
    if not 0 <= root < size:
        raise MpiError(f"bcast root {root} out of range")
    prog = rank.program
    seq = prog.world.op_tag(me)
    rel = (me - root) % size
    parent, children = binomial_tree(rel, size)
    if parent is not None:
        value = yield from _recv_value(
            rank, (parent + root) % size, tag, (seq, "v", rel)
        )
    for child in reversed(children):
        # the value is posted before the send, so it is there when the
        # child's receive completes
        prog.flag((seq, "v", child)).succeed(value)
        yield from rank.send((child + root) % size, nbytes, tag=tag)
    return value
