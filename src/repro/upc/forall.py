"""``upc_forall``: affinity-driven work distribution.

``upc_forall(init; cond; incr; affinity)`` runs each iteration on the
thread matching the affinity expression.  Here it is an index iterator —
cost-free, like the C construct's loop-control — used as::

    for i in forall.indices(upc, 0, n, affinity=lambda i: A.owner(i)):
        ...
"""

from __future__ import annotations

from typing import Callable, Iterator, Union

from repro.errors import UpcError
from repro.upc.shared import SharedArray

__all__ = ["indices"]

AffinitySpec = Union[None, int, SharedArray, Callable[[int], int]]


def indices(
    upc,
    start: int,
    stop: int,
    step: int = 1,
    affinity: AffinitySpec = None,
) -> Iterator[int]:
    """Iterate the loop indices this thread owns.

    ``affinity`` may be:

    * ``None`` — round-robin by index (``i % THREADS == MYTHREAD``), the
      idiomatic ``upc_forall(...; i)``;
    * an ``int`` — that thread runs *every* iteration (``continue``-style
      affinity to a fixed thread);
    * a :class:`SharedArray` — iterations follow element affinity
      (``upc_forall(...; &A[i])``);
    * a callable ``i -> thread``.
    """
    if step == 0:
        raise UpcError("step must be nonzero")
    me, nthreads = upc.MYTHREAD, upc.THREADS
    if isinstance(affinity, SharedArray):
        owner = affinity.owner
    elif isinstance(affinity, int):
        if not 0 <= affinity < nthreads:
            raise UpcError(f"affinity thread {affinity} out of range")
        owner = None
    elif callable(affinity):
        owner = affinity
    elif affinity is None:
        owner = None
    else:
        raise UpcError(f"bad affinity spec {affinity!r}")

    for i in range(start, stop, step):
        if affinity is None:
            if i % nthreads == me:
                yield i
        elif isinstance(affinity, int):
            if affinity == me:
                yield i
        else:
            if owner(i) == me:
                yield i
