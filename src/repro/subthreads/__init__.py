"""Hierarchical sub-threads under UPC threads (Chapter 4).

Each SPMD UPC thread may act as a *master* that forks light-weight
shared-memory sub-threads in a master–worker pattern — the thesis's
second approach to hierarchical parallelism.  One fork/join engine,
:class:`~repro.subthreads.base.ForkJoinRuntime`, runs all three of the
thesis's hybrids; each is a :class:`~repro.subthreads.base.SubthreadParams`
value of fork, join and dispatch overheads, work inflation and schedule:

* :data:`OPENMP` — UPC×OpenMP: static scheduling, the cheapest fork path
  (best performer in Fig 4.6);
* :data:`POOL` — UPC×thread-pool, the in-house prototype: a central task
  queue, dynamic scheduling;
* :data:`CILK` — UPC×Cilk++: dynamic scheduling with the highest
  per-region overhead and a small work inflation (the consistent Cilk++
  lag the thesis reports).

Sub-threads inherit the parent process's affinity mask, access the global
address space subject to a thread-safety level
(:class:`~repro.subthreads.interop.ThreadSafety`), and do **not** poll the
communication runtime — the property that keeps hybrid jobs off the NIC
and behind Chapter 4's scaling results.
"""

from repro.subthreads.interop import SubthreadContext, ThreadSafety
from repro.subthreads.base import (
    CILK,
    OPENMP,
    POOL,
    ForkJoinRuntime,
    SubthreadParams,
    static_chunks,
)

__all__ = [
    "CILK",
    "ForkJoinRuntime",
    "OPENMP",
    "POOL",
    "SubthreadContext",
    "SubthreadParams",
    "ThreadSafety",
    "static_chunks",
]
