"""Fork/join machinery and the three sub-thread runtime flavours.

A :class:`ForkJoinRuntime` is created per UPC thread (the master) and runs
*parallel regions*: the master pays a fork cost, ``count`` sub-thread
bodies execute on the PUs of the parent process's affinity mask, and the
master joins them all.  Scheduling is either ``static`` (body ``i`` runs
on sub-thread ``i`` — OpenMP's default worksharing) or ``dynamic`` (bodies
are chunked onto a task queue drained by the workers — the Cilk/thread-pool
style that load-balances irregular work at extra per-task cost).

The flavours differ only in those overheads and the schedule, so each is
one :class:`SubthreadParams` value: :data:`OPENMP`, :data:`CILK` and
:data:`POOL`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Sequence

from repro.errors import SubthreadError
from repro.machine.affinity import subthread_pus
from repro.sim import Resource, Store
from repro.subthreads.interop import SubthreadContext, ThreadSafety

__all__ = ["SubthreadParams", "OPENMP", "CILK", "POOL", "ForkJoinRuntime",
           "static_chunks"]


@dataclass(frozen=True)
class SubthreadParams:
    """Overhead profile of one sub-thread runtime flavour.

    * ``fork_cost`` / ``join_cost`` — master-side cost per parallel region.
    * ``per_task_cost`` — dispatch cost per sub-thread body (or per chunk
      under dynamic scheduling), charged on the executing core.
    * ``work_inflation`` — multiplier on sub-thread compute (runtime
      bookkeeping in the generated code; >1 for Cilk++'s consistent lag).
    * ``scheduling`` — ``"static"`` or ``"dynamic"``.
    """

    name: str
    fork_cost: float
    join_cost: float
    per_task_cost: float
    work_inflation: float = 1.0
    scheduling: str = "static"

    def __post_init__(self) -> None:
        if self.scheduling not in ("static", "dynamic"):
            raise SubthreadError(f"unknown scheduling {self.scheduling!r}")
        if self.work_inflation < 1.0:
            raise SubthreadError("work_inflation must be >= 1.0")


#: UPC×OpenMP: GCC's libgomp (OpenMP v2.5, the compiler of §4.3.3.2) parks
#: a pre-created team on a spin barrier, so a ``#pragma omp parallel``
#: region fans out in about a microsecond; static worksharing is the
#: default schedule.  The best-performing hybrid in Fig 4.6.
OPENMP = SubthreadParams(
    name="openmp",
    fork_cost=1.2e-6,
    join_cost=0.8e-6,
    per_task_cost=0.2e-6,
    work_inflation=1.0,
    scheduling="static",
)

#: UPC×Cilk++: §4.3.3.3 finds it the slowest hybrid, "up to 10% of
#: slowdown on FFTs and a consistent 0.2 seconds of lag", from higher
#: runtime overhead: dynamic scheduling, elevated fork/spawn costs and a
#: work inflation for cilk_for's frame bookkeeping.  Cilk++ cannot share a
#: source file with UPC (only ``extern "C"`` kernels are callable), so the
#: thesis uses it for local computational kernels only.
CILK = SubthreadParams(
    name="cilk",
    fork_cost=6.0e-6,
    join_cost=4.0e-6,
    per_task_cost=1.5e-6,
    work_inflation=1.08,
    scheduling="dynamic",
)

#: The in-house prototype thread pool (§4.2.2): "a central task queue
#: associated with a pool of threads", which balances supply and demand
#: for threads across tasks.  Dynamic scheduling through that queue, with
#: overheads between OpenMP's and Cilk++'s; second among the hybrids in
#: Fig 4.6.
POOL = SubthreadParams(
    name="pool",
    fork_cost=2.0e-6,
    join_cost=1.5e-6,
    per_task_cost=0.8e-6,
    work_inflation=1.01,
    scheduling="dynamic",
)


def static_chunks(total: int, parts: int, index: int) -> range:
    """The ``index``-th of ``parts`` near-equal contiguous ranges of ``total``."""
    if parts < 1 or not 0 <= index < parts:
        raise SubthreadError(f"bad chunking: total={total} parts={parts} i={index}")
    base, extra = divmod(total, parts)
    start = index * base + min(index, extra)
    size = base + (1 if index < extra else 0)
    return range(start, start + size)


class ForkJoinRuntime:
    """Sub-thread execution under one UPC master thread, with the
    overheads and schedule of ``params``."""

    def __init__(
        self,
        upc,
        num_threads: int,
        params: SubthreadParams,
        safety: ThreadSafety = ThreadSafety.FUNNELED,
    ):
        if num_threads < 1:
            raise SubthreadError(f"num_threads must be >= 1, got {num_threads}")
        self.upc = upc
        self.num_threads = num_threads
        self.params = params
        self.safety = safety
        mask = upc.program.masks[upc.MYTHREAD]
        self.pus = subthread_pus(upc.topo, mask, num_threads)
        # The master participates as sub-thread 0 on its own PU.
        self.pus[0] = upc.pu
        self._comm_mutex = Resource(upc.sim, 1, name=f"commlock.t{upc.MYTHREAD}")
        self.regions = 0

    def context(self, index: int) -> SubthreadContext:
        return SubthreadContext(
            self.upc,
            index=index,
            count=self.num_threads,
            pu=self.pus[index],
            safety=self.safety,
            comm_mutex=self._comm_mutex,
            work_inflation=self.params.work_inflation,
        )

    def parallel(self, body: Callable[[SubthreadContext], Generator]) -> Generator:
        """Simulated generator: run ``body(st)`` on every sub-thread, join.

        The master charges the fork cost, every sub-thread charges its
        dispatch cost, and the region ends when the slowest body finishes.
        """
        self.regions += 1
        p = self.params
        yield self.upc.mem.compute(self.upc.pu, p.fork_cost)
        procs = []
        for i in range(self.num_threads):
            st = self.context(i)
            procs.append(
                self.upc.sim.spawn(
                    self._run_body(st, body), name=f"sub{self.upc.MYTHREAD}.{i}"
                )
            )
        yield self.upc.sim.all_of(procs)
        yield self.upc.mem.compute(self.upc.pu, p.join_cost)

    def _run_body(self, st: SubthreadContext, body) -> Generator:
        yield self.upc.mem.compute(st.pu, self.params.per_task_cost)
        yield from body(st)

    def parallel_tasks(
        self, tasks: Sequence[Callable[[SubthreadContext], Generator]]
    ) -> Generator:
        """Simulated generator: run a task list over the sub-threads.

        Static scheduling assigns task ``j`` to sub-thread ``j % count``;
        dynamic scheduling drains a shared queue (first-free-worker), the
        behaviour of the thread pool's central task queue and of Cilk's
        steal-balanced loops.
        """
        if self.params.scheduling == "static":
            def body(st):
                for j in range(st.index, len(tasks), st.count):
                    yield from tasks[j](st)

            yield from self.parallel(body)
            return

        queue: Store = Store(self.upc.sim)
        for j in range(len(tasks)):
            queue.put(j)
        for _ in range(self.num_threads):
            queue.put(None)  # poison pills

        def worker(st):
            while True:
                yield self.upc.mem.compute(st.pu, self.params.per_task_cost)
                got = yield queue.get()
                if got is None:
                    return
                yield from tasks[got](st)

        yield from self.parallel(worker)

    def parallel_for(
        self,
        total: int,
        item_body: Callable[[SubthreadContext, range], Generator],
        chunks_per_thread: int = 1,
    ) -> Generator:
        """Simulated generator: worksharing loop over ``total`` items.

        ``item_body(st, index_range)`` processes a contiguous range.
        Static scheduling splits into one chunk per sub-thread; dynamic
        splits into ``chunks_per_thread * count`` chunks on the queue.
        """
        if self.params.scheduling == "static" and chunks_per_thread == 1:
            def body(st):
                yield from item_body(st, static_chunks(total, st.count, st.index))

            yield from self.parallel(body)
            return
        nchunks = max(1, chunks_per_thread) * self.num_threads
        nchunks = min(nchunks, max(total, 1))
        tasks = [
            (lambda r: (lambda st: item_body(st, r)))(
                static_chunks(total, nchunks, c)
            )
            for c in range(nchunks)
        ]
        yield from self.parallel_tasks(tasks)
