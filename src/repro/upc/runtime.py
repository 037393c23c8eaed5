"""UPC program launch and the per-thread execution context.

:class:`UpcProgram` is the UPC launcher on the shared SPMD job base
(:class:`~repro.gasnet.job.SpmdJob`, which builds the simulated stack
and runs an SPMD generator function on every UPC thread): it places
processes and threads, and adds fault injection, locks and the runtime
collectives.  :class:`Upc` is the per-thread context those functions
receive: it carries ``MYTHREAD`` / ``THREADS`` and every runtime service
(barriers, memory ops, collectives, locks, thread groups, cost
charging).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Generator, List, NoReturn, Optional

from repro.errors import UpcError
from repro.gasnet import BackendConfig, Handle, ThreadLocation
from repro.gasnet.job import LocalWork, ProgramResult, SpmdJob
from repro.machine.affinity import (
    AffinityMask,
    bind_compact,
    bind_round_robin_sockets,
    bind_unbound,
    subthread_pus,
)
from repro.machine.presets import PlatformPreset
from repro.obs import names
from repro.sim import SimBarrier, SplittableRNG

__all__ = ["UpcProgram", "Upc", "ProgramResult"]

#: Base software cost of one upc_barrier call per thread.
BARRIER_BASE_COST = 0.5e-6
#: Additional per-round cost of the inter-node dissemination phase.
BARRIER_NETWORK_ROUND = 3.0e-6

#: ``UpcProgram(binding=...)`` names and the binder each maps to.
BINDERS = {
    "compact": bind_compact,
    "sockets": bind_round_robin_sockets,
    "unbound": bind_unbound,
}


class UpcProgram(SpmdJob):
    """One simulated UPC job: machine + runtime + SPMD launch.

    Parameters
    ----------
    preset:
        A :class:`~repro.machine.presets.PlatformPreset` (defaults to a
        small generic SMP cluster).
    threads:
        THREADS — total UPC thread count.
    threads_per_node:
        Node packing (defaults to an even spread over the preset's nodes).
    threads_per_process:
        1 reproduces the processes backend; >1 groups threads into
        multi-threaded processes (the pthreads backend) sharing one
        network connection.
    backend:
        GASNet :class:`~repro.gasnet.BackendConfig`; inferred from
        ``threads_per_process`` when omitted.
    conduit:
        Network conduit name; defaults to the preset's.
    binding:
        ``"compact"`` (default), ``"sockets"`` or ``"unbound"``.
    faults:
        A :class:`~repro.faults.FaultPlan` (or ``--faults`` spec string)
        injected into this run.  ``None`` or an empty plan keeps the
        seed-identical reliable path.
    retry:
        GASNet :class:`~repro.gasnet.RetryPolicy` override; only
        meaningful with ``faults``.
    """

    error = UpcError
    process_prefix = "upc"
    rank_noun = "threads"
    world_name = "world"
    sanitized = True

    def __init__(
        self,
        preset: Optional[PlatformPreset] = None,
        threads: int = 4,
        threads_per_node: Optional[int] = None,
        threads_per_process: int = 1,
        backend: Optional[BackendConfig] = None,
        conduit: Optional[str] = None,
        binding: str = "compact",
        seed: int = 0,
        faults=None,
        retry=None,
    ):
        if threads < 1:
            raise UpcError(f"threads must be >= 1, got {threads}")
        if threads_per_process < 1:
            raise UpcError("threads_per_process must be >= 1")
        if threads % threads_per_process:
            raise UpcError(
                f"threads ({threads}) not divisible by threads_per_process "
                f"({threads_per_process})"
            )
        self.threads = threads
        self.threads_per_process = threads_per_process
        if backend is None:
            backend = BackendConfig(
                mode="processes" if threads_per_process == 1 else "pthreads",
                pshm=True,
            )
        self.backend = backend
        self.binding = binding
        self.seed = seed
        super().__init__(preset, threads, threads_per_node, conduit,
                         label=f"upc {backend.label} x{threads}")

        from repro.faults import FaultInjector, FaultPlan

        if isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        if faults is not None and faults.is_empty:
            faults = None  # empty plan == no faults: stay seed-identical
        self.fault_plan: Optional[FaultPlan] = faults
        self.faults: Optional[FaultInjector] = None
        if faults is not None:
            self.faults = FaultInjector(self.sim, faults, stats=self.stats)
            self.gasnet.attach_faults(self.faults, retry=retry)
            self.faults.on_crash(self._on_node_crash)

        #: Per thread, the world-barrier generation its last ``upc_notify``
        #: joined (None once waited).
        self.pending_notify: List[Optional[int]] = [None] * threads
        #: Runtime collectives (``upc_all_alloc``, team splits): one
        #: generation of this barrier per call, with its ``collective_slot``
        #: ``{generation, tag, payloads, result}``.
        self.collectives = SimBarrier(self.sim, threads, name="collective")
        self.collective_slot: Optional[dict] = None
        self._locks: Dict[object, Any] = {}
        self._shared_heap: List[Any] = []

    def _new_context(self, rank: int) -> "Upc":
        return Upc(self, rank)

    # -- placement -------------------------------------------------------

    def _place(self, per_node: int) -> List[ThreadLocation]:
        """Place processes and threads; also fills ``self.masks`` (the
        per-UPC-thread affinity mask that sub-threads inherit).

        The binding policy places whole OS processes (see
        :mod:`repro.machine.affinity`); a process's threads then spread
        over its mask, cores first.
        """
        tpp = self.threads_per_process
        if per_node % tpp:
            raise UpcError(
                f"threads_per_node ({per_node}) not divisible by "
                f"threads_per_process ({tpp})"
            )
        self.threads_per_node = per_node
        try:
            bind = BINDERS[self.binding]
        except KeyError:
            raise UpcError(f"unknown binding {self.binding!r}") from None
        topo = self.topo
        procs_per_node = per_node // tpp
        proc_masks = bind(topo, self.threads // tpp, procs_per_node)
        locations: List[ThreadLocation] = []
        self.masks: List[AffinityMask] = []
        for p, mask in enumerate(proc_masks):
            node = topo.pu(mask.primary).node_index
            ordered = subthread_pus(topo, mask, len(mask.pus))
            if self.binding == "unbound":
                # distinct start PUs for co-resident unbound processes
                local_proc = p % procs_per_node
                start = (local_proc * tpp) % len(ordered)
                ordered = ordered[start:] + ordered[:start]
            for i in range(tpp):
                locations.append(ThreadLocation(
                    p * tpp + i, node, ordered[i % len(ordered)], process_id=p
                ))
                self.masks.append(mask)
        return locations

    # -- fault handling ----------------------------------------------------

    def dead_threads(self) -> set:
        """UPC thread ids living on crashed nodes (empty without faults)."""
        if self.faults is None:
            return set()
        return {
            loc.thread_id
            for loc in self.gasnet.locations
            if loc.node in self.faults.dead_nodes
        }

    def _on_node_crash(self, crash) -> None:
        dead = [
            loc.thread_id
            for loc in self.gasnet.locations
            if loc.node == crash.node
        ]
        if self._thread_procs is not None:
            for t in dead:
                proc = self._thread_procs[t]
                if not proc.done:
                    proc.kill()
                    self.stats.count(names.FAULTS_THREADS_KILLED)
        # Lock recovery: break locks whose holder died so survivors
        # queued at the home are granted instead of waiting forever.
        dead_set = set(dead)
        for lock in self._locks.values():
            if lock.break_dead_holder(dead_set):
                self.stats.count(names.FAULTS_LOCKS_RECOVERED)
        # Barrier recovery: the world barrier (upc_barrier and the
        # upc_notify/upc_wait pair alike) stops counting the dead,
        # releasing survivors blocked there.
        # (Live threads < 1 means the whole job is gone; nothing to do.)
        if self.threads > len(self.dead_threads()):
            for t in dead:
                if self.world.drop_dead(t):
                    self.stats.count(names.FAULTS_BARRIER_SEATS_DROPPED)
        sanitizer = self.sim.sanitizer
        if sanitizer.enabled:
            # Dead threads are excused from collective-matching checks.
            for t in dead:
                sanitizer.mark_dead(t)

    def context(self, thread: int) -> "Upc":
        return self._contexts[thread]

    # -- services shared by contexts ----------------------------------------

    def barrier_cost(self) -> float:
        nodes_in_use = max(1, -(-self.threads // self.threads_per_node))
        rounds = math.ceil(math.log2(nodes_in_use)) if nodes_in_use > 1 else 0
        return BARRIER_BASE_COST + rounds * BARRIER_NETWORK_ROUND

    def get_lock(self, key: object, affinity_thread: int = 0):
        from repro.upc.sync import UpcLock

        lock = self._locks.get(key)
        if lock is None:
            lock = UpcLock(self, key=key, affinity_thread=affinity_thread)
            self._locks[key] = lock
        return lock


class Upc(LocalWork):
    """Per-thread UPC context — what a UPC program sees.

    All blocking operations are simulated generators used with
    ``yield from``; non-blocking ops return handles.
    """

    def __init__(self, program: UpcProgram, mythread: int):
        self.program = program
        self.MYTHREAD = mythread
        self.THREADS = program.threads
        self.sim = program.sim
        self.stats = program.stats
        self.gasnet = program.gasnet
        self.mem = program.mem
        self.topo = program.topo
        self.rng = SplittableRNG(seed=program.seed).child(mythread)
        self.location = program.gasnet.location(mythread)
        self.pu = self.location.pu
        self._home = mythread

    # -- identity / queries ------------------------------------------------

    @property
    def my_node(self) -> int:
        return self.location.node

    def wtime(self) -> float:
        return self.sim.now

    def peers_sharing_memory(self) -> tuple:
        """Castability query: threads whose memory I can read directly."""
        return self.gasnet.supernode_peers(self.MYTHREAD)

    # -- synchronization ------------------------------------------------------

    def barrier(self) -> Generator:
        """``upc_barrier``: software cost + world-team arrival.

        The same world barrier as ``upc_notify`` + ``upc_wait``, so the
        two forms may be mixed across threads.
        """
        if self.program.pending_notify[self.MYTHREAD] is not None:
            # a second arrival in one generation would release it early
            self._split_phase_misuse("upc_barrier between upc_notify and upc_wait")
        yield self.mem.compute(self.pu, self.program.barrier_cost())
        yield from self.program.world.barrier(self.MYTHREAD)

    def barrier_notify(self) -> Generator:
        """``upc_notify``: arrive at the world barrier, return immediately."""
        yield self.mem.compute(self.pu, BARRIER_BASE_COST)
        program, me = self.program, self.MYTHREAD
        if program.pending_notify[me] is not None:
            self._split_phase_misuse("upc_notify before matching upc_wait")
        program.pending_notify[me] = program.world.notify(me)

    def barrier_wait(self) -> Generator:
        """``upc_wait``: block until every thread has notified this phase."""
        yield self.mem.compute(self.pu, self.program.barrier_cost())
        program, me = self.program, self.MYTHREAD
        generation = program.pending_notify[me]
        if generation is None:
            self._split_phase_misuse("upc_wait without upc_notify")
        program.pending_notify[me] = None
        yield from program.world.wait(me, generation)

    def _split_phase_misuse(self, what: str) -> NoReturn:
        """UPC requires notify and wait to alternate strictly."""
        sanitizer = self.sim.sanitizer
        if sanitizer.enabled:
            sanitizer.record_collective_misuse(self.MYTHREAD, what)
        raise UpcError(f"thread {self.MYTHREAD}: {what}")

    def lock(self, key: object, affinity_thread: int = 0):
        """Get (creating on first use) the named global lock."""
        return self.program.get_lock(key, affinity_thread)

    # -- compute & memory cost charging (compute, compute_flops,
    # local_stream and stream_from come from LocalWork) ------------------------

    def charge_shared_accesses(self, accesses: int) -> Generator:
        """Shared-pointer translation cost for ``accesses`` dereferences."""
        yield self.mem.charge_translation(self.pu, accesses)

    # -- point-to-point memory ops ----------------------------------------------

    def memput(self, dst_thread: int, nbytes: float, privatized: bool = False) -> Generator:
        return self.gasnet.xfer(self.MYTHREAD, dst_thread, nbytes, "put", privatized)

    def memget(self, src_thread: int, nbytes: float, privatized: bool = False) -> Generator:
        return self.gasnet.xfer(self.MYTHREAD, src_thread, nbytes, "get", privatized)

    def memput_nb(self, dst_thread: int, nbytes: float, privatized: bool = False) -> Handle:
        return self.gasnet.xfer_nb(self.MYTHREAD, dst_thread, nbytes, "put", privatized)

    def memget_nb(self, src_thread: int, nbytes: float, privatized: bool = False) -> Handle:
        return self.gasnet.xfer_nb(self.MYTHREAD, src_thread, nbytes, "get", privatized)

    def can_cast(self, other_thread: int) -> bool:
        """True when ``bupc_cast`` of a pointer into other's memory works."""
        return self.gasnet.can_bypass(self.MYTHREAD, other_thread)

    # -- collective runtime services ----------------------------------------------

    def collective(self, tag: str, payload: Any, combine: Callable[[dict], Any]) -> Generator:
        """Low-level barrier-with-data (used by allocs and group splits).

        Every thread adds its payload to the current generation of the
        collective barrier and waits for its release; the first thread
        released runs ``combine(payloads_by_thread)`` once and every
        thread returns that result.  All threads must pass the same
        ``tag``.
        """
        program, me = self.program, self.MYTHREAD
        sanitizer = self.sim.sanitizer
        barrier = program.collectives
        slot = program.collective_slot
        if slot is None or slot["generation"] != barrier.generation:
            slot = program.collective_slot = {
                "generation": barrier.generation, "tag": tag, "payloads": {},
            }
        elif slot["tag"] != tag:
            what = f"collective {tag!r} while others are in {slot['tag']!r}"
            if sanitizer.enabled:
                sanitizer.record_collective_misuse(me, what)
            raise UpcError(f"thread {me}: {what}")
        if sanitizer.enabled:
            sanitizer.barrier_arrive(("collective", tag), me, range(self.THREADS))
        slot["payloads"][me] = payload
        yield barrier.wait(barrier.notify(me))
        if "result" not in slot:
            slot["result"] = combine(slot["payloads"])
        if sanitizer.enabled:
            sanitizer.barrier_pass(("collective", tag), me)
        return slot["result"]

    def all_alloc(self, nelems: int, dtype=None, blocksize: Optional[int] = None,
                  backing: str = "real"):
        """``upc_all_alloc``: collectively create a shared array (generator)."""
        from repro.upc.shared import SharedArray

        tag = f"all_alloc:{len(self.program._shared_heap)}:gen"

        def combine(payloads: dict):
            spec = payloads[min(payloads)]
            arr = SharedArray(
                self.program, nelems=spec["nelems"], dtype=spec["dtype"],
                blocksize=spec["blocksize"], backing=spec["backing"],
            )
            self.program._shared_heap.append(arr)
            return arr

        spec = {
            "nelems": nelems, "dtype": dtype,
            "blocksize": blocksize, "backing": backing,
        }
        arr = yield from self.collective(tag, spec, combine)
        return arr
