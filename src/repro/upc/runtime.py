"""UPC program launch and the per-thread execution context.

:class:`UpcProgram` assembles the whole simulated stack for one job —
topology, memory system, fabric, GASNet runtime, thread placement — and
runs an SPMD generator function on every UPC thread.  :class:`Upc` is the
per-thread context those functions receive: it carries ``MYTHREAD`` /
``THREADS`` and every runtime service (barriers, memory ops, collectives,
locks, thread groups, cost charging).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro.errors import UpcError
from repro.gasnet import BackendConfig, GasnetRuntime, Team, ThreadLocation, extended
from repro.gasnet.extended import Handle
from repro.machine.affinity import (
    AffinityMask,
    assign_ranks_to_nodes,
    bind_compact,
    bind_round_robin_sockets,
    bind_unbound,
    subthread_pus,
)
from repro.machine.memory import MemorySystem
from repro.machine.presets import PlatformPreset, generic_smp
from repro.machine.topology import MachineTopology
from repro.network.conduits import conduit as lookup_conduit
from repro.obs import names
from repro.obs.session import arm
from repro.obs.tracer import thread_track
from repro.sim import Event, SimBarrier, Simulator, SplittableRNG, StatsCollector

__all__ = ["UpcProgram", "Upc", "ProgramResult", "CollectiveGate"]

#: Base software cost of one upc_barrier call per thread.
BARRIER_BASE_COST = 0.5e-6
#: Additional per-round cost of the inter-node dissemination phase.
BARRIER_NETWORK_ROUND = 3.0e-6


class CollectiveGate:
    """A barrier-with-data: every thread submits, one function combines.

    Used for operations UPC performs collectively at runtime level
    (``upc_all_alloc``, team splits): each thread calls :meth:`submit`
    with its payload; once all ``parties`` payloads of one generation are
    in, ``combine(payloads_by_thread)`` runs once and every submitter's
    event completes with the combined result.
    """

    def __init__(self, sim: Simulator, parties: int):
        self.sim = sim
        self.parties = parties
        self._pending: Dict[str, dict] = {}

    def submit(
        self, tag: str, thread: int, payload: Any, combine: Callable[[dict], Any]
    ) -> Event:
        slot = self._pending.get(tag)
        if slot is None:
            slot = {"payloads": {}, "events": {}, "combine": combine}
            self._pending[tag] = slot
        if thread in slot["payloads"]:
            sanitizer = self.sim.sanitizer
            if sanitizer.enabled:
                sanitizer.record_collective_misuse(
                    thread,
                    f"submitted twice to collective {tag!r} (missing "
                    "barrier between collectives?)",
                )
            raise UpcError(
                f"thread {thread} submitted twice to collective {tag!r} "
                "(missing barrier between collectives?)"
            )
        ev = Event(self.sim)
        slot["payloads"][thread] = payload
        slot["events"][thread] = ev
        if len(slot["payloads"]) == self.parties:
            del self._pending[tag]
            result = slot["combine"](slot["payloads"])
            for t_ev in slot["events"].values():
                t_ev.succeed(result)
        return ev


@dataclass
class ProgramResult:
    """Outcome of one simulated UPC program run."""

    elapsed: float                 #: simulated wall-clock of the whole job
    returns: List[Any]             #: per-thread return values
    stats: StatsCollector
    sim: Simulator
    #: sanitizer findings (empty unless run under a sanitizing session)
    findings: List[Any] = field(default_factory=list)

    def timer_max(self, name: str) -> float:
        return self.stats.timer_max(name)


class UpcProgram:
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
            raise UpcError(f"threads_per_process must be >= 1")
        if threads % threads_per_process:
            raise UpcError(
                f"threads ({threads}) not divisible by threads_per_process "
                f"({threads_per_process})"
            )
        self.preset = preset or generic_smp(nodes=2)
        self.threads = threads
        self.threads_per_process = threads_per_process
        if backend is None:
            backend = BackendConfig(
                mode="processes" if threads_per_process == 1 else "pthreads",
                pshm=True,
            )
        self.backend = backend
        self.net_params = lookup_conduit(conduit or self.preset.default_conduit)
        self.binding = binding
        self.seed = seed

        self.sim = Simulator()
        self.topo: MachineTopology = self.preset.topology()
        self.stats = StatsCollector(self.sim)
        # Arm the instrumentation sinks (a no-op outside an instrument()
        # session) before any stack layer is built, so fabric and
        # runtime construction can declare their tracks.
        arm(self.sim, f"upc {self.backend.label} x{threads}", threads,
            program=self)
        self.mem = MemorySystem(self.sim, self.topo, self.preset.memory)

        if threads_per_node is None:
            threads_per_node = -(-threads // self.topo.total_nodes)
        if threads_per_node % threads_per_process:
            raise UpcError(
                f"threads_per_node ({threads_per_node}) not divisible by "
                f"threads_per_process ({threads_per_process})"
            )
        self.threads_per_node = threads_per_node
        locations = self._place_threads()
        self.gasnet = GasnetRuntime(
            self.sim, self.topo, self.mem, self.net_params,
            locations, backend=self.backend, stats=self.stats,
        )
        from repro.faults import FaultInjector, FaultPlan

        if isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        if faults is not None and faults.is_empty:
            faults = None  # empty plan == no faults: stay seed-identical
        self.fault_plan: Optional[FaultPlan] = faults
        self.faults: Optional[FaultInjector] = None
        self._thread_procs: Optional[List] = None
        if faults is not None:
            self.faults = FaultInjector(self.sim, faults, stats=self.stats)
            self.gasnet.attach_faults(self.faults, retry=retry)
            self.faults.on_crash(self._on_node_crash)

        self.world = Team(self.sim, range(threads), name="world")
        from repro.upc.sync import SplitPhaseBarrier

        self.split_barrier = SplitPhaseBarrier(self.sim, threads, name="upc_notify")
        self.gate = CollectiveGate(self.sim, threads)
        self._locks: Dict[object, Any] = {}
        self._shared_heap: List[Any] = []
        self._flags: Dict[object, Event] = {}
        self._contexts = [Upc(self, t) for t in range(threads)]

    # -- placement -------------------------------------------------------

    def _place_threads(self) -> List[ThreadLocation]:
        """Place processes and threads; also fills ``self.masks`` (the
        per-UPC-thread affinity mask that sub-threads inherit)."""
        topo, threads = self.topo, self.threads
        tpn, tpp = self.threads_per_node, self.threads_per_process
        node_of = assign_ranks_to_nodes(topo, threads, per_node=tpn)
        nprocs = threads // tpp
        procs_per_node = tpn // tpp
        proc_masks = self._place_processes(nprocs, procs_per_node)
        locations: List[ThreadLocation] = []
        self.masks: List[AffinityMask] = []
        per_node_proc: Dict[int, int] = {}
        for p in range(nprocs):
            mask = proc_masks[p]
            node = node_of[p * tpp]
            local_proc = per_node_proc.get(node, 0)
            per_node_proc[node] = local_proc + 1
            ordered = subthread_pus(topo, mask, len(mask.pus))
            if self.binding == "unbound":
                # distinct start PUs for co-resident unbound processes
                start = (local_proc * tpp) % len(ordered)
                ordered = ordered[start:] + ordered[:start]
            pus = [ordered[i % len(ordered)] for i in range(tpp)]
            for i, pu in enumerate(pus):
                t = p * tpp + i
                locations.append(ThreadLocation(t, node_of[t], pu, process_id=p))
                self.masks.append(mask)
        return locations

    def _place_processes(self, nprocs: int, procs_per_node: int) -> List[AffinityMask]:
        """One affinity mask per OS process, by binding policy.

        * ``compact`` — one core's PUs per process (cores first, SMT
          siblings on oversubscription), pure-UPC style.
        * ``sockets`` — numactl round-robin over sockets; processes
          sharing a socket partition its cores so their sub-threads never
          collide.
        * ``unbound`` — the whole node; first-touch then lands all of a
          process's memory on its (arbitrary) starting socket, the
          Table 4.1 anti-pattern.
        """
        topo = self.topo
        node_of = assign_ranks_to_nodes(topo, nprocs, per_node=procs_per_node)
        if self.binding == "compact":
            # one core's PU per process, distributing consecutive local
            # ranks round-robin over sockets — the thesis pins processes
            # "cyclically ... on independent ccNUMA nodes (CPU sockets)
            # using numactl by default" (§4.3.2)
            masks = []
            per_node_count: Dict[int, int] = {}
            nsock = topo.spec.node.sockets
            cps = topo.spec.node.cores_per_socket
            for p in range(nprocs):
                node = topo.nodes[node_of[p]]
                lr = per_node_count.get(node.index, 0)
                per_node_count[node.index] = lr + 1
                sock_slot = lr % nsock
                core_slot = (lr // nsock) % cps
                smt = lr // (nsock * cps)
                socket = topo.sockets[node.socket_indices[sock_slot]]
                core = topo.cores[socket.core_indices[core_slot]]
                if smt >= len(core.pu_indices):
                    raise UpcError(
                        f"node {node.index} oversubscribed: {lr + 1} processes "
                        f"for {len(node.pu_indices)} PUs"
                    )
                masks.append(AffinityMask((core.pu_indices[smt],)))
            return masks
        if self.binding == "unbound":
            masks = []
            per_node_count = {}
            for p in range(nprocs):
                node = topo.nodes[node_of[p]]
                lr = per_node_count.get(node.index, 0)
                per_node_count[node.index] = lr + 1
                # OS lands the process anywhere; model round-robin start PU
                # but allow migration over the whole node.
                pus = list(node.pu_indices)
                start = pus[lr % len(pus)]
                ordered = (start,) + tuple(pu for pu in pus if pu != start)
                masks.append(AffinityMask(ordered))
            return masks
        if self.binding != "sockets":
            raise UpcError(f"unknown binding {self.binding!r}")

        # sockets: round-robin, partitioning each socket's cores among the
        # processes that land on it.
        sockets_per_node = topo.spec.node.sockets
        by_socket: Dict[int, list] = {}
        sock_of_proc: List[int] = []
        per_node_count = {}
        for p in range(nprocs):
            node = topo.nodes[node_of[p]]
            lr = per_node_count.get(node.index, 0)
            per_node_count[node.index] = lr + 1
            sock = node.socket_indices[lr % sockets_per_node]
            sock_of_proc.append(sock)
            by_socket.setdefault(sock, []).append(p)
        masks: List[Optional[AffinityMask]] = [None] * nprocs
        for sock, procs in by_socket.items():
            socket = topo.sockets[sock]
            cores = list(socket.core_indices)
            k = len(procs)
            if k <= len(cores):
                # contiguous chunks of cores per process
                chunk = len(cores) // k
                extra = len(cores) % k
                pos = 0
                for i, p in enumerate(procs):
                    take = chunk + (1 if i < extra else 0)
                    my_cores = cores[pos:pos + take]
                    pos += take
                    pus = tuple(
                        pu for c in my_cores for pu in topo.cores[c].pu_indices
                    )
                    masks[p] = AffinityMask(pus)
            else:
                # more processes than cores: round-robin PUs
                pus = list(socket.pu_indices)
                for i, p in enumerate(procs):
                    masks[p] = AffinityMask((pus[i % len(pus)],))
        return [m for m in masks]  # type: ignore[return-value]

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
        # Barrier recovery: the world barrier and the split-phase pair
        # stop counting the dead, releasing survivors blocked there.
        # (Live threads < 1 means the whole job is gone; nothing to do.)
        alive = self.threads - len(self.dead_threads())
        for t in dead:
            if alive >= 1 and self.world.drop_dead(t):
                self.stats.count(names.FAULTS_BARRIER_SEATS_DROPPED)
            self.split_barrier.mark_dead(t)
        sanitizer = self.sim.sanitizer
        if sanitizer.enabled:
            # Dead threads are excused from collective-matching checks.
            for t in dead:
                sanitizer.mark_dead(t)

    # -- execution ---------------------------------------------------------

    def run(self, main: Callable, *args: Any, **kwargs: Any) -> ProgramResult:
        """Run ``main(upc, *args, **kwargs)`` on every thread to completion."""
        procs = []
        for t in range(self.threads):
            gen = main(self._contexts[t], *args, **kwargs)
            procs.append(self.sim.spawn(gen, name=f"upc{t}"))
        self._thread_procs = procs
        self.sim.run()
        if self.sim.tracer.enabled:
            # Close still-open spans (transfers cut short by kills) so the
            # trace is complete even when the checks below raise.
            self.sim.tracer.finalize(self.sim.now)
        sanitizer = self.sim.sanitizer
        if sanitizer.enabled:
            # End-of-run matching checks must run before the deadlock /
            # failure raises below: the findings usually explain them.
            sanitizer.finalize()
        self.sim.raise_failures()
        unfinished = [p.name for p in procs if not p.done]
        if unfinished:
            stalled = [p.name for p in self.sim.stalled_processes()]
            raise UpcError(
                f"deadlock: threads never finished: {unfinished[:8]} "
                f"({len(unfinished)} total); stalled processes: "
                f"{stalled[:12]} ({len(stalled)} total)"
            )
        leaked = self.stats.open_timers()
        if leaked:
            raise UpcError(
                "phase timers still open at end of run — their elapsed "
                "time was never recorded (a thread died mid-phase?): "
                f"{leaked!r}"
            )
        return ProgramResult(
            elapsed=self.sim.now,
            returns=[p.result for p in procs],
            stats=self.stats,
            sim=self.sim,
            findings=list(sanitizer.findings) if sanitizer.enabled else [],
        )

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

    def flag(self, key: object) -> Event:
        """One-shot point-to-point flag (collectives' pairwise rendezvous).

        Both the signaller and the waiter may create the flag; keys must
        be unique per use (collectives embed a per-team op counter).
        """
        ev = self._flags.get(key)
        if ev is None:
            ev = self._flags[key] = Event(self.sim)
        return ev


class Upc:
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

    # -- identity / queries ------------------------------------------------

    @property
    def my_socket(self) -> int:
        return self.gasnet.segment_socket(self.MYTHREAD)

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
        """``upc_barrier``: software cost + world-team arrival."""
        yield self.mem.compute(self.pu, self.program.barrier_cost())
        yield from self.program.world.barrier(self.MYTHREAD)

    def barrier_notify(self) -> Generator:
        """``upc_notify``: signal arrival, return immediately."""
        yield self.mem.compute(self.pu, BARRIER_BASE_COST)
        self.program.split_barrier.notify(self.MYTHREAD)

    def barrier_wait(self) -> Generator:
        """``upc_wait``: block until every thread has notified this phase."""
        yield self.mem.compute(self.pu, self.program.barrier_cost())
        tracer = self.sim.tracer
        if not tracer.enabled:
            yield self.program.split_barrier.wait(self.MYTHREAD)
            sanitizer = self.sim.sanitizer
            if sanitizer.enabled:
                sanitizer.wait_join(self.MYTHREAD)
            return
        span = tracer.begin(
            thread_track(self.MYTHREAD), "upc_wait", names.CAT_BARRIER
        )
        try:
            yield self.program.split_barrier.wait(self.MYTHREAD)
        finally:
            tracer.end(
                span, args={"releaser": self.program.split_barrier.last_releaser}
            )
        sanitizer = self.sim.sanitizer
        if sanitizer.enabled:
            sanitizer.wait_join(self.MYTHREAD)

    def lock(self, key: object, affinity_thread: int = 0):
        """Get (creating on first use) the named global lock."""
        return self.program.get_lock(key, affinity_thread)

    # -- compute & memory cost charging ---------------------------------------

    def compute(self, seconds: float) -> Generator:
        """Execute ``seconds`` of single-thread CPU work."""
        yield self.mem.compute(self.pu, seconds)

    def compute_flops(self, flops: float, efficiency: float = 0.25) -> Generator:
        """Execute a flop count at a sustained fraction of core peak."""
        rate = self.mem.params.core_flops * efficiency
        yield self.mem.compute(self.pu, flops / rate)

    def local_stream(self, bytes_read: float, bytes_written: float) -> Generator:
        """Stream traffic against this thread's own segment."""
        yield from self.mem.stream(self.pu, bytes_read, bytes_written, self.my_socket)

    def stream_from(
        self, owner_thread: int, bytes_read: float, bytes_written: float
    ) -> Generator:
        """Stream traffic against ``owner_thread``'s segment (must share a node)."""
        home = self.gasnet.segment_socket(owner_thread)
        yield from self.mem.stream(self.pu, bytes_read, bytes_written, home)

    def charge_shared_accesses(self, accesses: int) -> Generator:
        """Shared-pointer translation cost for ``accesses`` dereferences."""
        yield self.mem.charge_translation(self.pu, accesses)

    # -- point-to-point memory ops ----------------------------------------------

    def memput(self, dst_thread: int, nbytes: float, privatized: bool = False) -> Generator:
        yield from extended.put(self.gasnet, self.MYTHREAD, dst_thread, nbytes, privatized)

    def memget(self, src_thread: int, nbytes: float, privatized: bool = False) -> Generator:
        yield from extended.get(self.gasnet, self.MYTHREAD, src_thread, nbytes, privatized)

    def memput_nb(self, dst_thread: int, nbytes: float, privatized: bool = False) -> Handle:
        return extended.put_nb(self.gasnet, self.MYTHREAD, dst_thread, nbytes, privatized)

    def memget_nb(self, src_thread: int, nbytes: float, privatized: bool = False) -> Handle:
        return extended.get_nb(self.gasnet, self.MYTHREAD, src_thread, nbytes, privatized)

    def can_cast(self, other_thread: int) -> bool:
        """True when ``bupc_cast`` of a pointer into other's memory works."""
        return self.gasnet.can_bypass(self.MYTHREAD, other_thread)

    # -- collective runtime services ----------------------------------------------

    def collective(self, tag: str, payload: Any, combine: Callable[[dict], Any]) -> Generator:
        """Low-level barrier-with-data (used by allocs and group splits)."""
        sanitizer = self.sim.sanitizer
        if sanitizer.enabled:
            sanitizer.barrier_arrive(
                ("collective", tag), self.MYTHREAD, range(self.THREADS)
            )
        ev = self.program.gate.submit(tag, self.MYTHREAD, payload, combine)
        result = yield ev
        if sanitizer.enabled:
            sanitizer.barrier_pass(("collective", tag), self.MYTHREAD)
        return result

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
