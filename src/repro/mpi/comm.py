"""Two-sided MPI point-to-point on the simulated fabric.

Protocol model (standard for the OpenMPI generation the thesis used):

* **Eager** (``nbytes <= eager_threshold``): the sender copies into a
  system buffer and returns once the message is injected; the receiver
  matches, waits for delivery, and pays an unpack copy.
* **Rendezvous** (large messages): the sender posts a ready-to-send and
  blocks until the receiver's clear-to-send arrives, then streams the
  data zero-copy.  The extra handshake round-trip is what moves the
  crossover in the D5 ablation of DESIGN.md.

Matching is FIFO per ``(source, tag)``, which is all the deterministic
SPMD benchmarks here require (no wildcards).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.errors import MpiError
from repro.gasnet import BackendConfig, GasnetRuntime, Team, ThreadLocation
from repro.machine.affinity import assign_ranks_to_nodes, subthread_pus
from repro.machine.memory import MemorySystem
from repro.machine.presets import PlatformPreset, generic_smp
from repro.network.conduits import conduit as lookup_conduit
from repro.obs import names
from repro.obs.session import arm
from repro.sim import Event, Simulator, StatsCollector, Store
from repro.upc.runtime import ProgramResult

__all__ = ["MpiParams", "MpiProgram", "MpiRank"]


@dataclass(frozen=True)
class MpiParams:
    """MPI software-layer calibration.

    ``match_overhead`` is the per-message tag-matching/progress cost on
    the receiver; ``collective_op_overhead`` is the per-round software
    cost inside library collectives (lower than hand-rolled loops — MPI's
    collectives are tuned, §4.3.3.3).
    """

    eager_threshold: int = 64 << 10
    match_overhead: float = 0.3e-6
    send_overhead: float = 0.4e-6
    collective_op_overhead: float = 0.2e-6


class _Message:
    __slots__ = ("src", "tag", "nbytes", "eager", "delivered", "cts")

    def __init__(self, sim: Simulator, src: int, tag: int, nbytes: float, eager: bool):
        self.src = src
        self.tag = tag
        self.nbytes = nbytes
        self.eager = eager
        self.delivered = Event(sim)   # data fully at the receiver
        self.cts = Event(sim)         # receiver's clear-to-send (rendezvous)


class MpiProgram:
    """One simulated MPI job (mirrors :class:`~repro.upc.UpcProgram`)."""

    def __init__(
        self,
        preset: Optional[PlatformPreset] = None,
        ranks: int = 4,
        ranks_per_node: Optional[int] = None,
        conduit: Optional[str] = None,
        params: Optional[MpiParams] = None,
    ):
        if ranks < 1:
            raise MpiError(f"ranks must be >= 1, got {ranks}")
        self.preset = preset or generic_smp(nodes=2)
        self.ranks = ranks
        self.params = params or MpiParams()
        self.sim = Simulator()
        self.topo = self.preset.topology()
        self.stats = StatsCollector(self.sim)
        # Arm the instrumentation sinks before any stack layer is built
        # (see UpcProgram); MPI runs are traced and profiled, never
        # sanitized.
        arm(self.sim, f"mpi x{ranks}", ranks)
        self.mem = MemorySystem(self.sim, self.topo, self.preset.memory)
        if ranks_per_node is None:
            ranks_per_node = -(-ranks // self.topo.total_nodes)
        self.ranks_per_node = ranks_per_node
        node_of = assign_ranks_to_nodes(self.topo, ranks, per_node=ranks_per_node)
        locations: List[ThreadLocation] = []
        per_node_count: Dict[int, int] = {}
        for r in range(ranks):
            node = self.topo.nodes[node_of[r]]
            lr = per_node_count.get(node.index, 0)
            per_node_count[node.index] = lr + 1
            ncores = len(node.core_indices)
            core = self.topo.cores[node.core_indices[lr % ncores]]
            smt = lr // ncores
            if smt >= len(core.pu_indices):
                raise MpiError(f"node {node.index} oversubscribed at rank {r}")
            locations.append(
                ThreadLocation(r, node.index, core.pu_indices[smt], process_id=r)
            )
        # OpenMPI's sm transport: intra-node messages bypass the NIC.
        backend = BackendConfig(
            mode="processes", pshm=True,
            op_overhead=self.params.send_overhead,
            bypass_overhead=0.1e-6,
        )
        net = lookup_conduit(conduit or self.preset.default_conduit)
        self.gasnet = GasnetRuntime(
            self.sim, self.topo, self.mem, net, locations, backend=backend,
            stats=self.stats,
        )
        self.world = Team(self.sim, range(ranks), name="mpi_world")
        self._match: Dict[tuple, Store] = {}
        self._flags: Dict[object, Event] = {}
        self._contexts = [MpiRank(self, r) for r in range(ranks)]

    def match_queue(self, dst: int, src: int, tag: int) -> Store:
        key = (dst, src, tag)
        q = self._match.get(key)
        if q is None:
            q = self._match[key] = Store(self.sim, name=f"match{key}")
        return q

    def flag(self, key: object) -> Event:
        ev = self._flags.get(key)
        if ev is None:
            ev = self._flags[key] = Event(self.sim)
        return ev

    def run(self, main: Callable, *args: Any, **kwargs: Any) -> ProgramResult:
        procs = [
            self.sim.spawn(main(self._contexts[r], *args, **kwargs), name=f"rank{r}")
            for r in range(self.ranks)
        ]
        self.sim.run()
        if self.sim.tracer.enabled:
            # Close still-open spans so the trace is complete even when
            # the checks below raise.
            self.sim.tracer.finalize(self.sim.now)
        self.sim.raise_failures()
        unfinished = [p.name for p in procs if not p.done]
        if unfinished:
            raise MpiError(f"deadlock: ranks never finished: {unfinished[:8]}")
        leaked = self.stats.open_timers()
        if leaked:
            raise MpiError(
                "phase timers still open at end of run — their elapsed "
                f"time was never recorded: {leaked!r}"
            )
        return ProgramResult(
            elapsed=self.sim.now,
            returns=[p.result for p in procs],
            stats=self.stats,
            sim=self.sim,
        )


class MpiRank:
    """Per-rank context: COMM_WORLD operations."""

    def __init__(self, program: MpiProgram, rank: int):
        self.program = program
        self.rank = rank
        self.size = program.ranks
        self.sim = program.sim
        self.stats = program.stats
        self.gasnet = program.gasnet
        self.mem = program.mem
        self.pu = program.gasnet.location(rank).pu

    # -- local work ---------------------------------------------------------

    def compute(self, seconds: float) -> Generator:
        yield self.mem.compute(self.pu, seconds)

    def compute_flops(self, flops: float, efficiency: float = 0.25) -> Generator:
        rate = self.mem.params.core_flops * efficiency
        yield self.mem.compute(self.pu, flops / rate)

    def local_stream(self, bytes_read: float, bytes_written: float) -> Generator:
        sock = self.gasnet.segment_socket(self.rank)
        yield from self.mem.stream(self.pu, bytes_read, bytes_written, sock)

    def wtime(self) -> float:
        return self.sim.now

    # -- point-to-point --------------------------------------------------------

    def send(self, dst: int, nbytes: float, tag: int = 0) -> Generator:
        """Blocking MPI_Send (buffered-eager or rendezvous)."""
        if not 0 <= dst < self.size:
            raise MpiError(f"send to invalid rank {dst}")
        p = self.program.params
        self.stats.count(names.MPI_SENDS)
        eager = nbytes <= p.eager_threshold
        msg = _Message(self.sim, self.rank, tag, nbytes, eager)
        yield self.mem.compute(self.pu, p.send_overhead)
        self.program.match_queue(dst, self.rank, tag).put(msg)
        if eager:
            # copy into the system buffer, then the wire proceeds async
            yield from self.local_stream(nbytes, nbytes)

            def _deliver():
                yield from self.gasnet.xfer(self.rank, dst, nbytes, "put")
                msg.delivered.succeed()

            self.sim.spawn(_deliver(), name=f"mpi.eager{self.rank}->{dst}")
            return
        # rendezvous: wait for the receiver before touching the wire
        yield msg.cts
        yield from self.gasnet.xfer(self.rank, dst, nbytes, "put")
        msg.delivered.succeed()

    def recv(self, src: int, tag: int = 0) -> Generator:
        """Blocking MPI_Recv; returns the received byte count."""
        if not 0 <= src < self.size:
            raise MpiError(f"recv from invalid rank {src}")
        p = self.program.params
        self.stats.count(names.MPI_RECVS)
        msg = yield self.program.match_queue(self.rank, src, tag).get()
        yield self.mem.compute(self.pu, p.match_overhead)
        if not msg.eager:
            msg.cts.succeed()
        yield msg.delivered
        if msg.eager:
            # unpack from the system buffer
            yield from self.local_stream(msg.nbytes, msg.nbytes)
        yield self.mem.compute(self.pu, self.gasnet.fabric.params.recv_overhead)
        return msg.nbytes

    def sendrecv(
        self, dst: int, send_bytes: float, src: int, tag: int = 0
    ) -> Generator:
        """MPI_Sendrecv: both directions progress concurrently."""
        send_proc = self.sim.spawn(
            self.send(dst, send_bytes, tag), name=f"sr.send{self.rank}"
        )
        recv_proc = self.sim.spawn(
            self.recv(src, tag), name=f"sr.recv{self.rank}"
        )
        yield self.sim.all_of([send_proc, recv_proc])
        return recv_proc.value

    def barrier(self) -> Generator:
        yield self.mem.compute(self.pu, self.program.params.collective_op_overhead)
        yield from self.program.world.barrier(self.rank)
