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
from typing import Dict, Generator, List, Optional

from repro.errors import MpiError
from repro.gasnet import BackendConfig, ThreadLocation
from repro.gasnet.job import LocalWork, SpmdJob
from repro.machine.affinity import bind_by_core
from repro.machine.presets import PlatformPreset
from repro.obs import names
from repro.sim import Event, Simulator, Store

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


class MpiProgram(SpmdJob):
    """One simulated MPI job: single-threaded rank processes on the SPMD
    job base, placed core by core (:func:`~repro.machine.affinity.bind_by_core`)
    and talking over OpenMPI's sm transport inside a node."""

    error = MpiError
    process_prefix = "rank"
    rank_noun = "ranks"
    world_name = "mpi_world"

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
        self.ranks = ranks
        self.params = params or MpiParams()
        # OpenMPI's sm transport: intra-node messages bypass the NIC.
        self.backend = BackendConfig(
            mode="processes", pshm=True,
            op_overhead=self.params.send_overhead,
            bypass_overhead=0.1e-6,
        )
        # MPI runs are traced and profiled, never sanitized.
        super().__init__(preset, ranks, ranks_per_node, conduit,
                         label=f"mpi x{ranks}")
        self._match: Dict[tuple, Store] = {}

    def _place(self, per_node: int) -> List[ThreadLocation]:
        self.ranks_per_node = per_node
        return [
            ThreadLocation(r, self.topo.pu(mask.primary).node_index, mask.primary,
                           process_id=r)
            for r, mask in enumerate(bind_by_core(self.topo, self.ranks, per_node))
        ]

    def _new_context(self, rank: int) -> "MpiRank":
        return MpiRank(self, rank)

    def match_queue(self, dst: int, src: int, tag: int) -> Store:
        key = (dst, src, tag)
        q = self._match.get(key)
        if q is None:
            q = self._match[key] = Store(self.sim, name=f"match{key}")
        return q


class MpiRank(LocalWork):
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
        self._home = rank

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
