"""One SPMD job: the simulated stack and launch both programming models share.

:class:`SpmdJob` builds a job and runs one generator per rank on it; the
UPC and MPI launchers subclass it and supply only what differs by model.
:class:`LocalWork` is the local CPU and memory work of every per-rank
context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.gasnet.core import GasnetRuntime
from repro.gasnet.team import Team
from repro.machine.memory import MemorySystem
from repro.machine.presets import PlatformPreset, generic_smp
from repro.network.conduits import conduit as lookup_conduit
from repro.obs.session import arm
from repro.sim import Event, Simulator, StatsCollector

__all__ = ["LocalWork", "ProgramResult", "SpmdJob"]


@dataclass
class ProgramResult:
    """Outcome of one simulated SPMD job run."""

    elapsed: float                 #: simulated wall-clock of the whole job
    returns: List[Any]             #: per-rank return values
    stats: StatsCollector
    sim: Simulator
    #: the engine's counts (``Simulator.engine_counts``; heap peak 0
    #: unless traced)
    engine: Dict[str, int]
    #: sanitizer findings (empty unless run under a sanitizing session)
    findings: List[Any] = field(default_factory=list)

    def timer_max(self, name: str) -> float:
        return self.stats.timer_max(name)


class SpmdJob:
    """One simulated SPMD job: machine + runtime + one process per rank.

    ``__init__`` builds, in this order, the simulator, topology, stats,
    instrumentation sinks, memory system, placement, GASNet runtime,
    world team, flag store and contexts.  A subclass sets the class
    attributes below and ``self.backend`` before calling it, and
    implements ``_place(per_node)`` (every rank's
    :class:`~repro.gasnet.core.ThreadLocation`) and ``_new_context(rank)``.
    """

    error: type            #: raised when a run deadlocks or leaks a timer
    process_prefix: str    #: rank ``r`` runs as process ``f"{prefix}{r}"``
    rank_noun: str         #: what the deadlock message calls the ranks
    world_name: str        #: name of the world team
    sanitized = False      #: a sanitizing session sanitizes this job

    def __init__(
        self,
        preset: Optional[PlatformPreset],
        nranks: int,
        per_node: Optional[int],
        conduit: Optional[str],
        label: str,
    ):
        self.preset = preset or generic_smp(nodes=2)
        self.net_params = lookup_conduit(conduit or self.preset.default_conduit)
        self.sim = Simulator()
        self.topo = self.preset.topology()
        self.stats = StatsCollector(self.sim)
        # Arm the instrumentation sinks (a no-op outside an instrument()
        # session) before any stack layer is built, so fabric and
        # runtime construction can declare their tracks.
        arm(self.sim, label, nranks, program=self if self.sanitized else None)
        self.mem = MemorySystem(self.sim, self.topo, self.preset.memory)
        if per_node is None:
            per_node = -(-nranks // self.topo.total_nodes)
        self.gasnet = GasnetRuntime(
            self.sim, self.topo, self.mem, self.net_params,
            self._place(per_node), backend=self.backend, stats=self.stats,
        )
        self.world = Team(self.sim, range(nranks), name=self.world_name)
        self._flags: Dict[object, Event] = {}
        self._thread_procs: Optional[List] = None
        self._contexts = [self._new_context(r) for r in range(nranks)]

    # -- flags ---------------------------------------------------------------

    def flag(self, key: object) -> Event:
        """One-shot point-to-point flag (collectives' pairwise rendezvous).

        Both the signaller and the waiter may create the flag; keys must
        be unique per use (collectives embed a per-team op counter).
        """
        ev = self._flags.get(key)
        if ev is None:
            ev = self._flags[key] = Event(self.sim)
        return ev

    def drop_flag(self, key: object) -> None:
        """Forget a flag whose one reader has consumed it."""
        self._flags.pop(key, None)

    # -- execution -------------------------------------------------------------

    def run(self, main: Callable, *args: Any, **kwargs: Any) -> ProgramResult:
        """Run ``main(context, *args, **kwargs)`` on every rank to completion."""
        procs = self._thread_procs = [
            self.sim.spawn(main(ctx, *args, **kwargs),
                           name=f"{self.process_prefix}{r}")
            for r, ctx in enumerate(self._contexts)
        ]
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
            raise self.error(
                f"deadlock: {self.rank_noun} never finished: {unfinished[:8]} "
                f"({len(unfinished)} total); stalled processes: "
                f"{stalled[:12]} ({len(stalled)} total)"
            )
        leaked = self.stats.open_timers()
        if leaked:
            raise self.error(
                "phase timers still open at end of run — their elapsed "
                "time was never recorded (a thread died mid-phase?): "
                f"{leaked!r}"
            )
        return ProgramResult(
            elapsed=self.sim.now,
            returns=[p.result for p in procs],
            stats=self.stats,
            sim=self.sim,
            engine=self.sim.engine_counts(),
            findings=list(sanitizer.findings) if sanitizer.enabled else [],
        )


class LocalWork:
    """Local CPU and memory work of a per-rank context.

    The host class sets ``mem``, ``gasnet``, ``pu`` and ``_home`` (the
    thread whose segment is local).  ``work_inflation`` scales CPU work;
    only sub-threads run above 1.0, and multiplying by 1.0 is exact.
    """

    work_inflation = 1.0

    def compute(self, seconds: float) -> Generator:
        """Execute ``seconds`` of single-thread CPU work."""
        yield self.mem.compute(self.pu, seconds * self.work_inflation)

    def compute_flops(self, flops: float, efficiency: float = 0.25) -> Generator:
        """Execute a flop count at a sustained fraction of core peak."""
        rate = self.mem.params.core_flops * efficiency
        yield self.mem.compute(self.pu, flops * self.work_inflation / rate)

    @property
    def my_socket(self) -> int:
        """The socket holding this context's own segment."""
        return self.gasnet.segment_socket(self._home)

    def local_stream(self, bytes_read: float, bytes_written: float) -> Generator:
        """Stream traffic against this context's own segment."""
        return self.stream_from(self._home, bytes_read, bytes_written)

    def stream_from(
        self, owner_thread: int, bytes_read: float, bytes_written: float
    ) -> Generator:
        """Stream traffic against ``owner_thread``'s segment (must share a node)."""
        home = self.gasnet.segment_socket(owner_thread)
        yield from self.mem.stream(self.pu, bytes_read, bytes_written, home)
