"""GASNet core: thread attachment, backends, segments, put/get, AM rounds.

A :class:`GasnetRuntime` binds a set of UPC threads (each with a node, a
processing unit, and an owning OS process) to the fabric and the memory
system.  The *backend* determines two things the whole thesis turns on:

* **connection sharing** — process-per-thread backends give every thread
  its own network connection; pthreads backends make all threads of a
  process share one (§4.3.1's processes-vs-pthreads trade-off);
* **shared-memory reach** — threads in one process always share memory;
  with PSHM enabled the reach extends to the whole node (§3.1), letting
  intra-node put/get bypass the network API entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence

from repro.errors import EndpointFailedError, GasnetError, MessageCorruptedError
from repro.gasnet.pshm import discover_supernodes
from repro.machine.memory import MemorySystem
from repro.machine.topology import MachineTopology
from repro.network.fabric import Fabric
from repro.network.model import NetworkParams
from repro.obs import names
from repro.obs.tracer import META_TRACK, thread_track
from repro.sim import Process, Simulator, StatsCollector

__all__ = [
    "ThreadLocation", "BackendConfig", "RetryPolicy", "GasnetRuntime", "Handle",
]

#: Bytes of an active-message request, and of its reply.
AM_MESSAGE_BYTES = 64.0


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + retransmit policy for network ops under fault injection.

    Each attempt races the operation against a timeout; the timeout
    starts at ``max(min_timeout, timeout_factor * expected)`` — where
    *expected* is the uncontended analytic time of the op — and grows by
    ``backoff``× per retry (exponential backoff, so a congested-but-alive
    peer is given progressively more slack before being declared dead).
    After ``max_attempts`` total tries the op raises
    :class:`~repro.errors.EndpointFailedError`.
    """

    max_attempts: int = 4
    timeout_factor: float = 8.0
    min_timeout: float = 100e-6
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise GasnetError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 1.0:
            raise GasnetError(f"backoff must be >= 1, got {self.backoff}")
        if self.min_timeout <= 0 or self.timeout_factor <= 0:
            raise GasnetError("timeouts must be positive")

    def timeout_for(self, expected: float, attempt: int) -> float:
        base = max(self.min_timeout, self.timeout_factor * expected)
        return base * self.backoff ** attempt


@dataclass(frozen=True)
class ThreadLocation:
    """Where one UPC thread lives."""

    thread_id: int
    node: int
    pu: int
    process_id: int


@dataclass(frozen=True)
class BackendConfig:
    """Backend mode plus the software-overhead calibration constants.

    ``mode`` is ``"processes"`` (one OS process per UPC thread) or
    ``"pthreads"`` (threads grouped into processes); ``pshm`` additionally
    cross-maps segments node-wide.  The overhead constants:

    * ``op_overhead`` — fixed software cost of one ``upc_mem*`` runtime
      call (dispatch, shared-pointer argument handling).
    * ``bypass_overhead`` — extra segment-lookup cost on the PSHM /
      pthreads shared-memory fast path.
    * ``shm_roundtrip`` — one cache-coherent atomic round (lock attempts,
      flag polling) between threads that share memory.
    * ``am_handler_time`` — CPU time an active-message handler occupies
      on the target core.
    """

    mode: str = "processes"
    pshm: bool = True
    op_overhead: float = 0.20e-6
    bypass_overhead: float = 0.05e-6
    shm_roundtrip: float = 0.20e-6
    am_handler_time: float = 0.30e-6

    def __post_init__(self) -> None:
        if self.mode not in ("processes", "pthreads"):
            raise GasnetError(f"unknown backend mode {self.mode!r}")

    @property
    def label(self) -> str:
        return f"{self.mode}{'+pshm' if self.pshm else ''}"


class GasnetRuntime:
    """The communication runtime for one simulated job."""

    def __init__(
        self,
        sim: Simulator,
        topo: MachineTopology,
        mem: MemorySystem,
        net_params: NetworkParams,
        locations: Sequence[ThreadLocation],
        backend: Optional[BackendConfig] = None,
        stats: Optional[StatsCollector] = None,
    ):
        self.sim = sim
        self.topo = topo
        self.mem = mem
        self.backend = backend or BackendConfig()
        self.stats = stats if stats is not None else StatsCollector(sim)
        self.fabric = Fabric(sim, topo, net_params, stats=self.stats)
        self.locations: List[ThreadLocation] = list(locations)
        if [loc.thread_id for loc in self.locations] != list(range(len(self.locations))):
            raise GasnetError("thread ids must be dense 0..n-1 in order")
        for loc in self.locations:
            if self.topo.pu(loc.pu).node_index != loc.node:
                raise GasnetError(
                    f"thread {loc.thread_id}: PU {loc.pu} is not on node {loc.node}"
                )
            self.fabric.register_endpoint(
                loc.thread_id, loc.node, connection_key=("proc", loc.process_id)
            )
        self._supernodes = discover_supernodes(
            [loc.node for loc in self.locations],
            [loc.process_id for loc in self.locations],
            pshm=self.backend.pshm,
        )
        self._supernode_of: Dict[int, int] = {}
        for gi, group in enumerate(self._supernodes):
            for t in group:
                self._supernode_of[t] = gi
        #: Fault injection: None means the reliable, seed-identical path.
        self.fault_injector = None
        self.retry = RetryPolicy()

    # -- fault injection ---------------------------------------------------

    def attach_faults(self, injector, retry: Optional[RetryPolicy] = None) -> None:
        """Arm fault injection: hook the fabric and enable retransmits.

        Without an injector every network op is the plain single-attempt
        path, byte-identical to seed behaviour; with one, puts/gets/AM
        rounds time out, retransmit with exponential backoff, and raise
        :class:`~repro.errors.EndpointFailedError` once the budget is
        spent — so upper layers see failures as exceptions, not hangs.
        """
        injector.attach(self.fabric)
        self.fault_injector = injector
        if retry is not None:
            self.retry = retry

    def _reliable(
        self,
        peer_thread: int,
        op_factory: Callable[[], Generator],
        expected: float,
        desc: str,
        src_thread: Optional[int] = None,
    ) -> Generator:
        """Run a network op with timeout + retransmit (injector present)."""
        policy = self.retry
        tracer = self.sim.tracer
        track = thread_track(src_thread) if src_thread is not None else META_TRACK
        for attempt in range(policy.max_attempts):
            if attempt:
                self.stats.count(names.GASNET_RETRANSMITS)
                if tracer.enabled:
                    tracer.instant(track, f"retransmit {desc}",
                                   names.CAT_NETWORK, args={"attempt": attempt})
            proc = self.sim.spawn(op_factory(), name=f"gasnet.try[{desc}]")
            timeout = self.sim.delay(policy.timeout_for(expected, attempt))
            try:
                index, _value = yield self.sim.any_of([proc, timeout])
            except MessageCorruptedError:
                # Delivered but mangled: the receiver NAKs, we retransmit.
                self.sim.forgive_failure(proc)
                self.stats.count(names.GASNET_CORRUPT_DETECTED)
                if tracer.enabled:
                    tracer.instant(track, f"corrupt {desc}", names.CAT_NETWORK)
                continue
            if index == 0:
                return
            proc.kill()
            self.stats.count(names.GASNET_TIMEOUTS)
            if tracer.enabled:
                tracer.instant(track, f"timeout {desc}", names.CAT_NETWORK,
                               args={"attempt": attempt})
        self.stats.count(names.GASNET_ENDPOINT_FAILURES)
        raise EndpointFailedError(
            peer_thread,
            f"{desc}: peer thread {peer_thread} unreachable after "
            f"{policy.max_attempts} attempts",
        )

    # -- queries -----------------------------------------------------------

    @property
    def nthreads(self) -> int:
        return len(self.locations)

    def location(self, thread_id: int) -> ThreadLocation:
        try:
            return self.locations[thread_id]
        except IndexError:
            raise GasnetError(f"unknown thread {thread_id}") from None

    def segment_socket(self, thread_id: int) -> int:
        """Socket holding a thread's shared segment (first-touch: its PU's)."""
        return self.topo.pu(self.location(thread_id).pu).socket_index

    def supernodes(self) -> List[tuple]:
        return list(self._supernodes)

    def supernode_peers(self, thread_id: int) -> tuple:
        """Threads whose memory ``thread_id`` can reach via load/store
        (including itself) — the castability query of §3.2.1."""
        self.location(thread_id)
        return self._supernodes[self._supernode_of[thread_id]]

    def can_bypass(self, src_thread: int, dst_thread: int) -> bool:
        """True when src can move data to/from dst's segment by memcpy."""
        self.location(src_thread)
        self.location(dst_thread)
        return self._supernode_of[src_thread] == self._supernode_of[dst_thread]

    # -- data movement ------------------------------------------------------

    def xfer(
        self,
        src_thread: int,
        dst_thread: int,
        nbytes: float,
        direction: str = "put",
        privatized: bool = False,
        initiator_pu: Optional[int] = None,
    ) -> Generator:
        """Move ``nbytes`` between src's and dst's segments (simulated).

        The blocking ``upc_memput``/``upc_memget``: the caller ``yield
        from``s the returned generator.  ``direction`` is ``"put"``
        (initiator writes remote) or ``"get"`` (initiator reads remote);
        the initiator is always ``src_thread``.  ``privatized=True``
        models a user-cast local pointer: the runtime call and segment
        lookup are skipped and the op is a plain memcpy (only legal when
        ``can_bypass``).  ``initiator_pu`` redirects the CPU-side costs
        to another core — how a *sub-thread* of the UPC thread issues
        communication under THREAD_MULTIPLE.
        """
        if direction not in ("put", "get"):
            raise GasnetError(f"bad direction {direction!r}")
        body = self._xfer(
            src_thread, dst_thread, nbytes, direction, privatized, initiator_pu,
        )
        tracer = self.sim.tracer
        if not tracer.enabled:
            return body
        return tracer.spanned(
            body, thread_track(src_thread), f"{direction}->{dst_thread}",
            names.CAT_NETWORK, args={"bytes": nbytes, "peer": dst_thread},
        )

    def xfer_nb(
        self,
        src_thread: int,
        dst_thread: int,
        nbytes: float,
        direction: str = "put",
        privatized: bool = False,
        initiator_pu: Optional[int] = None,
    ) -> "Handle":
        """Initiate :meth:`xfer` without blocking; returns a :class:`Handle`.

        Berkeley UPC's ``bupc_memput_async`` of Fig 3.4(b): the caller
        overlaps computation and later waits on the handle.  Initiation
        software cost is part of the spawned operation (the real call
        returns after injecting; the distinction is below the resolution
        the experiments need).
        """
        body = self.xfer(
            src_thread, dst_thread, nbytes, direction, privatized, initiator_pu,
        )
        if direction == "put":
            name = f"put_nb[{src_thread}->{dst_thread}]"
        else:
            name = f"get_nb[{src_thread}<-{dst_thread}]"
        return Handle(self, self.sim.spawn(body, name=name), issued_at=self.sim.now)

    def _xfer(
        self,
        src_thread: int,
        dst_thread: int,
        nbytes: float,
        direction: str,
        privatized: bool,
        initiator_pu: Optional[int],
    ) -> Generator:
        src = self.location(src_thread)
        if initiator_pu is None:
            initiator_pu = src.pu
        self.stats.count(names.gasnet_op(direction))
        self.stats.add(names.GASNET_BYTES, nbytes)

        if privatized:
            if not self.can_bypass(src_thread, dst_thread):
                raise GasnetError(
                    f"privatized access from {src_thread} to {dst_thread}: "
                    "threads do not share memory"
                )
            yield from self._bypass_copy(
                initiator_pu, src_thread, dst_thread, nbytes, direction,
                overhead=0.0,
            )
            return

        yield self.mem.compute(initiator_pu, self.backend.op_overhead)
        if self.can_bypass(src_thread, dst_thread):
            self.stats.count(names.GASNET_BYPASS)
            yield from self._bypass_copy(
                initiator_pu, src_thread, dst_thread, nbytes, direction,
                overhead=self.backend.bypass_overhead,
            )
            return

        yield self.mem.compute(initiator_pu, self.fabric.params.send_overhead)
        if direction == "put":
            op = lambda: self.fabric.transmit(src_thread, dst_thread, nbytes)
        else:
            op = lambda: self.fabric.fetch(src_thread, dst_thread, nbytes)
        if self.fault_injector is None:
            yield from op()
        else:
            expected = self.fabric.params.message_time(nbytes)
            if direction == "get":
                expected += self.fabric.params.latency
            yield from self._reliable(
                dst_thread, op, expected,
                f"{direction}[{src_thread}->{dst_thread}]",
                src_thread=src_thread,
            )

    def _bypass_copy(
        self,
        pu: int,
        src_thread: int,
        dst_thread: int,
        nbytes: float,
        direction: str,
        overhead: float,
    ) -> Generator:
        if overhead > 0:
            yield self.mem.compute(pu, overhead)
        local_socket = self.segment_socket(src_thread)
        remote_socket = self.segment_socket(dst_thread)
        if direction == "put":
            src_sock, dst_sock = local_socket, remote_socket
        else:
            src_sock, dst_sock = remote_socket, local_socket
        yield from self.mem.copy(pu, nbytes, src_sock, dst_sock)

    # -- active messages -----------------------------------------------------

    def am_roundtrip(self, src_thread: int, dst_thread: int) -> Generator:
        """One request/reply active-message round (e.g. a lock attempt).

        Between shared-memory threads this is a cache-coherent atomic
        round; across the network it pays both message flights of
        :data:`AM_MESSAGE_BYTES` plus the backend's ``am_handler_time`` on
        the target core.
        """
        body = self._am_roundtrip(src_thread, dst_thread)
        tracer = self.sim.tracer
        if not tracer.enabled:
            return body
        return tracer.spanned(
            body, thread_track(src_thread), f"am<->{dst_thread}",
            names.CAT_NETWORK, args={"peer": dst_thread},
        )

    def _am_roundtrip(self, src_thread: int, dst_thread: int) -> Generator:
        src = self.location(src_thread)
        dst = self.location(dst_thread)
        handler_work = self.backend.am_handler_time
        self.stats.count(names.GASNET_AM_ROUNDTRIPS)
        if self.can_bypass(src_thread, dst_thread):
            yield self.mem.compute(src.pu, self.backend.shm_roundtrip)
            return
        yield self.mem.compute(src.pu, self.fabric.params.send_overhead)

        def round_() -> Generator:
            yield from self.fabric.transmit(src_thread, dst_thread,
                                            AM_MESSAGE_BYTES)
            yield self.mem.compute(dst.pu, handler_work)
            yield from self.fabric.transmit(dst_thread, src_thread,
                                            AM_MESSAGE_BYTES)

        if self.fault_injector is None:
            yield from round_()
        else:
            # A lost request or reply retries the whole round: AM
            # handlers must be (and here are) idempotent at-least-once.
            expected = (
                self.fabric.params.message_time(AM_MESSAGE_BYTES)
                + handler_work
                + self.fabric.params.message_time(AM_MESSAGE_BYTES)
            )
            yield from self._reliable(
                dst_thread, round_, expected,
                f"am[{src_thread}<->{dst_thread}]",
                src_thread=src_thread,
            )
        yield self.mem.compute(src.pu, self.fabric.params.recv_overhead)


class Handle:
    """Completion handle of one :meth:`GasnetRuntime.xfer_nb` operation.

    Timing statistics separate *initiation* cost (charged inside the
    spawned operation) from *synchronization* wait time, so the harness
    can reproduce the paper's init-vs-waitsync breakdown.
    """

    def __init__(self, runtime: GasnetRuntime, process: Process, issued_at: float):
        self._runtime = runtime
        self._process = process
        self.issued_at = issued_at
        self._synced = False

    @property
    def done(self) -> bool:
        return self._process.done

    def wait(self) -> Generator:
        """Simulated generator (``upc_waitsync``): block until the
        operation completes.

        Records the blocked time under ``gasnet.waitsync`` so harnesses
        can separate overlap wins from raw transfer time.
        """
        if self._synced:
            raise GasnetError("handle already synchronized")
        self._synced = True
        start = self._runtime.sim.now
        yield self._process
        self._runtime.stats.add(
            names.GASNET_WAITSYNC_TIME, self._runtime.sim.now - start
        )
        self._runtime.stats.count(names.GASNET_WAITSYNC)
