"""Node memory-system cost model: NUMA bandwidth, core ports, SMT cores.

The model prices two kinds of work:

* **Streaming memory traffic** (`MemorySystem.stream`): charged jointly on
  the *home socket's* memory controller (a processor-sharing pipe — many
  threads streaming to one socket share its bandwidth, which is what makes
  Table 4.1's un-bound ``1×8`` configuration achieve roughly half of the
  node's throughput) and on the requesting *core's load/store port* (a
  per-core cap — one core cannot saturate a socket).  Remote-socket
  accesses additionally pay the ccNUMA factor and drain through the
  QPI/HyperTransport pipe.

* **Compute** (`MemorySystem.compute`): charged on the core's
  :class:`SmtCore`.  An SMT core running two hardware threads delivers
  ``smt_throughput_factor`` (≈1.05–1.30, per Fig 4.4's "5% to 30%" SMT
  speedups) of its single-thread rate, split evenly — so each SMT sibling
  runs slower than alone but the pair finishes sooner.

All parameters are calibrated against Table 2.1 / Table 3.1 / Table 4.1 in
:mod:`repro.machine.presets`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from repro.errors import TopologyError
from repro.machine.topology import MachineTopology
from repro.sim import SharedBandwidth, Simulator
from repro.sim.engine import Awaitable

__all__ = ["MemoryParams", "SmtCore", "MemorySystem"]

_GB = 1e9


@dataclass(frozen=True)
class MemoryParams:
    """Calibration constants for one node's memory system.

    Attributes
    ----------
    socket_stream_bw:
        Sustained streaming bandwidth of one socket's memory controller
        (bytes/s).  Node STREAM throughput ≈ ``sockets * socket_stream_bw``.
    core_stream_bw:
        Per-core load/store port cap (bytes/s).
    numa_factor:
        Multiplier on effective access time for remote-socket traffic
        (the thesis cites 15–40% slower; default 1.3).
    interconnect_bw:
        One-direction QPI / HyperTransport bandwidth between sockets
        (bytes/s); remote-socket traffic drains through it.
    smt_throughput_factor:
        Aggregate throughput of a core running all SMT siblings relative
        to one thread (>1.0 means SMT helps).
    pointer_translation_time:
        Seconds charged per *un-privatized* UPC shared-pointer access —
        the "expensive shared pointer address translation" of §3.1.  This
        is design decision D1 in DESIGN.md.
    write_allocate:
        If True, written bytes cost double traffic (read-for-ownership),
        the standard STREAM accounting.
    core_flops:
        Peak per-core floating-point rate (flops/s) used by applications
        to convert flop counts into work-seconds; kernels apply their own
        sustained-efficiency fraction on top.
    """

    socket_stream_bw: float = 12.3 * _GB
    core_stream_bw: float = 6.5 * _GB
    numa_factor: float = 1.3
    interconnect_bw: float = 23.0 * _GB
    smt_throughput_factor: float = 1.25
    pointer_translation_time: float = 2.2e-9
    write_allocate: bool = True
    core_flops: float = 9.0 * _GB

    def __post_init__(self) -> None:
        if self.socket_stream_bw <= 0 or self.core_stream_bw <= 0:
            raise TopologyError("bandwidths must be positive")
        if self.numa_factor < 1.0:
            raise TopologyError(f"numa_factor must be >= 1.0, got {self.numa_factor}")
        if self.smt_throughput_factor < 1.0:
            raise TopologyError("smt_throughput_factor must be >= 1.0")

    def traffic_bytes(self, bytes_read: float, bytes_written: float) -> float:
        """Memory-controller traffic for a read/write mix."""
        w = 2.0 if self.write_allocate else 1.0
        return bytes_read + w * bytes_written


class SmtCore(SharedBandwidth):
    """A core's execution resource in 'work-seconds' units.

    ``transfer(w)`` executes ``w`` seconds of single-thread work.  With
    ``n`` concurrent hardware threads the aggregate rate is::

        1.0 + (smt_factor - 1.0) * min(n - 1, smt_ways - 1)

    so a 2-way SMT core at ``smt_factor=1.25`` runs two threads at 0.625×
    each, and oversubscription beyond the SMT width degrades to pure
    time-slicing (aggregate pinned at the SMT-saturated rate).
    """

    def __init__(self, sim: Simulator, smt_ways: int, smt_factor: float, name: str = ""):
        super().__init__(sim, rate=1.0, name=name)
        self.smt_ways = smt_ways
        self.smt_factor = smt_factor

    def _aggregate_rate(self, n: int) -> float:
        """Reads only ``n``: the SMT constants are fixed and the set rate
        stays 1.0, so the pipe may read it only when ``n`` changes."""
        if n <= 1:
            return 1.0
        return 1.0 + (self.smt_factor - 1.0) * min(n - 1, self.smt_ways - 1)


class MemorySystem:
    """Simulation resources pricing memory and compute on a topology."""

    def __init__(self, sim: Simulator, topo: MachineTopology, params: MemoryParams):
        self.sim = sim
        self.topo = topo
        self.params = params
        self.socket_pipes: List[SharedBandwidth] = [
            SharedBandwidth(sim, params.socket_stream_bw, name=f"mem.socket{s.index}")
            for s in topo.sockets
        ]
        self.core_ports: List[SharedBandwidth] = [
            SharedBandwidth(sim, params.core_stream_bw, name=f"mem.coreport{c.index}")
            for c in topo.cores
        ]
        self.cores: List[SmtCore] = [
            SmtCore(
                sim,
                smt_ways=topo.spec.node.smt_per_core,
                smt_factor=params.smt_throughput_factor,
                name=f"cpu.core{c.index}",
            )
            for c in topo.cores
        ]
        self.interconnects: List[SharedBandwidth] = [
            SharedBandwidth(sim, params.interconnect_bw, name=f"mem.qpi{n.index}")
            for n in topo.nodes
        ]

    # -- compute --------------------------------------------------------

    def compute(self, pu_index: int, work_seconds: float) -> Awaitable:
        """Execute ``work_seconds`` of single-thread work on ``pu_index``'s core."""
        if work_seconds < 0:
            raise ValueError(f"negative work: {work_seconds}")
        core = self.topo.pu(pu_index).core_index
        return self.cores[core].transfer(work_seconds)

    # -- memory traffic ---------------------------------------------------

    def stream(
        self,
        pu_index: int,
        bytes_read: float,
        bytes_written: float,
        home_socket: int,
    ) -> Generator:
        """Simulated generator: stream a read/write mix against ``home_socket``.

        Intended for ``yield from``::

            yield from mem.stream(pu, nbytes, nbytes, home_socket=0)

        Cross-socket (same node) traffic pays the NUMA factor on the core
        side and also drains through the node interconnect.  Cross-*node*
        home sockets are a runtime bug — remote-node data moves via the
        network layer, never via load/store — and raise.
        """
        traffic = self.params.traffic_bytes(bytes_read, bytes_written)
        pu = self.topo.pu(pu_index)
        home = self.topo.sockets[home_socket]
        if home.node_index != pu.node_index:
            raise TopologyError(
                f"PU {pu_index} (node {pu.node_index}) cannot load/store to "
                f"socket {home_socket} on node {home.node_index}; use the network"
            )
        local = pu.socket_index == home_socket
        core_traffic = traffic if local else traffic * self.params.numa_factor
        legs = [
            self.socket_pipes[home_socket].transfer(traffic),
            self.core_ports[pu.core_index].transfer(core_traffic),
        ]
        if not local:
            legs.append(self.interconnects[pu.node_index].transfer(traffic))
        yield self.sim.all_of(legs)

    def copy(
        self,
        pu_index: int,
        nbytes: float,
        src_socket: int,
        dst_socket: int,
    ) -> Generator:
        """Simulated generator: memcpy ``nbytes`` between two sockets' memory.

        This is the load/store path used by privatized shared pointers and
        by PSHM-bypassed ``upc_memcpy``: reads drain from the source
        socket's controller, writes (with write-allocate) from the
        destination's, the copying core's port carries both, and any
        remote-socket legs pay NUMA and interconnect costs.
        """
        pu = self.topo.pu(pu_index)
        for sock in (src_socket, dst_socket):
            if self.topo.sockets[sock].node_index != pu.node_index:
                raise TopologyError(
                    f"PU {pu_index} cannot memcpy involving socket {sock} on "
                    f"another node; use the network"
                )
        w = 2.0 if self.params.write_allocate else 1.0
        read_traffic = float(nbytes)
        write_traffic = w * nbytes
        core_traffic = 0.0
        for sock, traffic in ((src_socket, read_traffic), (dst_socket, write_traffic)):
            if sock == pu.socket_index:
                core_traffic += traffic
            else:
                core_traffic += traffic * self.params.numa_factor
        legs = [
            self.socket_pipes[src_socket].transfer(read_traffic),
            self.socket_pipes[dst_socket].transfer(write_traffic),
            self.core_ports[pu.core_index].transfer(core_traffic),
        ]
        remote_traffic = sum(
            t
            for sock, t in ((src_socket, read_traffic), (dst_socket, write_traffic))
            if sock != pu.socket_index
        )
        if remote_traffic > 0:
            legs.append(self.interconnects[pu.node_index].transfer(remote_traffic))
        yield self.sim.all_of(legs)

    def translation_overhead(self, accesses: int) -> float:
        """Seconds of shared-pointer translation for ``accesses`` accesses."""
        return accesses * self.params.pointer_translation_time

    def charge_translation(self, pu_index: int, accesses: int) -> Awaitable:
        """Shared-pointer translation is CPU work: charge the core."""
        return self.compute(pu_index, self.translation_overhead(accesses))

    # -- analytic helpers (used by tests and calibration) -----------------

    def uncontended_stream_time(
        self, bytes_read: float, bytes_written: float, local: bool = True
    ) -> float:
        traffic = self.params.traffic_bytes(bytes_read, bytes_written)
        core_traffic = traffic if local else traffic * self.params.numa_factor
        return max(
            traffic / self.params.socket_stream_bw,
            core_traffic / self.params.core_stream_bw,
        )
