"""Machine topology: a pure-data hwloc-like hardware tree.

A :class:`MachineTopology` is built from a :class:`MachineSpec` and holds
the cluster → node → socket (ccNUMA domain) → core → processing-unit tree.
It answers the locality queries that the UPC runtime, the thread-group
extension and the affinity binder all rely on: "which PUs share a socket
with this one?", "how far apart are these two PUs?".

The topology is deliberately free of simulator state — cost models
(:mod:`repro.machine.memory`, :mod:`repro.network.fabric`) attach
simulation resources to it separately, so one topology can be priced under
several parameter sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List

from repro.errors import TopologyError

__all__ = [
    "Locality",
    "NodeSpec",
    "MachineSpec",
    "ProcessingUnit",
    "Core",
    "Socket",
    "Node",
    "MachineTopology",
]


class Locality(enum.IntEnum):
    """Distance classes between two processing units (closest first).

    Ordering is meaningful: ``Locality.SMT < Locality.SOCKET`` etc., so
    victim-selection code can sort peers by locality.
    """

    SELF = 0      #: the same PU
    SMT = 1       #: same core, different hardware thread
    SOCKET = 2    #: same socket / ccNUMA domain (shared L3)
    NODE = 3      #: same node, different socket (QPI/HT hop)
    NETWORK = 4   #: different node (interconnect)


@dataclass(frozen=True)
class NodeSpec:
    """Shape of one compute node."""

    sockets: int = 2
    cores_per_socket: int = 4
    smt_per_core: int = 1

    def __post_init__(self) -> None:
        for name in ("sockets", "cores_per_socket", "smt_per_core"):
            if getattr(self, name) < 1:
                raise TopologyError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def pus(self) -> int:
        return self.cores * self.smt_per_core


@dataclass(frozen=True)
class MachineSpec:
    """Shape of a whole cluster: ``nodes`` identical :class:`NodeSpec` nodes."""

    name: str
    nodes: int
    node: NodeSpec = field(default_factory=NodeSpec)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise TopologyError(f"nodes must be >= 1, got {self.nodes}")

    @property
    def total_pus(self) -> int:
        return self.nodes * self.node.pus

    @property
    def total_cores(self) -> int:
        return self.nodes * self.node.cores


@dataclass(frozen=True)
class ProcessingUnit:
    """One hardware thread.  ``index`` is global across the machine.

    Indices enumerate PUs node-major, then socket, then core, then SMT
    sibling — the same order hwloc's logical indexing produces on these
    systems.
    """

    index: int
    node_index: int
    socket_index: int      # global socket index
    core_index: int        # global core index
    smt_index: int         # 0..smt_per_core-1 within the core

    @property
    def key(self) -> tuple:
        return (self.node_index, self.socket_index, self.core_index, self.smt_index)


@dataclass(frozen=True)
class Core:
    index: int             # global core index
    node_index: int
    socket_index: int      # global socket index
    pu_indices: tuple      # global PU indices on this core


@dataclass(frozen=True)
class Socket:
    index: int             # global socket index
    node_index: int
    core_indices: tuple    # global core indices
    pu_indices: tuple      # global PU indices


@dataclass(frozen=True)
class Node:
    index: int
    socket_indices: tuple
    core_indices: tuple
    pu_indices: tuple


class MachineTopology:
    """The instantiated hardware tree plus locality queries."""

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.pus: List[ProcessingUnit] = []
        self.cores: List[Core] = []
        self.sockets: List[Socket] = []
        self.nodes: List[Node] = []
        self._build()

    def _build(self) -> None:
        ns = self.spec.node
        pu_idx = core_idx = sock_idx = 0
        for n in range(self.spec.nodes):
            node_socks: list[int] = []
            node_cores: list[int] = []
            node_pus: list[int] = []
            for _s in range(ns.sockets):
                sock_cores: list[int] = []
                sock_pus: list[int] = []
                for _c in range(ns.cores_per_socket):
                    core_pus: list[int] = []
                    for smt in range(ns.smt_per_core):
                        self.pus.append(
                            ProcessingUnit(
                                index=pu_idx,
                                node_index=n,
                                socket_index=sock_idx,
                                core_index=core_idx,
                                smt_index=smt,
                            )
                        )
                        core_pus.append(pu_idx)
                        pu_idx += 1
                    self.cores.append(
                        Core(
                            index=core_idx,
                            node_index=n,
                            socket_index=sock_idx,
                            pu_indices=tuple(core_pus),
                        )
                    )
                    sock_cores.append(core_idx)
                    sock_pus.extend(core_pus)
                    core_idx += 1
                self.sockets.append(
                    Socket(
                        index=sock_idx,
                        node_index=n,
                        core_indices=tuple(sock_cores),
                        pu_indices=tuple(sock_pus),
                    )
                )
                node_socks.append(sock_idx)
                node_cores.extend(sock_cores)
                node_pus.extend(sock_pus)
                sock_idx += 1
            self.nodes.append(
                Node(
                    index=n,
                    socket_indices=tuple(node_socks),
                    core_indices=tuple(node_cores),
                    pu_indices=tuple(node_pus),
                )
            )

    # -- counts --------------------------------------------------------

    @property
    def total_pus(self) -> int:
        return len(self.pus)

    @property
    def total_cores(self) -> int:
        return len(self.cores)

    @property
    def total_sockets(self) -> int:
        return len(self.sockets)

    @property
    def total_nodes(self) -> int:
        return len(self.nodes)

    # -- lookups ---------------------------------------------------------

    def pu(self, index: int) -> ProcessingUnit:
        try:
            return self.pus[index]
        except IndexError:
            raise TopologyError(
                f"PU {index} out of range (machine has {self.total_pus})"
            ) from None

    def core_of(self, pu_index: int) -> Core:
        return self.cores[self.pu(pu_index).core_index]

    def socket_of(self, pu_index: int) -> Socket:
        return self.sockets[self.pu(pu_index).socket_index]

    def node_of(self, pu_index: int) -> Node:
        return self.nodes[self.pu(pu_index).node_index]

    # -- locality queries -----------------------------------------------

    def locality(self, pu_a: int, pu_b: int) -> Locality:
        """Distance class between two PUs (smaller = closer)."""
        a, b = self.pu(pu_a), self.pu(pu_b)
        if a.index == b.index:
            return Locality.SELF
        if a.core_index == b.core_index:
            return Locality.SMT
        if a.socket_index == b.socket_index:
            return Locality.SOCKET
        if a.node_index == b.node_index:
            return Locality.NODE
        return Locality.NETWORK

    def pus_within(self, pu_index: int, level: Locality) -> tuple:
        """Global indices of all PUs at distance <= ``level`` from ``pu_index``.

        ``pus_within(p, Locality.NODE)`` is "everything on my node",
        including ``p`` itself.
        """
        p = self.pu(pu_index)
        if level == Locality.SELF:
            return (pu_index,)
        if level == Locality.SMT:
            return self.cores[p.core_index].pu_indices
        if level == Locality.SOCKET:
            return self.sockets[p.socket_index].pu_indices
        if level == Locality.NODE:
            return self.nodes[p.node_index].pu_indices
        return tuple(range(self.total_pus))

    def iter_pus(self) -> Iterator[ProcessingUnit]:
        return iter(self.pus)

    def same_node(self, pu_a: int, pu_b: int) -> bool:
        return self.pu(pu_a).node_index == self.pu(pu_b).node_index

    def same_socket(self, pu_a: int, pu_b: int) -> bool:
        return self.pu(pu_a).socket_index == self.pu(pu_b).socket_index

    def describe(self) -> str:
        ns = self.spec.node
        return (
            f"{self.spec.name}: {self.spec.nodes} nodes x "
            f"{ns.sockets} sockets x {ns.cores_per_socket} cores x "
            f"{ns.smt_per_core} SMT = {self.total_pus} PUs"
        )

    def __repr__(self) -> str:
        return f"<MachineTopology {self.describe()}>"
