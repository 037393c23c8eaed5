"""Thread/process placement: affinity masks and numactl-like policies.

The thesis binds UPC processes cyclically to ccNUMA sockets with
``numactl`` and lets sub-threads inherit the parent's mask (§4.3.2).
This module is the one home of that machinery; both launchers call it
from their placement hook of the SPMD job base (:mod:`repro.gasnet.job`).
Each binder maps ``nranks`` block-distributed ranks to one mask apiece,
and all follow one rule: a node holding more ranks than PUs raises
:class:`~repro.errors.AffinityError`.

* :class:`AffinityMask` — the set of PUs a rank may run on.
* :func:`bind_compact` — ``UpcProgram``'s default ``"compact"``: one PU
  per rank, consecutive local ranks cycling the node's sockets before
  its cores, SMT siblings last.
* :func:`bind_round_robin_sockets` — ``"sockets"``: rank *i* on a node
  gets that node's socket ``i % sockets``, and ranks sharing a socket
  split its cores, so their sub-threads stay on-chip and never collide.
* :func:`bind_unbound` — ``"unbound"``: every rank may run anywhere on
  its node, modelling the OS scheduler.  First-touch placement then lands
  all of a rank's memory on the allocating thread's socket, which is
  what makes the un-bound ``1×8`` configuration in Table 4.1 slow.
* :func:`bind_by_core` — ``MpiProgram``'s layout: one PU per rank,
  filling the node's cores in order, SMT siblings last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import AffinityError
from repro.machine.topology import MachineTopology

__all__ = [
    "AffinityMask",
    "assign_ranks_to_nodes",
    "bind_by_core",
    "bind_compact",
    "bind_round_robin_sockets",
    "bind_unbound",
    "subthread_pus",
]


@dataclass(frozen=True)
class AffinityMask:
    """An immutable set of PU indices a thread may execute on."""

    pus: tuple

    def __post_init__(self) -> None:
        if not self.pus:
            raise AffinityError("empty affinity mask")
        object.__setattr__(self, "pus", tuple(sorted(set(self.pus))))

    def __contains__(self, pu_index: int) -> bool:
        return pu_index in self.pus

    def __len__(self) -> int:
        return len(self.pus)

    @property
    def primary(self) -> int:
        """The PU a single-threaded rank runs on (lowest index in mask)."""
        return self.pus[0]

    def intersect(self, other: "AffinityMask") -> "AffinityMask":
        common = tuple(p for p in self.pus if p in other.pus)
        if not common:
            raise AffinityError(f"disjoint masks: {self.pus} vs {other.pus}")
        return AffinityMask(common)


def assign_ranks_to_nodes(
    topo: MachineTopology, nranks: int, per_node: Optional[int] = None
) -> List[int]:
    """Block-distribute ranks over nodes (consecutive ranks share a node).

    This is GASNet's default process layout.  ``per_node`` defaults to an
    even split; the machine must have room.
    """
    if nranks < 1:
        raise AffinityError(f"nranks must be >= 1, got {nranks}")
    if per_node is None:
        per_node = -(-nranks // topo.total_nodes)  # ceil division
    if per_node < 1:
        raise AffinityError(f"per_node must be >= 1, got {per_node}")
    nodes_needed = -(-nranks // per_node)
    if nodes_needed > topo.total_nodes:
        raise AffinityError(
            f"{nranks} ranks at {per_node}/node need {nodes_needed} nodes; "
            f"machine has {topo.total_nodes}"
        )
    return [rank // per_node for rank in range(nranks)]


def _local_ranks(topo: MachineTopology, nranks: int, per_node: Optional[int]):
    """Yield ``(node, local rank)`` for each rank of the block layout,
    raising once a node holds more ranks than PUs (every binder's rule)."""
    seen: dict[int, int] = {}
    for n in assign_ranks_to_nodes(topo, nranks, per_node):
        local = seen.get(n, 0)
        seen[n] = local + 1
        node = topo.nodes[n]
        if local >= len(node.pu_indices):
            raise AffinityError(
                f"node {node.index} oversubscribed: {local + 1} ranks for "
                f"{len(node.pu_indices)} PUs"
            )
        yield node, local


def _one_pu_per_rank(
    topo: MachineTopology, nranks: int, per_node: Optional[int], core_order
) -> List[AffinityMask]:
    """One PU per rank: local rank *i* takes core ``i % ncores`` of
    ``core_order(node)`` and, once every core is taken, its SMT siblings."""
    masks = []
    for node, lr in _local_ranks(topo, nranks, per_node):
        cores = core_order(node)
        core = topo.cores[cores[lr % len(cores)]]
        masks.append(AffinityMask((core.pu_indices[lr // len(cores)],)))
    return masks


def bind_compact(
    topo: MachineTopology, nranks: int, per_node: Optional[int] = None
) -> List[AffinityMask]:
    """One PU per rank, cycling the node's sockets before its cores.

    The thesis pins processes "cyclically ... on independent ccNUMA
    nodes (CPU sockets) using numactl by default" (§4.3.2): consecutive
    local ranks alternate sockets, then take each socket's next core,
    SMT siblings only once every core is taken.
    """

    def socket_cycling(node):
        sockets = (topo.sockets[s].core_indices for s in node.socket_indices)
        return [core for cores in zip(*sockets) for core in cores]

    return _one_pu_per_rank(topo, nranks, per_node, socket_cycling)


def bind_by_core(
    topo: MachineTopology, nranks: int, per_node: Optional[int] = None
) -> List[AffinityMask]:
    """One PU per rank, filling the node's cores in order, SMT siblings last."""
    return _one_pu_per_rank(topo, nranks, per_node, lambda node: node.core_indices)


def bind_round_robin_sockets(
    topo: MachineTopology, nranks: int, per_node: Optional[int] = None
) -> List[AffinityMask]:
    """numactl-style: local rank *i* bound to socket ``i % sockets`` of its node.

    Ranks sharing a socket split its cores into contiguous chunks, so
    their sub-threads never collide; once a socket holds more ranks than
    cores, its ranks take single PUs in order.
    """
    nsock = topo.spec.node.sockets
    by_socket: dict[int, list[int]] = {}
    for rank, (node, lr) in enumerate(_local_ranks(topo, nranks, per_node)):
        by_socket.setdefault(node.socket_indices[lr % nsock], []).append(rank)
    masks: List[Optional[AffinityMask]] = [None] * nranks
    for sock, ranks in by_socket.items():
        socket = topo.sockets[sock]
        cores = socket.core_indices
        if len(ranks) <= len(cores):
            chunk, extra = divmod(len(cores), len(ranks))
            pos = 0
            for i, rank in enumerate(ranks):
                take = chunk + (1 if i < extra else 0)
                masks[rank] = AffinityMask(tuple(
                    pu for c in cores[pos:pos + take] for pu in topo.cores[c].pu_indices
                ))
                pos += take
        else:
            pus = socket.pu_indices
            for i, rank in enumerate(ranks):
                masks[rank] = AffinityMask((pus[i],))
    return masks  # type: ignore[return-value]


def bind_unbound(
    topo: MachineTopology, nranks: int, per_node: Optional[int] = None
) -> List[AffinityMask]:
    """No binding: each rank may run on any PU of its node."""
    return [
        AffinityMask(node.pu_indices)
        for node, _ in _local_ranks(topo, nranks, per_node)
    ]


def subthread_pus(topo: MachineTopology, mask: AffinityMask, count: int) -> List[int]:
    """Choose PUs for ``count`` sub-threads inside ``mask``.

    Fills distinct cores first, then SMT siblings, then wraps
    (oversubscription beyond the mask degrades to time-slicing in the
    :class:`~repro.machine.memory.SmtCore` model).
    """
    if count < 1:
        raise AffinityError(f"count must be >= 1, got {count}")
    by_core: dict[int, list[int]] = {}
    for pu in mask.pus:
        by_core.setdefault(topo.pu(pu).core_index, []).append(pu)
    for siblings in by_core.values():
        siblings.sort(key=lambda p: topo.pu(p).smt_index)
    cores_sorted = sorted(by_core)
    ordered: list[int] = []
    depth = 0
    while len(ordered) < len(mask.pus):
        for core in cores_sorted:
            siblings = by_core[core]
            if depth < len(siblings):
                ordered.append(siblings[depth])
        depth += 1
    return [ordered[i % len(ordered)] for i in range(count)]
