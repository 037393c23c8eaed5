"""Hierarchical machine models: topology, memory cost model, affinity.

The paper's clusters are "clusters of SMPs": multi-socket ccNUMA nodes
with multi-core (and, on Nehalem, SMT) processors, joined by InfiniBand or
Ethernet.  This package describes such machines (:mod:`~repro.machine.topology`),
prices memory traffic on them (:mod:`~repro.machine.memory`), places
threads onto them (:mod:`~repro.machine.affinity`) and provides the two
experimental platforms from Table 2.1 as presets
(:mod:`~repro.machine.presets`).
"""

from repro.machine.topology import (
    Core,
    Locality,
    MachineSpec,
    MachineTopology,
    Node,
    NodeSpec,
    ProcessingUnit,
    Socket,
)
from repro.machine.memory import MemoryParams, MemorySystem, SmtCore
from repro.machine.affinity import (
    AffinityMask,
    bind_by_core,
    bind_compact,
    bind_round_robin_sockets,
    bind_unbound,
)
from repro.machine import presets

__all__ = [
    "AffinityMask",
    "Core",
    "Locality",
    "MachineSpec",
    "MachineTopology",
    "MemoryParams",
    "MemorySystem",
    "Node",
    "NodeSpec",
    "ProcessingUnit",
    "SmtCore",
    "Socket",
    "bind_by_core",
    "bind_compact",
    "bind_round_robin_sockets",
    "bind_unbound",
    "presets",
]
