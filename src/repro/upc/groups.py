"""Thread groups: the Chapter-3 extension.

A :class:`ThreadGroup` wraps a GASNet team with hardware awareness: its
members, their locality relationship, a group barrier, and the privatized
pointer table that makes intra-group accesses cheap.  Groups may overlap
(a thread can hold a socket group *and* a node group simultaneously,
§3.2.1), and are built collectively:

* :func:`shared_memory_group` — peers reachable by load/store (the
  castability neighbourhood; a supernode under PSHM);
* :func:`node_group` / :func:`socket_group` — hardware-level groups;
* :func:`split` — arbitrary color/key grouping, the general mechanism.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.gasnet.team import Team
from repro.upc.pointers import PointerTable

__all__ = ["ThreadGroup", "shared_memory_group", "node_group", "socket_group", "split"]


class ThreadGroup:
    """A hardware-aware thread subset (see module docstring)."""

    def __init__(self, team: Team, upc, pointer_table: Optional[PointerTable] = None):
        self.team = team
        self.mythread = upc.MYTHREAD
        self.pointer_table = pointer_table
        self._upc = upc

    @property
    def members(self) -> tuple:
        return self.team.members

    @property
    def size(self) -> int:
        return len(self.team)

    @property
    def rank(self) -> int:
        return self.team.rank(self.mythread)

    def peers(self) -> tuple:
        """Members other than the calling thread."""
        return tuple(t for t in self.team.members if t != self.mythread)

    @property
    def is_shared_memory(self) -> bool:
        """True when every member pair can bypass the network."""
        gasnet = self._upc.gasnet
        me = self.mythread
        return all(gasnet.can_bypass(me, t) for t in self.team.members)

    def barrier(self) -> Generator:
        yield from self.team.barrier(self.mythread)

    def __repr__(self) -> str:
        return f"<ThreadGroup {self.team.name} members={self.team.members}>"


def split(upc, color: int, key: Optional[int] = None, build_table: bool = True):
    """Simulated generator: collectively split the world by color/key.

    All threads must call; threads sharing a color form one group.
    Returns this thread's :class:`ThreadGroup`.  Each color's members are
    ordered by ``(key, thread)``, and its team is named ``<world>/c<color>``.
    """
    world = upc.program.world
    tag_team = world.op_tag(upc.MYTHREAD)

    def combine(payloads: Dict[int, tuple]) -> Dict[int, Team]:
        """Build every color's team once, from all threads' ``(color, key)``."""
        by_color: Dict[int, list] = {}
        for t, (c, k) in payloads.items():
            by_color.setdefault(c, []).append((k, t))
        team_of: Dict[int, Team] = {}
        for c, keyed in sorted(by_color.items()):
            members = [t for _k, t in sorted(keyed)]
            team = Team(upc.sim, members, name=f"{world.name}/c{c}")
            for t in members:
                team_of[t] = team
        return team_of

    key = key if key is not None else upc.MYTHREAD
    team_map = yield from upc.collective(f"group_split:{tag_team}", (color, key), combine)
    team = team_map[upc.MYTHREAD]
    table = None
    if build_table:
        table = yield from PointerTable.build(upc)
    return ThreadGroup(team, upc, pointer_table=table)


def shared_memory_group(upc, build_table: bool = True):
    """Simulated generator: group = my PSHM supernode (castable peers)."""
    peers = upc.peers_sharing_memory()
    color = min(peers)
    group = yield from split(upc, color=color, build_table=build_table)
    return group


def node_group(upc, build_table: bool = True):
    """Simulated generator: group = threads on my node."""
    group = yield from split(upc, color=upc.my_node, build_table=build_table)
    return group


def socket_group(upc, build_table: bool = True):
    """Simulated generator: group = threads on my socket (ccNUMA domain)."""
    group = yield from split(upc, color=upc.my_socket, build_table=build_table)
    return group
