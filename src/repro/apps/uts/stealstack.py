"""Per-thread steal-stacks living (conceptually) in UPC shared memory.

The owner does depth-first work on the head; thieves take from the tail
under the stack's lock.  Data-plane operations are instantaneous (the
simulation charges time separately); this class also accumulates the
per-thread statistics Table 3.2 reports.
"""

from __future__ import annotations

from typing import List

from repro.apps.uts.tree import Node

__all__ = ["StealStack"]

#: Serialized size of one tree node in the shared steal-stack:
#: 20-byte SHA-1 state + height + metadata, as in the reference UTS.
NODE_BYTES = 28


class StealStack:
    """One thread's work stack plus its steal-side bookkeeping."""

    def __init__(self, owner: int, chunk_size: int):
        self.owner = owner
        self.chunk_size = chunk_size
        self._nodes: List[Node] = []
        # statistics
        self.nodes_processed = 0
        self.steals_attempted = 0
        self.steals_successful = 0
        self.times_stolen_from = 0
        self.nodes_stolen_away = 0

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def available_to_steal(self) -> int:
        """Work a thief may take: everything beyond one owner chunk."""
        return max(0, len(self._nodes) - self.chunk_size)

    def push(self, nodes: List[Node]) -> None:
        self._nodes.extend(nodes)

    def pop_chunk(self, max_nodes: int) -> List[Node]:
        """Owner-side pop from the head (LIFO: depth-first exploration)."""
        if max_nodes <= 0:
            return []
        taken = self._nodes[-max_nodes:]
        del self._nodes[-max_nodes:]
        return list(reversed(taken))

    def drop_all(self) -> int:
        """Crash path: discard all queued work, returning how many nodes.

        Called when the owning thread's node fail-stops; the dropped
        nodes are accounted as lost work by the driver.
        """
        lost = len(self._nodes)
        self._nodes.clear()
        return lost

    def steal_from_tail(self, count: int) -> List[Node]:
        """Thief-side take from the tail (oldest, shallowest work)."""
        count = min(count, self.available_to_steal)
        if count <= 0:
            return []
        stolen = self._nodes[:count]
        del self._nodes[:count]
        self.times_stolen_from += 1
        self.nodes_stolen_away += count
        return stolen
