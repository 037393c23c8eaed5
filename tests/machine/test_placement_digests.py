"""Pinned rank placements of both launchers over a grid of machines.

Table 4.1 turns on where processes land, so every binding policy is
pinned here: for each of ``UpcProgram``'s ``compact``, ``sockets`` and
``unbound`` bindings, and for ``MpiProgram``, one sha256 over the
canonical JSON of every program's per-thread ``(node, pu, process_id)``
(and, for UPC, ``program.masks``).  The grid is lehman(4), pyramid(8)
and generic_smp(2) on 1-2 nodes at every per-node count up to the
node's PU count, with ``threads_per_process`` 1, 2 and 4 where it
divides (400 programs).

Re-pin only for an intended placement change, computed on the commit
before it: ``PYTHONPATH=src python -m tests.machine.test_placement_digests``
prints the digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.machine.presets import generic_smp, lehman, pyramid
from repro.mpi import MpiProgram
from repro.upc import UpcProgram

DIGESTS = Path(__file__).parent / "golden" / "placement_digests.json"
PRESETS = (lehman(nodes=4), pyramid(nodes=8), generic_smp(nodes=2))
BINDINGS = ("compact", "sockets", "unbound")


def _grid():
    """``(preset, nodes used, per-node count)`` for every grid point."""
    for preset in PRESETS:
        pus = preset.machine.node.pus
        for nodes in (1, 2):
            for per_node in range(1, pus + 1):
                yield preset, nodes, per_node


def _locations(program):
    return [
        [loc.node, loc.pu, loc.process_id] for loc in program.gasnet.locations
    ]


def _records(binding):
    """The canonical placement record of every program under ``binding``."""
    records = []
    for preset, nodes, per_node in _grid():
        if binding == "mpi":
            prog = MpiProgram(preset, ranks=nodes * per_node, ranks_per_node=per_node)
            records.append([preset.machine.name, nodes, per_node, _locations(prog)])
            continue
        for tpp in (1, 2, 4):
            if per_node % tpp:
                continue
            prog = UpcProgram(
                preset, threads=nodes * per_node, threads_per_node=per_node,
                threads_per_process=tpp, binding=binding,
            )
            records.append([
                preset.machine.name, nodes, per_node, tpp, _locations(prog),
                [list(mask.pus) for mask in prog.masks],
            ])
    return records


def placement_digest(binding):
    text = json.dumps(_records(binding), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("binding", [*BINDINGS, "mpi"])
def test_placement_matches_pinned_digest(binding):
    pinned = json.loads(DIGESTS.read_text())[binding]
    assert placement_digest(binding) == pinned, (
        f"{binding} placement moved on the pinned grid; re-pin "
        "tests/machine/golden/placement_digests.json only for an intended "
        "placement change, and say why in CHANGES.md."
    )


if __name__ == "__main__":
    print(json.dumps(
        {b: placement_digest(b) for b in [*BINDINGS, "mpi"]}, indent=2
    ))
