"""The UPC/PGAS runtime on the simulated cluster.

This package models Unified Parallel C's memory and execution model
(Fig 2.4): SPMD threads with private memory plus a partitioned global
address space, shared arrays with affinity and blocking factors, shared
pointers (with their translation cost and the ``bupc_cast`` privatization
extension), barriers/locks, collectives, ``upc_forall``, and the thesis's
Chapter-3 *thread groups* extension.

Programs are written as generator functions taking a per-thread
:class:`~repro.upc.runtime.Upc` context::

    def main(upc):
        if upc.MYTHREAD == 0:
            ...
        yield from upc.barrier()

and launched with :class:`~repro.upc.runtime.UpcProgram`.
"""

from repro.upc.runtime import ProgramResult, Upc, UpcProgram
from repro.upc.shared import SharedArray
from repro.upc.pointers import SharedPointer, PointerTable
from repro.upc.sync import UpcLock
from repro.upc.groups import ThreadGroup
from repro.upc import collectives, forall

__all__ = [
    "PointerTable",
    "ProgramResult",
    "SharedArray",
    "SharedPointer",
    "ThreadGroup",
    "Upc",
    "UpcLock",
    "UpcProgram",
    "collectives",
    "forall",
]
