"""UPC ↔ sub-thread interoperability: thread safety and the sub-thread view.

§4.2.3 maps the MPI-2 thread-safety vocabulary onto UPC: a thread-compliant
runtime should let sub-threads issue UPC calls concurrently
(``THREAD_MULTIPLE``); the Berkeley runtime of the day was effectively
``THREAD_FUNNELED`` (only the master may communicate), with user-spawned
threads crashing on thread-specific runtime data.  The
:class:`SubthreadContext` enforces whichever level the job requests —
violating it raises :class:`~repro.errors.SubthreadError`, the simulated
analogue of those crashes.
"""

from __future__ import annotations

import enum
from typing import Generator, Optional

from repro.errors import SubthreadError
from repro.gasnet import extended
from repro.gasnet.job import LocalWork
from repro.sim import Resource

__all__ = ["ThreadSafety", "SubthreadContext"]


class ThreadSafety(enum.Enum):
    """MPI-2-style thread-support levels applied to UPC (§4.2.3)."""

    SINGLE = "single"          #: no sub-thread may issue UPC calls at all
    FUNNELED = "funneled"      #: only the master sub-thread (index 0) may
    SERIALIZED = "serialized"  #: any sub-thread, one at a time
    MULTIPLE = "multiple"      #: any sub-thread, concurrently


class SubthreadContext(LocalWork):
    """What one sub-thread sees: its identity, core, and permitted services.

    Compute and memory streaming are always allowed (they are plain
    shared-memory work, scaled by the runtime's ``work_inflation``).  UPC
    communication is gated by the job's :class:`ThreadSafety` level.
    """

    def __init__(
        self,
        upc,
        index: int,
        count: int,
        pu: int,
        safety: ThreadSafety,
        comm_mutex: Optional[Resource] = None,
        work_inflation: float = 1.0,
    ):
        self.upc = upc
        self.index = index
        self.count = count
        self.pu = pu
        self.safety = safety
        self._comm_mutex = comm_mutex
        self.work_inflation = work_inflation
        self.sim = upc.sim
        self.mem = upc.mem
        self.gasnet = upc.gasnet
        self._home = upc.MYTHREAD

    # -- local work (compute, compute_flops, local_stream: LocalWork) ---------

    def stream_from(
        self, owner_thread: int, bytes_read: float, bytes_written: float
    ) -> Generator:
        """Stream against a UPC thread's segment — PGAS reach extends to
        sub-threads (unlike MPI+threads, §4.1.2)."""
        home = self.gasnet.segment_socket(owner_thread)
        yield from self.mem.stream(self.pu, bytes_read, bytes_written, home)

    # -- UPC communication (gated) ----------------------------------------------

    def _check_comm(self) -> None:
        if self.safety is ThreadSafety.SINGLE:
            raise SubthreadError(
                "THREAD_SINGLE: sub-threads may not issue UPC calls"
            )
        if self.safety is ThreadSafety.FUNNELED and self.index != 0:
            raise SubthreadError(
                f"THREAD_FUNNELED: sub-thread {self.index} attempted a UPC "
                "call; only the master may communicate"
            )

    def _gated(self, transfer: Generator) -> Generator:
        """Run one blocking UPC transfer under the job's safety level:
        refused per :meth:`_check_comm`, one at a time under SERIALIZED."""
        self._check_comm()
        if self.safety is not ThreadSafety.SERIALIZED:
            yield from transfer
            return
        yield self._comm_mutex.acquire()
        try:
            yield from transfer
        finally:
            self._comm_mutex.release()

    def memput(self, dst_thread: int, nbytes: float, privatized: bool = False):
        return self._gated(extended.put(
            self.gasnet, self.upc.MYTHREAD, dst_thread, nbytes,
            privatized, initiator_pu=self.pu,
        ))

    def memget(self, src_thread: int, nbytes: float, privatized: bool = False):
        return self._gated(extended.get(
            self.gasnet, self.upc.MYTHREAD, src_thread, nbytes,
            privatized, initiator_pu=self.pu,
        ))

    def memput_nb(self, dst_thread: int, nbytes: float, privatized: bool = False):
        self._check_comm()
        if self.safety is ThreadSafety.SERIALIZED:
            raise SubthreadError(
                "THREAD_SERIALIZED cannot express non-blocking overlap; "
                "use MULTIPLE"
            )
        return extended.put_nb(
            self.upc.gasnet, self.upc.MYTHREAD, dst_thread, nbytes,
            privatized, initiator_pu=self.pu,
        )

    def __repr__(self) -> str:
        return (
            f"<Subthread {self.index}/{self.count} of UPC thread "
            f"{self.upc.MYTHREAD} on PU {self.pu}>"
        )
