"""GASNet extended API: non-blocking put/get with explicit handles.

Mirrors Berkeley UPC's ``bupc_memput_async``/``upc_waitsync`` pair used in
Fig 3.4(b): ``put_nb`` returns immediately with a :class:`Handle`; the
caller overlaps computation and later waits.  Timing statistics separate
*initiation* cost (charged inline before the handle is returned) from
*synchronization* wait time, so the harness can reproduce the paper's
init-vs-waitsync breakdown.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import GasnetError
from repro.gasnet.core import GasnetRuntime
from repro.obs import names
from repro.sim.engine import Process

__all__ = ["Handle", "put_nb", "get_nb", "put", "get"]


class Handle:
    """Completion handle for a non-blocking operation."""

    def __init__(self, runtime: GasnetRuntime, process: Process, issued_at: float):
        self._runtime = runtime
        self._process = process
        self.issued_at = issued_at
        self._synced = False

    @property
    def done(self) -> bool:
        return self._process.done

    def wait(self) -> Generator:
        """Simulated generator: block until the operation completes.

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


def put_nb(
    runtime: GasnetRuntime,
    src_thread: int,
    dst_thread: int,
    nbytes: float,
    privatized: bool = False,
    initiator_pu: int | None = None,
) -> Handle:
    """Initiate a non-blocking put; returns a :class:`Handle` immediately.

    Note: initiation software cost is part of the spawned operation (the
    real call returns after injecting; the distinction is below the
    resolution the experiments need).
    """
    proc = runtime.sim.spawn(
        runtime.xfer(src_thread, dst_thread, nbytes, "put", privatized=privatized,
                     initiator_pu=initiator_pu),
        name=f"put_nb[{src_thread}->{dst_thread}]",
    )
    return Handle(runtime, proc, issued_at=runtime.sim.now)


def get_nb(
    runtime: GasnetRuntime,
    src_thread: int,
    dst_thread: int,
    nbytes: float,
    privatized: bool = False,
    initiator_pu: int | None = None,
) -> Handle:
    """Initiate a non-blocking get of ``nbytes`` from ``dst_thread``."""
    proc = runtime.sim.spawn(
        runtime.xfer(src_thread, dst_thread, nbytes, "get", privatized=privatized,
                     initiator_pu=initiator_pu),
        name=f"get_nb[{src_thread}<-{dst_thread}]",
    )
    return Handle(runtime, proc, issued_at=runtime.sim.now)


def put(
    runtime: GasnetRuntime,
    src_thread: int,
    dst_thread: int,
    nbytes: float,
    privatized: bool = False,
    initiator_pu: int | None = None,
) -> Generator:
    """Blocking put (``upc_memput``-shaped)."""
    yield from runtime.xfer(src_thread, dst_thread, nbytes, "put", privatized=privatized,
                            initiator_pu=initiator_pu)


def get(
    runtime: GasnetRuntime,
    src_thread: int,
    dst_thread: int,
    nbytes: float,
    privatized: bool = False,
    initiator_pu: int | None = None,
) -> Generator:
    """Blocking get (``upc_memget``-shaped)."""
    yield from runtime.xfer(src_thread, dst_thread, nbytes, "get", privatized=privatized,
                            initiator_pu=initiator_pu)
