"""Shared arrays: the partitioned global address space.

A :class:`SharedArray` is a 1-D global array distributed block-cyclically
over UPC threads (layout qualifier ``blocksize``; UPC's default is 1 —
pure cyclic — and ``"block"`` gives the ceil-divided block distribution).
Element *i* has affinity to thread ``(i // blocksize) % THREADS``, and its
bytes live on that thread's segment socket for costing purposes.

Two backings:

* ``"real"`` — a NumPy array actually holds the data, so applications
  compute real results through the PGAS machinery (used by the verified
  small-scale runs, e.g. FT class S against ``numpy.fft``).
* ``"virtual"`` — metadata only; reads return zeros and writes are
  dropped.  Timing behaviour is identical, which is what lets the
  harness run paper-scale problems (FT class B) without 0.5 GB arrays.

NumPy is imported inside the methods that use it, never at module
import, so a run that allocates no shared array does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Iterable, Optional

from repro.errors import UpcError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SharedArray"]


class SharedArray:
    """A block-cyclically distributed global array (see module docstring)."""

    def __init__(
        self,
        program,
        nelems: int,
        dtype=None,
        blocksize: Optional[object] = None,
        backing: str = "real",
    ):
        import numpy as np

        if nelems < 1:
            raise UpcError(f"nelems must be >= 1, got {nelems}")
        if backing not in ("real", "virtual"):
            raise UpcError(f"unknown backing {backing!r}")
        self.program = program
        self.nelems = nelems
        self.dtype = np.dtype(dtype if dtype is not None else np.float64)
        self.threads = program.threads
        if blocksize is None:
            blocksize = 1
        elif blocksize == "block":
            blocksize = -(-nelems // self.threads)
        if not isinstance(blocksize, int) or blocksize < 1:
            raise UpcError(f"bad blocksize {blocksize!r}")
        self.blocksize = blocksize
        self.backing = backing
        self._data = (
            np.zeros(nelems, dtype=self.dtype) if backing == "real" else None
        )

    # -- layout ------------------------------------------------------------

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return self.nelems * self.itemsize

    def owner(self, index: int) -> int:
        """Thread with affinity to element ``index``."""
        self._check_index(index)
        return (index // self.blocksize) % self.threads

    def local_size(self, thread: int) -> int:
        """Number of elements with affinity to ``thread``."""
        full_cycles, rem = divmod(self.nelems, self.blocksize * self.threads)
        count = full_cycles * self.blocksize
        start = thread * self.blocksize
        count += max(0, min(rem - start, self.blocksize))
        return count

    def local_indices(self, thread: int) -> np.ndarray:
        """Global indices of elements with affinity to ``thread``."""
        import numpy as np

        idx = np.arange(self.nelems)
        return idx[(idx // self.blocksize) % self.threads == thread]

    def affinity_runs(self, start: int, count: int) -> Iterable[tuple]:
        """Yield ``(owner, run_start, run_len)`` over ``[start, start+count)``.

        Splits an index range into maximal contiguous single-owner runs —
        the unit at which bulk memory operations charge costs.
        """
        if count < 0:
            raise UpcError(f"negative count {count}")
        if count == 0:
            return
        self._check_index(start)
        self._check_index(start + count - 1)
        pos = start
        end = start + count
        while pos < end:
            block_end = (pos // self.blocksize + 1) * self.blocksize
            run_end = min(end, block_end)
            yield self.owner(pos), pos, run_end - pos
            pos = run_end

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.nelems:
            raise UpcError(f"index {index} out of range [0, {self.nelems})")

    # -- raw data access (no cost: the data plane is instantaneous) ---------

    def view(self) -> np.ndarray:
        """The full backing array (real backing only)."""
        if self._data is None:
            raise UpcError("virtual arrays have no data; use a real backing")
        return self._data

    def __getitem__(self, key):
        if self._data is None:
            raise UpcError("virtual arrays have no data; use a real backing")
        return self._data[key]

    def __setitem__(self, key, value):
        if self._data is None:
            raise UpcError("virtual arrays have no data; use a real backing")
        self._data[key] = value

    # -- costed operations ----------------------------------------------------

    def read_elem(self, upc, index: int, privatized: bool = False):
        """Simulated generator: one fine-grained shared read.

        Charges pointer translation (unless privatized) plus element
        traffic against the owner's socket; returns the value (real
        backing) or 0 (virtual).
        """
        owner = self.owner(index)
        sanitizer = upc.sim.sanitizer
        if sanitizer.enabled:
            sanitizer.on_access(upc.MYTHREAD, self, index, 1, False, "read_elem")
        if not privatized:
            yield from upc.charge_shared_accesses(1)
        if upc.gasnet.can_bypass(upc.MYTHREAD, owner):
            yield from upc.stream_from(owner, self.itemsize, 0)
        else:
            yield from upc.memget(owner, self.itemsize)
        return self._data[index] if self._data is not None else self.dtype.type(0)

    def write_elem(self, upc, index: int, value, privatized: bool = False) -> Generator:
        """Simulated generator: one fine-grained shared write."""
        owner = self.owner(index)
        sanitizer = upc.sim.sanitizer
        if sanitizer.enabled:
            sanitizer.on_access(upc.MYTHREAD, self, index, 1, True, "write_elem")
        if not privatized:
            yield from upc.charge_shared_accesses(1)
        if upc.gasnet.can_bypass(upc.MYTHREAD, owner):
            yield from upc.stream_from(owner, 0, self.itemsize)
        else:
            yield from upc.memput(owner, self.itemsize)
        if self._data is not None:
            self._data[index] = value

    def get_block(self, upc, start: int, count: int, privatized: bool = False):
        """Simulated generator: bulk ``upc_memget`` of a global range.

        Charges one operation per single-owner run; returns a NumPy copy
        (real backing) or ``None`` (virtual).
        """
        sanitizer = upc.sim.sanitizer
        if sanitizer.enabled and count > 0:
            sanitizer.on_access(upc.MYTHREAD, self, start, count, False, "get_block")
        for owner, run_start, run_len in self.affinity_runs(start, count):
            nbytes = run_len * self.itemsize
            if owner == upc.MYTHREAD:
                yield from upc.local_stream(nbytes, nbytes)
            else:
                yield from upc.memget(owner, nbytes, privatized=privatized and upc.can_cast(owner))
        if self._data is not None:
            return self._data[start:start + count].copy()
        return None

    def put_block(
        self, upc, start: int, data=None, privatized: bool = False,
        count: Optional[int] = None,
    ) -> Generator:
        """Simulated generator: bulk ``upc_memput`` into a global range.

        Real backing takes ``data`` (a sequence written into the range);
        virtual backing has nowhere to put values, so the range length
        must be an explicit ``count=`` — historically a scalar ``data``
        was silently reinterpreted as a count, which hid genuine
        data-vs-count call-site bugs.
        """
        import numpy as np

        if self._data is not None:
            if data is None:
                raise UpcError("put_block on a real-backed array needs data")
            data = np.asarray(data, dtype=self.dtype)
            if data.ndim == 0:
                raise UpcError(
                    "put_block data must be a sequence of elements; got a "
                    "scalar (pass count= to size a virtual-array put)"
                )
            if count is not None and count != len(data):
                raise UpcError(
                    f"put_block count={count} disagrees with len(data)={len(data)}"
                )
            count = len(data)
        elif count is None:
            if data is None or np.isscalar(data):
                raise UpcError(
                    "put_block on a virtual array needs an explicit count= "
                    "(a bare scalar is ambiguous: value or element count?)"
                )
            count = len(data)
        elif data is not None and not np.isscalar(data) and len(data) != count:
            raise UpcError(
                f"put_block count={count} disagrees with len(data)={len(data)}"
            )
        sanitizer = upc.sim.sanitizer
        if sanitizer.enabled and count > 0:
            sanitizer.on_access(upc.MYTHREAD, self, start, count, True, "put_block")
        for owner, run_start, run_len in self.affinity_runs(start, count):
            nbytes = run_len * self.itemsize
            if owner == upc.MYTHREAD:
                yield from upc.local_stream(nbytes, nbytes)
            else:
                yield from upc.memput(owner, nbytes, privatized=privatized and upc.can_cast(owner))
        if self._data is not None:
            self._data[start:start + count] = data

    def __repr__(self) -> str:
        return (
            f"<SharedArray n={self.nelems} dtype={self.dtype} "
            f"bs={self.blocksize} {self.backing}>"
        )
