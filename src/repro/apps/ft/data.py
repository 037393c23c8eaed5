"""FT data plane: slab decomposition bookkeeping (real backing).

Layout **D1** splits z: thread *i* holds ``(lnz, ny, nx)``.
Layout **D2** splits y: thread *j* holds ``(lny, nz, nx)``.
The global exchange moves block ``(i → j)`` of shape ``(lnz, lny, nx)``.

These helpers are pure NumPy index bookkeeping — the simulation charges
the time; this module guarantees the *bytes end up in the right place*,
which is what the end-to-end checksum verification exercises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.apps.ft.classes import FtClass
from repro.apps.ft.kernel import initial_condition

if TYPE_CHECKING:
    import numpy as np

__all__ = ["FtState"]


class FtState:
    """Shared data-plane state for one distributed FT run."""

    def __init__(self, cls: FtClass, threads: int, backing: str = "real",
                 seed: Optional[int] = None):
        if cls.nz % threads or cls.ny % threads:
            raise ValueError(
                f"{cls}: nz={cls.nz} and ny={cls.ny} must divide by "
                f"THREADS={threads} for the 1-D decomposition"
            )
        if backing not in ("real", "virtual"):
            raise ValueError(f"unknown backing {backing!r}")
        self.cls = cls
        self.threads = threads
        self.backing = backing
        self.lnz = cls.nz // threads
        self.lny = cls.ny // threads
        self.bytes_per_pair = self.lnz * self.lny * cls.nx * 16
        self.local_bytes = cls.total_points * 16 // threads
        self.plane_bytes = cls.ny * cls.nx * 16          # one z-plane in D1
        self.plane_slice_bytes = self.lny * cls.nx * 16  # per-peer slice of a plane
        # data plane (real backing only)
        self.d1: Dict[int, np.ndarray] = {}
        self.d2: Dict[int, np.ndarray] = {}
        self.blocks: Dict[tuple, np.ndarray] = {}
        self.checksums: list = []
        self._seed = seed

    @property
    def real(self) -> bool:
        return self.backing == "real"

    # -- data operations (no simulated cost; callers charge separately) ----

    def init_field(self) -> None:
        """Generate u0 and hand each thread its D1 slab (call once)."""
        if not self.real:
            return
        from repro.apps.ft.kernel import NAS_SEED

        u0 = initial_condition(self.cls, seed=self._seed or NAS_SEED)
        for t in range(self.threads):
            self.d1[t] = u0[t * self.lnz:(t + 1) * self.lnz].copy()

    def fft2d(self, thread: int, inverse: bool = False) -> None:
        """(Inverse) 2-D FFT over (y, x) of the thread's D1 slab."""
        if not self.real:
            return
        import numpy as np

        fn = np.fft.ifft2 if inverse else np.fft.fft2
        self.d1[thread] = fn(self.d1[thread], axes=(1, 2))

    def fft1d(self, thread: int, inverse: bool = False) -> None:
        """(Inverse) 1-D FFT along z of the thread's D2 slab."""
        if not self.real:
            return
        import numpy as np

        fn = np.fft.ifft if inverse else np.fft.fft
        self.d2[thread] = fn(self.d2[thread], axis=1)

    def evolve(self, thread: int, factors_d2: np.ndarray) -> np.ndarray:
        """Multiply the thread's D2 spectrum slab by its factor slice.

        Returns the evolved slab *without* overwriting the spectrum (NAS
        keeps u1 and writes u2).
        """
        if not self.real:
            return None  # type: ignore[return-value]
        return self.d2[thread] * factors_d2

    def factors_slice_d2(self, thread: int, factors: np.ndarray) -> np.ndarray:
        """The (lny, nz, nx) slice of global (nz, ny, nx) factors for D2."""
        import numpy as np

        y0 = thread * self.lny
        return np.ascontiguousarray(
            factors[:, y0:y0 + self.lny, :].transpose(1, 0, 2)
        )

    def pack_d1_to_blocks(self, thread: int, source: Optional[np.ndarray] = None) -> None:
        """Split the D1 slab into per-destination blocks (i -> j)."""
        if not self.real:
            return
        slab = self.d1[thread] if source is None else source
        for j in range(self.threads):
            y0 = j * self.lny
            self.blocks[(thread, j)] = slab[:, y0:y0 + self.lny, :].copy()

    def pack_d2_to_blocks(self, thread: int, source: Optional[np.ndarray] = None) -> None:
        """Split a D2 slab into per-destination blocks (i -> j)."""
        if not self.real:
            return
        slab = self.d2[thread] if source is None else source
        for j in range(self.threads):
            z0 = j * self.lnz
            self.blocks[(thread, j)] = slab[:, z0:z0 + self.lnz, :].copy()

    def unpack_blocks_to_d2(self, thread: int) -> None:
        """Assemble the thread's D2 slab from received (i -> me) blocks."""
        if not self.real:
            return
        import numpy as np

        cls = self.cls
        slab = np.empty((self.lny, cls.nz, cls.nx), dtype=np.complex128)
        for i in range(self.threads):
            block = self.blocks[(i, thread)]  # (lnz, lny, nx)
            slab[:, i * self.lnz:(i + 1) * self.lnz, :] = block.transpose(1, 0, 2)
        self.d2[thread] = slab

    def unpack_blocks_to_d1(self, thread: int) -> None:
        """Assemble the thread's D1 slab from received (i -> me) blocks."""
        if not self.real:
            return
        import numpy as np

        cls = self.cls
        slab = np.empty((self.lnz, cls.ny, cls.nx), dtype=np.complex128)
        for i in range(self.threads):
            block = self.blocks[(i, thread)]  # (lny, lnz, nx)
            slab[:, i * self.lny:(i + 1) * self.lny, :] = block.transpose(1, 0, 2)
        self.d1[thread] = slab

    def local_checksum(self, thread: int) -> complex:
        """This thread's share of the NAS checksum (points in its D1 slab)."""
        if not self.real:
            return 0j
        import numpy as np

        cls = self.cls
        j = np.arange(1, 1025)
        q = j % cls.nx
        r = (3 * j) % cls.ny
        s = (5 * j) % cls.nz
        z0 = thread * self.lnz
        mine = (s >= z0) & (s < z0 + self.lnz)
        if not mine.any():
            return 0j
        return complex(self.d1[thread][s[mine] - z0, r[mine], q[mine]].sum())

    def gather_d1(self) -> np.ndarray:
        """The full field assembled from D1 slabs (verification only)."""
        if not self.real:
            raise ValueError("virtual backing has no data to gather")
        import numpy as np

        return np.concatenate([self.d1[t] for t in range(self.threads)], axis=0)
