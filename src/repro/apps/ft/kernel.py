"""Serial NAS FT reference: initial conditions, evolution, checksums.

Implements the benchmark's defining math with ``numpy.fft`` so the
distributed implementations can be verified *end to end*: same NAS
linear-congruential initial data, same evolution factors, same checksum
points.  (Arrays here are indexed ``[z, y, x]``, C order; the NAS Fortran
code is ``u(x,y,z)`` column-major — the memory layouts coincide.)
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List

from repro.apps.ft.classes import FtClass

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "nas_random",
    "initial_condition",
    "evolve_factors",
    "checksum",
    "serial_ft",
    "ALPHA",
    "NAS_SEED",
]

#: NAS FT's diffusion constant.
ALPHA = 1.0e-6
#: NAS pseudorandom generator constants.
NAS_SEED = 314159265
_NAS_A = 1220703125  # 5^13
_MASK46 = (1 << 46) - 1
_SCALE = 0.5 ** 46


def nas_random(n: int, seed: int = NAS_SEED) -> np.ndarray:
    """``n`` doubles in (0,1) from the NAS 46-bit LCG (``randlc``).

    x_{k+1} = a * x_k mod 2^46 with a = 5^13; exactly the generator the
    NAS benchmarks use (the power-of-two modulus makes the mod a mask).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    import numpy as np

    out = np.empty(n, dtype=np.float64)
    x = seed
    a = _NAS_A
    for i in range(n):
        x = (a * x) & _MASK46
        out[i] = x * _SCALE
    return out


def initial_condition(cls: FtClass, seed: int = NAS_SEED) -> np.ndarray:
    """The complex initial field ``u0`` with NAS-LCG data, shape (nz, ny, nx)."""
    vals = nas_random(2 * cls.total_points, seed=seed)
    re = vals[0::2].reshape(cls.nz, cls.ny, cls.nx)
    im = vals[1::2].reshape(cls.nz, cls.ny, cls.nx)
    return re + 1j * im


def _wrapped_sq(n: int) -> np.ndarray:
    """Squared 'signed' frequency indices: k -> min(k, n-k)^2 pattern."""
    import numpy as np

    k = np.arange(n)
    kbar = np.where(k <= n // 2, k, k - n)
    return (kbar * kbar).astype(np.float64)


def evolve_factors(cls: FtClass, t: int) -> np.ndarray:
    """``exp(-4 π² α t k̄²)`` over the (nz, ny, nx) frequency grid."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    import numpy as np

    kz = _wrapped_sq(cls.nz)[:, None, None]
    ky = _wrapped_sq(cls.ny)[None, :, None]
    kx = _wrapped_sq(cls.nx)[None, None, :]
    expo = -4.0 * math.pi ** 2 * ALPHA * t * (kx + ky + kz)
    return np.exp(expo)


def checksum(x: np.ndarray, cls: FtClass) -> complex:
    """The NAS checksum: 1024 strided samples of the field.

    NAS (1-based): q = mod(j,nx)+1, r = mod(3j,ny)+1, s = mod(5j,nz)+1.
    """
    import numpy as np

    j = np.arange(1, 1025)
    q = j % cls.nx
    r = (3 * j) % cls.ny
    s = (5 * j) % cls.nz
    return complex(x[s, r, q].sum())


def serial_ft(cls: FtClass, iterations: int = 0, seed: int = NAS_SEED) -> List[complex]:
    """Run the reference benchmark; returns the per-iteration checksums.

    ``iterations=0`` uses the class's standard count.
    """
    import numpy as np

    iters = iterations or cls.iterations
    u0 = initial_condition(cls, seed=seed)
    u1 = np.fft.fftn(u0)
    checksums: List[complex] = []
    for t in range(1, iters + 1):
        u2 = u1 * evolve_factors(cls, t)
        x = np.fft.ifftn(u2)
        checksums.append(checksum(x, cls))
    return checksums
