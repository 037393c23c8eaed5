"""NAS FT: 3-D FFT benchmark (§3.3.3, §4.3.3).

Solves a PDE with forward/inverse 3-D FFTs: ``u1 = FFT(u0)`` once, then
each iteration multiplies by evolution factors, inverse-transforms, and
checksums.  The 1-D slab decomposition computes two dimensions locally
and re-localizes the third with a global exchange — the all-to-all that
dominates execution and motivates both of the thesis's approaches.

* :mod:`~repro.apps.ft.classes` — NAS problem classes (S/W/A/B).
* :mod:`~repro.apps.ft.kernel` — serial reference: NAS LCG initial
  conditions, evolution factors, checksums, ``numpy.fft`` evolution.
* :mod:`~repro.apps.ft.distributed` — the UPC implementations
  (split-phase and overlap; pure, pthreads, and hybrid sub-threads)
  plus the MPI comparator, with per-phase timing.

NumPy is imported inside the functions that compute with arrays (the
serial reference and the real-backed data plane), never at module
import, so virtual-backed timing runs do not load it.
"""

from repro.apps.ft.classes import FT_CLASSES, FtClass, ft_class
from repro.apps.ft.kernel import (
    checksum,
    evolve_factors,
    initial_condition,
    nas_random,
    serial_ft,
)
from repro.apps.ft.distributed import FtConfig, run_exchange_only, run_ft

__all__ = [
    "FT_CLASSES",
    "FtClass",
    "FtConfig",
    "checksum",
    "evolve_factors",
    "ft_class",
    "initial_condition",
    "nas_random",
    "run_exchange_only",
    "run_ft",
    "run_request",
    "serial_ft",
]


def run_request(spec) -> dict:
    """Normalized campaign adapter for the FT app family.

    ``spec.app`` selects the entry point: ``"ft"`` → :func:`run_ft`,
    ``"ft.exchange"`` → :func:`run_exchange_only`.  Complex checksums
    are re-encoded as ``[real, imag]`` pairs so the output dict is
    JSON-exact, as the campaign cache and worker transport require.
    """
    x = spec.extras_dict()
    if spec.app == "ft.exchange":
        return run_exchange_only(
            x.get("clazz", "B"),
            threads=spec.threads,
            threads_per_node=spec.threads_per_node,
            threads_per_process=x.get("threads_per_process", 1),
            pshm=x.get("pshm", True),
            privatized=x.get("privatized", False),
            asynchronous=x.get("asynchronous", False),
            preset=spec.build_preset(),
            conduit=spec.conduit,
            repeats=x.get("repeats", 3),
        )
    if spec.app != "ft":
        raise ValueError(f"unknown FT app {spec.app!r}")
    out = run_ft(
        x.get("clazz", "S"),
        model=x.get("model", "upc"),
        variant=x.get("variant", "split"),
        threads=spec.threads,
        threads_per_node=spec.threads_per_node,
        threads_per_process=x.get("threads_per_process", 1),
        omp_threads=x.get("omp_threads", 0),
        subthread_runtime=x.get("subthread_runtime", "openmp"),
        preset=spec.build_preset(),
        conduit=spec.conduit,
        iterations=x.get("iterations", 0),
        backing=x.get("backing", "real"),
        privatized=x.get("privatized", False),
        asynchronous=x.get("asynchronous", False),
    )
    out["checksums"] = [[c.real, c.imag] for c in out["checksums"]]
    return out
