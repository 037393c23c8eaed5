"""A GASNet-like communication layer for the simulated cluster.

Berkeley UPC translates shared accesses into GASNet calls; this package
plays that role for the simulated runtime:

* :mod:`~repro.gasnet.core` — thread attachment, backend modes
  (processes / pthreads, ± PSHM), segments, blocking put/get
  (``xfer``), non-blocking put/get with explicit handles (``xfer_nb``,
  ``Handle``: ``upc_waitsync``-style completion), active-message rounds.
* :mod:`~repro.gasnet.pshm` — inter-Process SHared Memory: supernode
  discovery and the shared-memory bypass predicate (§3.1).
* :mod:`~repro.gasnet.team` — thread teams for subset collectives.
* :mod:`~repro.gasnet.job` — the SPMD job base both launchers share.
"""

from repro.gasnet.core import (
    BackendConfig,
    GasnetRuntime,
    Handle,
    RetryPolicy,
    ThreadLocation,
)
from repro.gasnet.pshm import discover_supernodes
from repro.gasnet.team import Team

__all__ = [
    "BackendConfig",
    "GasnetRuntime",
    "Handle",
    "RetryPolicy",
    "Team",
    "ThreadLocation",
    "discover_supernodes",
]
