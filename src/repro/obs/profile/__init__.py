"""repro.obs.profile — two-mode engine profiling over one layer map.

*Where* does the pure-Python engine spend time, layer by layer, behind
the end-to-end totals of ``benchmarks/e2e/``?  Both modes answer in the
layers of :mod:`~repro.obs.profile.layers` (``sim.engine``,
``sim.resources``, ``network``, ``gasnet``, ``upc``, ``apps.ft``, ...):

* **host** (:mod:`~repro.obs.profile.host`): a 1 ms ``ITIMER_PROF``
  sampler charging this process's CPU samples to the layer that owns
  the interrupted stack.  Statistical: a few percent of overhead, and
  counts differ between runs.
* **cost** (:mod:`~repro.obs.profile.cost`): simulated costed cycles,
  scheduled events and context switches per (experiment phase, layer),
  fed by engine hooks behind the same guarded sites as the tracer.
  Byte-deterministic across runs, executors and job counts.

Arm both with ``repro.obs.session.instrument(..., profile=True)``; the
harness does so per point under ``--profile <dir>`` and writes
``<label>-{host,cost}.{json,folded}`` via :mod:`~repro.obs.profile.report`.  ``python -m repro.obs.profile``
validates and ranks existing profile files.
"""

from repro.obs.profile.cost import NO_PHASE, CostProfiler
from repro.obs.profile.host import HostSampler
from repro.obs.profile.layers import HOST_IMPORT, HOST_OTHER, LAYERS, layer_of, owner
from repro.obs.profile.report import (
    PROFILE_SCHEMA,
    cost_document,
    folded_lines,
    host_document,
    merge_snapshots,
    validate_profile,
    write_profiles,
)

__all__ = [
    "CostProfiler", "NO_PHASE",
    "HostSampler",
    "LAYERS", "HOST_IMPORT", "HOST_OTHER", "layer_of", "owner",
    "PROFILE_SCHEMA", "host_document", "cost_document", "merge_snapshots",
    "folded_lines", "validate_profile", "write_profiles",
]
