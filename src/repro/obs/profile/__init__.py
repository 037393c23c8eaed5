"""repro.obs.profile — two-mode engine profiling with flamegraph export.

The scoreboard for the ROADMAP's ≥5x engine-throughput campaign: *where*
does the pure-Python engine spend time?  Two complementary answers:

* **host** (:mod:`~repro.obs.profile.host`): a ``sys.setprofile``
  wall-clock profiler over a curated site registry
  (:mod:`~repro.obs.profile.sites`).  Site *ranking* is deterministic
  (weighted by Python call counts, a pure function of the simulation);
  wall times are auxiliary and jitter with the host.
* **cost** (:mod:`~repro.obs.profile.cost`): simulated costed cycles,
  scheduled events and context switches per (experiment phase, site),
  fed by engine hooks behind the same guarded sites as the tracer.
  Byte-deterministic across runs, executors and job counts.

Arm both with ``repro.obs.session.instrument(..., profile=True)``; the
harness does so per point under ``--profile <dir>`` and writes
``<label>-{host,cost}.{json,folded}`` via :mod:`~repro.obs.profile.report`.  ``python -m repro.obs.profile``
validates and ranks existing profile files.
"""

from repro.obs.profile.cost import NO_PHASE, CostProfiler
from repro.obs.profile.host import HostProfiler
from repro.obs.profile.report import (
    PROFILE_SCHEMA,
    cost_document,
    folded_lines,
    host_document,
    merge_snapshots,
    validate_profile,
    write_profiles,
)
from repro.obs.profile.sites import KNOWN_SITES, SITE_OTHER, site_for_callable, site_for_code

__all__ = [
    "CostProfiler", "NO_PHASE",
    "HostProfiler",
    "PROFILE_SCHEMA", "host_document", "cost_document", "merge_snapshots",
    "folded_lines", "validate_profile", "write_profiles",
    "KNOWN_SITES", "SITE_OTHER", "site_for_code", "site_for_callable",
]
