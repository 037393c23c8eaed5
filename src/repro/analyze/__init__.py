"""Correctness tooling for the simulated PGAS stack.

Two halves (DESIGN.md §9, §14):

* **Dynamic sanitizer** (:mod:`repro.analyze.sanitizer`) — a run-time
  checker armed with ``repro.obs.session.instrument(..., sanitize=True)``,
  off by default and near-zero-cost when off (the same guarded hook
  sites as the tracer).  Three checkers share one happens-before engine:

  - a vector-clock **data-race detector** over :class:`SharedArray`
    element/block accesses,
  - a **privatization-legality** checker for ``bupc_cast`` pointers
    (affinity-boundary crossings, non-castable targets, stale pointers
    whose owner crashed under a fault plan),
  - a **collective/barrier-matching** checker (mismatched collective
    sequences, ``upc_notify``/``upc_wait`` misuse).

* **Static analyzer** (:mod:`repro.analyze.static`) — a flow-aware pass
  over the source tree with repo-specific rules (PGAS001-012), gated
  against a committed baseline by ``python -m repro.analyze.static
  --check``.
"""

from repro.analyze.findings import Finding, render_findings
from repro.analyze.sanitizer import Sanitizer

__all__ = ["Finding", "render_findings", "Sanitizer"]
