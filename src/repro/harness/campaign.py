"""Campaigns: Spec → Plan → Execute → Collate.

A :class:`Campaign` binds one experiment's declarative point list to an
executor and an optional result cache:

1. **Spec** — the experiment's ``points(scale)`` declares *what to run*
   as an ordered list of :class:`~repro.harness.spec.RunSpec`.
2. **Plan** — cached points are resolved to stored outputs; only the
   misses go to the executor.
3. **Execute** — the executor (inline, or the worker queue, journaled
   under ``--durable``) runs the misses and returns outputs in spec
   order; fresh outputs are written back to the cache.
4. **Collate** — the experiment's ``collate(scale, outputs)`` folds the
   ordered outputs into an :class:`~repro.harness.reporting.ExperimentResult`.

Because every point is a pure function of its spec, the collated result
is independent of scheduling and of the cache's hit pattern; only the
campaign counters (surfaced on the result when a cache is in play)
differ between a cold and a warm run.

When the queue executor quarantines poison points, the campaign
**degrades instead of aborting**: the experiment's ``collate`` needs the
full ordered point set, so the result is a partial
:class:`ExperimentResult` carrying the completed count, a rendered
failure table, and shape failures naming each quarantined point — the
healthy points' outputs are still cached for the eventual clean re-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.harness.cache import ResultCache
from repro.harness.executor import ExecutionBatch, InlineExecutor
from repro.harness.reporting import ExperimentResult
from repro.harness.spec import RunSpec

__all__ = ["Campaign", "CampaignOutcome"]


@dataclass
class CampaignOutcome:
    """Everything one campaign run produced."""

    result: Any                              #: the collated ExperimentResult
    specs: List[RunSpec] = field(default_factory=list)
    batch: ExecutionBatch = field(default_factory=ExecutionBatch)
    cache_hits: int = 0
    executed: int = 0

    @property
    def points(self) -> int:
        return len(self.specs)

    @property
    def replayed(self) -> int:
        """Points restored from a durable journal instead of executed."""
        return self.batch.replayed

    @property
    def failures(self) -> List[Dict[str, Any]]:
        """Quarantined points, with campaign-global ``point`` indices."""
        return self.result.failures if hasattr(self.result, "failures") else []


class Campaign:
    """One experiment bound to an executor and an optional cache."""

    def __init__(self, experiment, scale: str = "quick", faults=None,
                 executor=None, cache: Optional[ResultCache] = None,
                 chaos=None):
        self.experiment = experiment
        self.scale = scale
        self.faults = faults
        self.executor = executor if executor is not None else InlineExecutor()
        self.cache = cache
        self.chaos = chaos

    def plan(self) -> List[RunSpec]:
        """The ordered point list this campaign will resolve."""
        if self.experiment.accepts_faults:
            return list(self.experiment.points(self.scale, faults=self.faults))
        return list(self.experiment.points(self.scale))

    def run(self, *, trace: bool = False, sanitize: bool = False,
            profile: bool = False) -> CampaignOutcome:
        specs = self.plan()
        if self.chaos is not None and self.cache is not None:
            # Self-chaos: clobber targeted cache entries *before* the
            # reads below, proving a corrupted cache heals (reads as a
            # miss, recomputes) instead of poisoning the report.
            from repro.harness.chaos import ChaosPlan

            ChaosPlan.parse(self.chaos).corrupt_cache_entries(self.cache,
                                                              specs)
        outputs: List[Optional[Dict[str, Any]]] = [None] * len(specs)
        pending: List[int] = []
        hits = 0
        # Tracers, findings and profiles exist only on fresh executions,
        # so an observed campaign bypasses cache reads (a hit would
        # silently drop that point from the trace/profile); it still
        # writes, so the next un-observed run starts warm.
        use_cached = self.cache is not None and not (trace or sanitize
                                                     or profile)
        for i, spec in enumerate(specs):
            cached = self.cache.get(spec) if use_cached else None
            if cached is not None:
                outputs[i] = cached
                hits += 1
            else:
                pending.append(i)
        batch = self.executor.run([specs[i] for i in pending],
                                  trace=trace, sanitize=sanitize,
                                  profile=profile)
        for i, output in zip(pending, batch.outputs):
            outputs[i] = output
            # Quarantined points have no output; nothing to cache.
            if self.cache is not None and output is not None:
                self.cache.put(specs[i], output)
        # Failure rows come back with batch-local point indices; remap
        # them to campaign-global indices for the report.
        failures = [{**f, "point": pending[f["point"]]}
                    for f in batch.failures]
        if failures:
            result = self._degraded_result(specs, outputs, failures)
        elif self.experiment.accepts_faults:
            result = self.experiment.collate(self.scale, outputs,
                                             faults=self.faults)
        else:
            result = self.experiment.collate(self.scale, outputs)
        if self.cache is not None:
            result.campaign = {
                "points": len(specs),
                "executed": len(pending),
                "cache_hits": hits,
            }
        return CampaignOutcome(result=result, specs=specs, batch=batch,
                               cache_hits=hits, executed=len(pending))

    def _degraded_result(self, specs, outputs, failures) -> ExperimentResult:
        """A partial result for a campaign with quarantined points.

        ``collate`` contracts on the full ordered point set, so a
        campaign with holes reports what it *can* prove — which points
        completed, which were quarantined and why — and fails the shape
        check rather than fabricating a table from partial data.
        """
        completed = sum(1 for o in outputs if o is not None)
        return ExperimentResult(
            experiment_id=self.experiment.experiment_id,
            title=self.experiment.title,
            scale=self.scale,
            failures=failures,
            notes=[
                f"degraded campaign: {completed}/{len(specs)} point(s) "
                f"completed, {len(failures)} quarantined after retries; "
                "the artifact cannot be collated from a partial point set"
            ],
            shape_failures=[
                f"point {f['point']} ({f['app']}) failed after "
                f"{f['attempts']} attempt(s): {f['error']}"
                for f in failures
            ],
        )
