"""Simulated-cost profiler: costed cycles and switches per site and phase.

The engine already self-measures (events popped, costed cycles, context
switches — §12), but those tallies are campaign-level scalars.  This
profiler answers *where*: every scheduled event is attributed to the
curated site (:mod:`repro.obs.profile.sites`) of the layer that
scheduled it, every coroutine switch to the site of the generator being
resumed, and both are bucketed by the experiment phase open at that
simulated instant (the same phase timers §8's tracer spans come from).

Attribution of a scheduled event walks the host stack *outward from the
engine*: ``Delay.__init__`` → ``fabric.transfer`` means the fabric, not
the engine, pays for that costed cycle.  The walk is bounded and cached
per code object, and every tally is a pure function of the simulation —
a cost profile is **byte-deterministic** across runs, executors and job
counts, unlike the host profile whose wall times it complements.

Hook discipline matches the tracer and sanitizer: ``Simulator.profiler``
starts as the engine's shared off-sink and hot paths guard with
``if profiler.enabled:``, so unprofiled runs pay one attribute load and
a predicted branch per site.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple

from repro.obs.profile.sites import SITE_OTHER, site_for_callable, site_for_code

__all__ = ["CostProfiler", "NO_PHASE"]

#: Phase bucket for work charged outside any open phase timer.
NO_PHASE = "(no phase)"

#: How many host frames the scheduling-site walk inspects before giving
#: up and attributing to the callback itself.
_WALK_LIMIT = 16

#: Sites that never *own* a scheduled event: the engine and the profiler
#: are plumbing, the walk continues outward past them.
_PLUMBING = ("engine.", "obs.")


class CostProfiler:
    """Accumulates (phase, site) → [events, costed cycles, switches]."""

    enabled = True

    def __init__(self) -> None:
        #: (phase, site) -> [events scheduled, costed cycles, switches]
        self.tallies: Dict[Tuple[str, str], List[int]] = {}
        self._phases: List[str] = []

    # -- phase bookkeeping (fed by StatsCollector phase timers) -----------

    def phase_started(self, name: str) -> None:
        self._phases.append(name)

    def phase_ended(self, name: str) -> None:
        # Phases from parallel threads interleave; remove the most recent
        # matching entry rather than assuming strict stack discipline.
        for i in range(len(self._phases) - 1, -1, -1):
            if self._phases[i] == name:
                del self._phases[i]
                return

    @property
    def current_phase(self) -> str:
        return self._phases[-1] if self._phases else NO_PHASE

    # -- attribution -------------------------------------------------------

    def _cell(self, site: str) -> List[int]:
        key = (self.current_phase, site)
        cell = self.tallies.get(key)
        if cell is None:
            cell = self.tallies[key] = [0, 0, 0]
        return cell

    def _scheduling_site(self, fn) -> str:
        """The layer that scheduled an event: first non-plumbing caller.

        Walks outward from ``Simulator.schedule_at``; a Delay created by
        the fabric attributes to the fabric, one created directly by app
        code to the app.  Falls back to the callback's own site when the
        whole (bounded) walk is plumbing — e.g. engine-internal wakeups.
        """
        frame = sys._getframe(3)  # hook <- schedule_at [<- schedule_after]
        for _ in range(_WALK_LIMIT):
            if frame is None:
                break
            site = site_for_code(frame.f_code)
            if site is not None and not site.startswith(_PLUMBING):
                return site
            frame = frame.f_back
        return site_for_callable(fn)

    def event_scheduled(self, fn, costed: bool) -> None:
        cell = self._cell(self._scheduling_site(fn))
        cell[0] += 1
        if costed:
            cell[1] += 1

    def context_switch(self, process) -> None:
        gen = getattr(process, "gen", None)
        code = getattr(gen, "gi_code", None)
        site = (site_for_code(code) or SITE_OTHER) if code is not None \
            else SITE_OTHER
        self._cell(site)[2] += 1
