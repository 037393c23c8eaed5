"""Host CPU sampler: where this process's CPU time went, by layer.

A 1 ms ``ITIMER_PROF`` timer delivers ``SIGPROF`` while the process
burns CPU; each delivery charges one sample to the layer that owns the
interrupted stack (:func:`repro.obs.profile.layers.owner`).  Sampling
costs a few percent of the run, where a per-call hook costs an order of
magnitude, and it sees C time as well as Python time.

The kernel fires the timer on its own tick, not every millisecond (about
250 samples per CPU second on a 250 Hz kernel), so samples are not a
unit of time.  A layer's self time is its share of the samples times the
``time.process_time()`` the sampler ran for.  Counts are statistical:
two runs of one program rank the big layers alike, not byte for byte.

Signals are delivered to the main thread, so the sampler sees the main
thread's stack; start it from the main thread.  This module is the one
place outside ``repro/harness`` allowed to read a host clock (PGAS001
exemption): measuring host time is its job.
"""

from __future__ import annotations

import signal
import time
from collections import Counter
from typing import Any, List

from repro.obs.profile.layers import file_layer, owner

__all__ = ["HostSampler", "SAMPLE_INTERVAL_S"]

#: Sampling period of the ``ITIMER_PROF`` timer, in CPU seconds.
SAMPLE_INTERVAL_S = 0.001


def _frame_layers(frame):
    while frame is not None:
        yield file_layer(frame.f_code.co_filename)
        frame = frame.f_back


class HostSampler:
    """A start/stop SIGPROF sampler: CPU samples per layer."""

    def __init__(self) -> None:
        #: layer -> samples
        self.counts: Counter = Counter()
        #: CPU seconds this process spent while the sampler ran
        self.cpu_s = 0.0
        #: the SIGPROF handler and ITIMER_PROF setting found at start
        self._previous = signal.SIG_DFL
        self._previous_timer = (0.0, 0.0)
        self._cpu0 = 0.0

    def _on_sample(self, signum, frame) -> None:
        self.counts[owner(_frame_layers(frame))] += 1

    def start(self) -> None:
        previous = signal.signal(signal.SIGPROF, self._on_sample)
        # None: a handler installed outside Python, which cannot be put
        # back from here; ignoring SIGPROF afterwards keeps a timer that
        # is still armed from killing the process.
        self._previous = signal.SIG_IGN if previous is None else previous
        self._cpu0 = time.process_time()
        self._previous_timer = signal.setitimer(
            signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.cpu_s += time.process_time() - self._cpu0
        # signal.signal runs a pending handler before it swaps handlers,
        # so a sample of the disarmed timer never reaches the previous one.
        signal.signal(signal.SIGPROF, self._previous)
        # re-arm an outer sampler's timer (a no-op when none was armed)
        signal.setitimer(signal.ITIMER_PROF, *self._previous_timer)

    def rows(self) -> List[List[Any]]:
        """``[layer, samples, self_s]`` per sampled layer, sorted by layer."""
        total = sum(self.counts.values())
        return [[layer, samples, self.cpu_s * samples / total]
                for layer, samples in sorted(self.counts.items())]
