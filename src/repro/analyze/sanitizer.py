"""The dynamic PGAS sanitizer: vector clocks + three checkers.

Arming goes through :func:`repro.obs.session.instrument`: while a
session with ``sanitize=True`` is active, every
:class:`~repro.upc.runtime.UpcProgram` constructed attaches a fresh
:class:`Sanitizer` to its simulator.  Otherwise the simulator keeps the
engine's shared off-sink, whose ``enabled = False`` lets every hook site
bail in one attribute load.

The sanitizer is an *observer*: it never yields, never charges simulated
cost, and never consumes random numbers, so a sanitized run's simulated
results are identical to an unsanitized one (asserted by tests).

Happens-before engine
---------------------
One integer vector clock per UPC thread.  Synchronization hooks move
knowledge between clocks:

* **barrier/collective arrive** — snapshot the arriver's clock under the
  current generation of that barrier key;
* **barrier/collective pass** — join the merged snapshot of the
  generation, then tick the thread's own component;
* **notify/wait** — notify snapshots (then ticks) per split-phase phase;
  wait joins every snapshot of its phase;
* **lock release/acquire** — release snapshots (then ticks) per lock
  key; acquire joins;
* **flag signal/join** — the collectives' pairwise rendezvous, same
  snapshot/join pair.

The race detector is FastTrack-flavoured: each :class:`SharedArray`
access is recorded as ``(thread, epoch, range, op)`` where ``epoch`` is
the thread's own clock component; a new access races with a recorded one
iff the ranges overlap, the threads differ, at least one is a write, and
the accessor's clock has not absorbed the recorded epoch.  A fully
subscribed world-barrier pass orders *everything* before it, so the
shadow memory is cleared there — steady-state BSP programs keep O(accesses
per superstep) shadow state, not O(run).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analyze.findings import Finding
from repro.obs import names

__all__ = ["Sanitizer"]

#: Findings kept per checker before summarizing (protects pathological
#: fixtures from quadratic report blowup; the counter keeps exact totals).
MAX_FINDINGS_PER_CHECKER = 50

#: Shadow-memory records per (array, op-kind) list before compaction.
_SHADOW_PRUNE_THRESHOLD = 1024

_CHECKER_COUNTERS = {
    "race": names.SAN_RACE_FINDINGS,
    "privatization": names.SAN_PRIVATIZATION_FINDINGS,
    "collective": names.SAN_COLLECTIVE_FINDINGS,
}


def _key_label(key: tuple) -> str:
    kind, name = key
    if kind == "team":
        return f"barrier on team {name!r}"
    if kind == "collective":
        return f"collective {name!r}"
    return f"{kind} {name!r}"


class Sanitizer:
    """Per-program dynamic checker (see module docstring)."""

    enabled = True

    def __init__(self, program):
        self.program = program
        self.nthreads = program.threads
        self.sim = program.sim
        self.stats = program.stats
        self.findings: List[Finding] = []
        n = self.nthreads
        # clock[t][u] = latest epoch of u that t has absorbed.  Own
        # components start at 1 so epoch 0 never looks like real work.
        self._clock = [[1 if u == t else 0 for u in range(n)] for t in range(n)]
        self._dead: set = set()
        self._finalized = False
        self._seen: set = set()
        self._emitted: Dict[str, int] = {}
        self._suppressed: Dict[str, int] = {}
        # race shadow memory: id(array) -> state (holds a strong ref so
        # ids are never recycled under us)
        self._shadow: Dict[int, dict] = {}
        # barriers/collectives, keyed by ("team"|"collective", name)
        self._bar_members: Dict[tuple, tuple] = {}
        self._bar_arrives: Dict[tuple, Dict[int, int]] = {}
        self._bar_passes: Dict[tuple, Dict[int, int]] = {}
        self._bar_snaps: Dict[tuple, Dict[int, Dict[int, list]]] = {}
        self._bar_merged: Dict[tuple, Dict[int, list]] = {}
        self._bar_released: Dict[tuple, Dict[int, int]] = {}
        # split-phase notify/wait
        self._notify_snaps: Dict[int, Dict[int, list]] = {}
        self._notify_count: Dict[int, int] = {}
        self._wait_begin_count: Dict[int, int] = {}
        self._wait_done_count: Dict[int, int] = {}
        # locks and flags
        self._lock_clock: Dict[object, list] = {}
        self._flag_clock: Dict[object, list] = {}

    # -- vector-clock primitives ------------------------------------------

    def _snapshot(self, thread: int) -> list:
        return list(self._clock[thread])

    def _join(self, thread: int, other: list) -> None:
        mine = self._clock[thread]
        for i, v in enumerate(other):
            if v > mine[i]:
                mine[i] = v

    def _tick(self, thread: int) -> None:
        self._clock[thread][thread] += 1

    def _live(self) -> list:
        return [t for t in range(self.nthreads) if t not in self._dead]

    # -- finding emission -------------------------------------------------

    def _emit(
        self,
        checker: str,
        message: str,
        threads: Tuple[int, ...] = (),
        details: Optional[dict] = None,
        dedup=None,
    ) -> None:
        if dedup is not None:
            if dedup in self._seen:
                return
            self._seen.add(dedup)
        self.stats.count(_CHECKER_COUNTERS[checker])
        if self._emitted.get(checker, 0) >= MAX_FINDINGS_PER_CHECKER:
            self._suppressed[checker] = self._suppressed.get(checker, 0) + 1
            return
        self._emitted[checker] = self._emitted.get(checker, 0) + 1
        self.findings.append(
            Finding(
                checker=checker,
                message=message,
                time=self.sim.now,
                threads=tuple(sorted(set(threads))),
                phases=tuple(self.stats.open_timers()),
                details=details or {},
            )
        )

    # -- race detector ----------------------------------------------------

    def on_access(
        self, thread: int, array, start: int, count: int, is_write: bool, op: str
    ) -> None:
        """One SharedArray element/block access by ``thread``."""
        shadow = self._shadow.get(id(array))
        if shadow is None:
            shadow = self._shadow[id(array)] = {
                "array": array,
                "label": repr(array),
                "reads": [],
                "writes": [],
            }
        mine = self._clock[thread]
        end = start + count
        kinds = ("writes", "reads") if is_write else ("writes",)
        for kind in kinds:
            for rec in shadow[kind]:
                r_thread, r_epoch, r_start, r_end, r_op, r_time = rec
                if r_thread == thread:
                    continue
                if r_start >= end or r_end <= start:
                    continue
                if mine[r_thread] >= r_epoch:
                    continue  # ordered before us: not a race
                self._emit(
                    "race",
                    f"data race on {shadow['label']}: thread {r_thread} "
                    f"{r_op} [{r_start},{r_end}) vs thread {thread} {op} "
                    f"[{start},{end}) (no happens-before edge)",
                    threads=(r_thread, thread),
                    details={
                        "array": shadow["label"],
                        "first": (r_thread, r_op, r_start, r_end, r_time),
                        "second": (thread, op, start, end, self.sim.now),
                    },
                    dedup=(
                        "race", id(array),
                        tuple(sorted((r_thread, thread))),
                        tuple(sorted((r_op, op))),
                    ),
                )
        records = shadow["writes" if is_write else "reads"]
        epoch = mine[thread]
        if records:
            last = records[-1]
            # coalesce the sweep pattern: same thread/epoch, touching range
            if (
                last[0] == thread and last[1] == epoch and last[4] == op
                and start <= last[3] and end >= last[2]
            ):
                records[-1] = (
                    thread, epoch, min(start, last[2]), max(end, last[3]),
                    op, last[5],
                )
                return
        records.append((thread, epoch, start, end, op, self.sim.now))
        if len(records) > _SHADOW_PRUNE_THRESHOLD:
            self._prune(records)

    def _prune(self, records: list) -> None:
        """Drop records already ordered before every live thread."""
        live = self._live()
        kept = [
            rec for rec in records
            if any(
                self._clock[t][rec[0]] < rec[1] for t in live if t != rec[0]
            )
        ]
        records[:] = kept

    def _clear_shadow(self) -> None:
        for shadow in self._shadow.values():
            shadow["reads"].clear()
            shadow["writes"].clear()

    # -- privatization-legality checker -----------------------------------

    def on_private_access(
        self,
        thread: int,
        array,
        index: int,
        holder: int,
        base_owner: Optional[int],
        op: str,
    ) -> None:
        """A LocalPointer dereference (before the access is charged)."""
        owner = array.owner(index)
        if base_owner is not None and owner != base_owner:
            self._emit(
                "privatization",
                f"privatized pointer arithmetic crossed an affinity "
                f"boundary: cast for thread {base_owner}'s block, {op} at "
                f"index {index} lands in thread {owner}'s block",
                threads=(thread, owner),
                details={"index": index, "owner": owner, "base_owner": base_owner},
                dedup=("priv-cross", id(array), thread, base_owner, owner),
            )
        if not self.program.gasnet.can_bypass(thread, owner):
            self._emit(
                "privatization",
                f"privatized {op} from thread {thread} to thread {owner}'s "
                f"memory at index {index}: target is outside the holder's "
                f"castable supernode (no load/store path)",
                threads=(thread, owner),
                details={"index": index, "owner": owner, "holder": holder},
                dedup=("priv-cast", id(array), thread, owner),
            )
        if owner in self.program.dead_threads():
            self._emit(
                "privatization",
                f"stale privatized pointer: thread {thread} {op} at index "
                f"{index}, but owner thread {owner} was killed by a fault "
                f"plan",
                threads=(thread, owner),
                details={"index": index, "owner": owner},
                dedup=("priv-stale", id(array), thread, owner),
            )

    # -- barrier / collective matching + HB edges --------------------------

    def barrier_arrive(self, key: tuple, thread: int, members) -> None:
        if key not in self._bar_members:
            self._bar_members[key] = tuple(members)
        arrives = self._bar_arrives.setdefault(key, {})
        gen = arrives.get(thread, 0)
        arrives[thread] = gen + 1
        snaps = self._bar_snaps.setdefault(key, {})
        snaps.setdefault(gen, {})[thread] = self._snapshot(thread)

    def barrier_pass(self, key: tuple, thread: int) -> None:
        passes = self._bar_passes.setdefault(key, {})
        gen = passes.get(thread, 0)
        passes[thread] = gen + 1
        snaps = self._bar_snaps.get(key, {}).get(gen, {})
        merged_by_gen = self._bar_merged.setdefault(key, {})
        merged = merged_by_gen.get(gen)
        if merged is None:
            # first passer: fold the generation's snapshots once
            merged = [0] * self.nthreads
            for snap in snaps.values():
                for i, v in enumerate(snap):
                    if v > merged[i]:
                        merged[i] = v
            merged_by_gen[gen] = merged
            # a fully subscribed generation orders every prior access:
            # the race shadow can restart empty (see module docstring)
            if set(snaps) >= set(self._live()):
                self._clear_shadow()
        self._join(thread, merged)
        self._tick(thread)
        released = self._bar_released.setdefault(key, {})
        released[gen] = released.get(gen, 0) + 1
        if released[gen] >= len(snaps):
            # everyone through: retire the generation's bookkeeping
            self._bar_snaps.get(key, {}).pop(gen, None)
            merged_by_gen.pop(gen, None)
            released.pop(gen, None)

    # -- split-phase notify/wait ------------------------------------------

    def notify(self, thread: int) -> None:
        phase = self._notify_count.get(thread, 0)
        self._notify_count[thread] = phase + 1
        self._notify_snaps.setdefault(phase, {})[thread] = self._snapshot(thread)
        self._tick(thread)

    def wait_begin(self, thread: int) -> None:
        self._wait_begin_count[thread] = self._wait_begin_count.get(thread, 0) + 1

    def wait_join(self, thread: int) -> None:
        phase = self._wait_done_count.get(thread, 0)
        self._wait_done_count[thread] = phase + 1
        for snap in self._notify_snaps.get(phase, {}).values():
            self._join(thread, snap)
        self._tick(thread)

    # -- locks and flags ---------------------------------------------------

    def lock_acquire(self, key: object, thread: int) -> None:
        snap = self._lock_clock.get(key)
        if snap is not None:
            self._join(thread, snap)

    def lock_release(self, key: object, thread: int) -> None:
        self._lock_clock[key] = self._snapshot(thread)
        self._tick(thread)

    def flag_signal(self, key: object, thread: int) -> None:
        self._flag_clock[key] = self._snapshot(thread)
        self._tick(thread)

    def flag_join(self, key: object, thread: int) -> None:
        snap = self._flag_clock.get(key)
        if snap is not None:
            self._join(thread, snap)

    # -- misuse + lifecycle -------------------------------------------------

    def record_collective_misuse(self, thread: int, message: str) -> None:
        self._emit("collective", f"thread {thread}: {message}", threads=(thread,))

    def mark_dead(self, thread: int) -> None:
        self._dead.add(thread)

    def finalize(self) -> List[Finding]:
        """End-of-run matching checks; idempotent, returns all findings."""
        if self._finalized:
            return self.findings
        self._finalized = True
        # 1. barriers/collectives someone reached but that never released
        flagged_keys = set()
        for key in sorted(self._bar_members, key=repr):
            members = [t for t in self._bar_members[key] if t not in self._dead]
            snaps = self._bar_snaps.get(key, {})
            for gen in sorted(snaps):
                arrived = sorted(t for t in snaps[gen] if t not in self._dead)
                if not arrived or self._bar_released.get(key, {}).get(gen, 0):
                    continue
                missing = sorted(t for t in members if t not in snaps[gen])
                flagged_keys.add(key)
                self._emit(
                    "collective",
                    f"{_key_label(key)} never completed: threads {arrived} "
                    f"arrived, threads {missing} never did",
                    threads=tuple(arrived + missing),
                    details={"key": repr(key), "arrived": arrived, "missing": missing},
                )
        # 2. live members that completed different numbers of operations
        for key in sorted(self._bar_members, key=repr):
            if key in flagged_keys:
                continue  # the stuck generation above already explains it
            members = [t for t in self._bar_members[key] if t not in self._dead]
            if len(members) < 2:
                continue
            counts = {t: self._bar_passes.get(key, {}).get(t, 0) for t in members}
            if len(set(counts.values())) > 1:
                self._emit(
                    "collective",
                    f"mismatched {_key_label(key)} call counts across "
                    f"threads: {counts}",
                    threads=tuple(members),
                    details={"key": repr(key), "counts": counts},
                )
        # 3. split-phase pairs left dangling
        for t in self._live():
            notified = self._notify_count.get(t, 0)
            waited = self._wait_done_count.get(t, 0)
            if notified <= waited:
                continue
            began = self._wait_begin_count.get(t, 0)
            if began > waited:
                msg = (
                    f"thread {t}: upc_wait for split-phase {waited} never "
                    f"completed (some thread never notified)"
                )
            else:
                msg = (
                    f"thread {t}: upc_notify (phase {notified - 1}) without "
                    f"a matching upc_wait"
                )
            self._emit("collective", msg, threads=(t,))
        for checker, n in sorted(self._suppressed.items()):
            self.findings.append(
                Finding(
                    checker=checker,
                    message=f"{n} further {checker} finding(s) suppressed "
                    f"(cap {MAX_FINDINGS_PER_CHECKER}); counters hold exact totals",
                    time=self.sim.now,
                )
            )
        return self.findings
