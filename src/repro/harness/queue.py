"""Lease-based campaign executor over persistent worker processes.

:class:`QueueExecutor` implements the executor contract of
:mod:`repro.harness.executor` as a coordinator over up to ``jobs``
long-lived worker processes.  A worker receives ``(point, spec,
attempt)`` over its pipe, runs :func:`~repro.harness.executor.run_point`
and replies, so process start-up is paid once per worker instead of
once per point.  Around that loop the coordinator keeps every point
alive:

* **Leases + heartbeats** — each in-flight point is a time-limited lease;
  the worker's heartbeat thread refreshes it.  A worker that stops
  heartbeating (hung interpreter, livelocked simulation, SIGSTOP), dies,
  or overruns the per-point timeout is killed and replaced and its point
  requeued; a worker that reports an app exception stays in service.
* **Retries with backoff** — a failed attempt (worker SIGKILLed, lease
  expired, per-point timeout, dropped result, app exception) is retried
  under exponential backoff with deterministic jitter (a pure hash of
  the point fingerprint and attempt number — no RNG state to lose).
* **Quarantine** — a point that fails ``max_attempts`` times is poison:
  it is surfaced in the batch's ``failures`` while every other point
  completes, so the campaign degrades to a partial report instead of
  aborting.
* **Journal + resume** — given a ``journal_dir`` (``--durable``), every
  lifecycle transition is journaled, and ``resume=True`` replays the
  journal first and executes only points without a durable ``done``
  record; because every point is a pure function of its spec, the
  resumed report is byte-identical to an uninterrupted run.  Without a
  ``journal_dir`` (a plain ``--jobs N``) nothing is written.

The coordinator is the journal's only writer (workers report through
pipes), which keeps the journal single-writer-append-only — the same
property that makes its replay trivially consistent.

Observability caveat: replayed outputs carry no tracers or profiles
(they were produced by a dead process), so a traced, sanitized or
profiled run ignores the replay and re-executes every point — mirroring
how the campaign cache bypasses reads under
``--trace``/``--sanitize``/``--profile``.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import signal
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence

from repro.harness.chaos import ChaosPlan
from repro.harness.executor import ExecutionBatch, ExecutorError, run_point
from repro.harness.journal import CampaignJournal, campaign_fingerprint
from repro.harness.spec import RunSpec

__all__ = ["QueueExecutor"]

#: Forever, as far as one campaign point is concerned.
_STALL_S = 3600.0
#: How long a worker whose pipe hit EOF may take to finish exiting before
#: it is killed: long enough that a clean exit is journaled as one, not
#: as the SIGKILL that would cut it short.
_EXIT_GRACE_S = 5.0


@contextmanager
def _heartbeat(conn, point: int, period_s: float):
    """Send ``("hb", point)`` over ``conn`` every ``period_s`` meanwhile."""
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(period_s):
            try:
                conn.send(("hb", point))
            except OSError:
                return

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def _worker(conn, inherited, trace: bool, sanitize: bool, profile: bool,
            chaos_spec: Optional[str], heartbeat_s: float) -> None:
    """Worker entry: run the points sent over ``conn`` until it closes.

    Each ``(point, spec, attempt)`` is answered with ``("result", point,
    payload)``, or ``("error", point, message)`` for an app exception;
    ``("hb", point)`` keeps the lease alive meanwhile.  A worker that
    dies without answering is exactly the failure the lease/retry
    machinery exists for.

    ``inherited`` holds the coordinator-side pipe ends this process got
    by forking: its own and its older siblings'.  Closing them leaves the
    coordinator their only holder, so its death — even by SIGKILL —
    reaches every worker as EOF instead of leaving siblings that hold
    each other's pipes open forever.
    """
    for end in inherited:
        end.close()
    plan = ChaosPlan.parse(chaos_spec) if chaos_spec else None
    while True:
        try:
            point, spec, attempt = conn.recv()
        except (EOFError, OSError):
            return                              # the coordinator is gone
        strikes = set() if plan is None else {
            kind for kind in ("stall", "fail", "kill", "drop")
            if plan.decide(kind, point, spec.fingerprint(), attempt)}
        try:
            if "stall" in strikes:
                # no heartbeats either: a hung interpreter runs no helper
                # threads, and the point is to force the lease-expiry path
                time.sleep(_STALL_S)
            with _heartbeat(conn, point, heartbeat_s):
                payload = run_point(spec, trace, sanitize, profile)
            if "fail" in strikes:
                raise RuntimeError(f"chaos: injected failure at point {point}")
            if "kill" in strikes:
                os.kill(os.getpid(), signal.SIGKILL)
            if "drop" in strikes:
                return          # exit 0 with no result: a dropped message
            reply = ("result", point, payload)
        except Exception as exc:    # the app failed; report, keep serving
            reply = ("error", point, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except OSError:
            return


def _exit_reason(code: Optional[int]) -> str:
    """Why a worker left without answering, from its exit status."""
    if code == 0:
        return "worker exited without reporting a result"
    if code is not None and code < 0:
        return f"worker killed by signal {signal.Signals(-code).name}"
    return f"worker died (exit code {code})"


class _NoJournal:
    """The journal of a journal-less run: records nothing."""

    exists = False

    def append(self, event: Dict[str, Any]) -> None:
        pass

    def discard(self) -> None:
        pass

    def __enter__(self) -> "_NoJournal":
        return self

    def __exit__(self, *exc) -> None:
        pass


class _Worker:
    """Coordinator-side handle on one worker process and its lease."""

    __slots__ = ("proc", "conn", "point", "attempt", "started", "last_hb")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.point: Optional[int] = None    #: leased point; None when idle
        self.attempt = 0
        self.started = self.last_hb = 0.0


class QueueExecutor:
    """Lease-based executor over persistent workers (``--jobs N``,
    ``--durable``, ``--resume``)."""

    def __init__(self, jobs: int = 1, *, journal_dir=None,
                 resume: bool = False, max_attempts: int = 3,
                 lease_s: float = 30.0,
                 point_timeout: Optional[float] = None,
                 retry_base_s: float = 0.25,
                 chaos: Optional[str] = None,
                 meta: Optional[Dict[str, Any]] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if lease_s <= 0:
            raise ValueError(f"lease_s must be > 0, got {lease_s}")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError(f"point_timeout must be > 0, got {point_timeout}")
        if resume and journal_dir is None:
            raise ValueError("resume needs a journal_dir to replay")
        self.jobs = jobs
        self.journal_dir = journal_dir
        self.resume = resume
        self.max_attempts = max_attempts
        self.lease_s = lease_s
        self.heartbeat_s = lease_s / 4.0
        self.point_timeout = point_timeout
        self.retry_base_s = retry_base_s
        self.chaos = chaos
        #: descriptive header fields (experiment id, scale) journaled so
        #: ``--status`` can label the campaign; never part of identity.
        self.meta = dict(meta) if meta else {}

    # -- retry policy -----------------------------------------------------

    def backoff_s(self, fingerprint: str, attempt: int) -> float:
        """Delay before retrying ``attempt`` (which just failed).

        Exponential in the attempt number with deterministic jitter: the
        jitter is a pure hash of (fingerprint, attempt), so two runs of
        the same campaign schedule retries identically — no RNG state to
        persist, nothing to desynchronize across a resume.
        """
        base = self.retry_base_s * (2.0 ** (attempt - 1))
        digest = hashlib.sha256(
            f"backoff:{fingerprint}:{attempt}".encode()
        ).digest()
        jitter = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + 0.5 * jitter)

    # -- the campaign loop ------------------------------------------------

    def run(self, specs: Sequence[RunSpec], *, trace: bool = False,
            sanitize: bool = False, profile: bool = False) -> ExecutionBatch:
        if not specs:
            return ExecutionBatch()
        specs = list(specs)
        total = len(specs)
        fingerprint = campaign_fingerprint(specs)
        plan = ChaosPlan.parse(self.chaos) if self.chaos else None
        journal = (_NoJournal() if self.journal_dir is None else
                   CampaignJournal.for_campaign(self.journal_dir, fingerprint))

        attempts = {i: 0 for i in range(total)}
        replayed: Dict[int, Dict[str, Any]] = {}
        quarantined: Dict[int, str] = {}

        with journal:
            if self.resume and journal.exists:
                state = journal.replay()
                header = state.header
                if header is not None and (
                        header.get("fp") != fingerprint
                        or header.get("points") != total):
                    raise ExecutorError(
                        f"journal {journal.path} was recorded for a "
                        "different campaign (fingerprint or point count "
                        "mismatch); remove it or run without --resume"
                    )
                for i, point in state.points.items():
                    if not 0 <= i < total:
                        continue
                    attempts[i] = point.attempts
                    if point.status == "done" and not (trace or sanitize
                                                      or profile):
                        replayed[i] = point.output
                    elif point.status == "quarantined":
                        quarantined[i] = point.error or "quarantined"
                journal.append({"e": "resume", "pending": total
                                - len(replayed) - len(quarantined)})
            else:
                if not self.resume:
                    journal.discard()
                journal.append({"e": "campaign", "fp": fingerprint,
                                "points": total,
                                "version": _package_version(),
                                **self.meta})
            pending = [i for i in range(total)
                       if i not in replayed and i not in quarantined]
            results = self._drain(specs, pending, attempts, journal, plan,
                                  trace, sanitize, profile, quarantined)

        batch = ExecutionBatch.from_payloads(
            [results.get(i) for i in range(total)], trace=trace,
            profile=profile)
        for i, output in replayed.items():
            batch.outputs[i] = output
        batch.replayed = len(replayed)
        batch.failures = [
            {"point": i, "app": specs[i].app,
             "fingerprint": specs[i].fingerprint()[:12],
             "attempts": max(attempts[i], 1), "error": quarantined[i]}
            for i in sorted(quarantined)
        ]
        return batch

    def _drain(self, specs, pending, attempts, journal, plan,
               trace, sanitize, profile,
               quarantined) -> Dict[int, Dict[str, Any]]:
        """Run every pending point to done or quarantine; the inner loop."""
        import multiprocessing as mp
        from multiprocessing.connection import wait as conn_wait

        ctx = mp.get_context()
        results: Dict[int, Dict[str, Any]] = {}
        fresh_done = 0
        # (not_before, point, attempt); sorted, hence already a heap
        ready: List[tuple] = [(0.0, i, attempts[i] + 1) for i in pending]
        workers: Dict[Any, _Worker] = {}    # coordinator pipe end -> worker

        def lease(point: int, attempt: int) -> _Worker:
            worker = next((w for w in workers.values() if w.point is None),
                          None)
            if worker is None:
                ours, theirs = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker,
                    args=(theirs, [ours, *workers], trace, sanitize, profile,
                          self.chaos, self.heartbeat_s),
                    daemon=True,
                )
                proc.start()
                theirs.close()
                worker = workers[ours] = _Worker(proc, ours)
            worker.point, worker.attempt = point, attempt
            worker.started = worker.last_hb = time.monotonic()
            attempts[point] = attempt
            journal.append({"e": "lease", "p": point, "attempt": attempt,
                            "pid": worker.proc.pid, "lease_s": self.lease_s})
            try:
                worker.conn.send((point, specs[point], attempt))
            except OSError:
                pass        # the worker died idle: its EOF fails the attempt
            return worker

        def retire(worker: _Worker, grace_s: float = 0.0) -> None:
            """Drop ``worker``; kill it unless it exits within ``grace_s``."""
            del workers[worker.conn]
            worker.conn.close()
            worker.proc.join(grace_s)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(5.0)

        def settle(worker: _Worker, payload=None,
                   error: Optional[str] = None) -> None:
            """Record the outcome of ``worker``'s point; the worker idles."""
            nonlocal fresh_done
            point, attempt = worker.point, worker.attempt
            worker.point = None
            if error is None:
                results[point] = payload
                journal.append({"e": "done", "p": point, "attempt": attempt,
                                "output": payload["output"]})
                fresh_done += 1
                if (plan is not None and plan.halt_after is not None
                        and fresh_done >= plan.halt_after):
                    # Chaos "halt": die exactly like a machine reboot
                    # would — mid-campaign, journal intact, no cleanup.
                    os.kill(os.getpid(), signal.SIGKILL)
                return
            journal.append({"e": "failed", "p": point, "attempt": attempt,
                            "error": error})
            if attempt >= self.max_attempts:
                journal.append({"e": "quarantined", "p": point,
                                "attempt": attempt})
                quarantined[point] = error
            else:
                delay = self.backoff_s(specs[point].fingerprint(), attempt)
                heapq.heappush(ready, (time.monotonic() + delay, point,
                                       attempt + 1))

        try:
            while ready or any(w.point is not None for w in workers.values()):
                now = time.monotonic()
                busy = [w for w in workers.values() if w.point is not None]
                while (ready and len(busy) < self.jobs
                       and ready[0][0] <= now):
                    _, point, attempt = heapq.heappop(ready)
                    busy.append(lease(point, attempt))
                # A ready point is a deadline only while a slot is free:
                # fresh points are ready from 0.0, so counting them with
                # every slot busy would turn the wait below into a spin.
                deadlines = ([ready[0][0]] if ready and len(busy) < self.jobs
                             else [])
                for worker in busy:
                    deadlines.append(worker.last_hb + self.lease_s)
                    if self.point_timeout is not None:
                        deadlines.append(worker.started + self.point_timeout)
                timeout = max(0.0, min(min(deadlines) - time.monotonic(),
                                       0.25))
                if workers:
                    answered = conn_wait(list(workers), timeout)
                else:
                    time.sleep(timeout)
                    answered = []
                for conn in answered:
                    worker = workers[conn]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        # gone without answering: let it finish exiting,
                        # so its exit status says how it left
                        retire(worker, _EXIT_GRACE_S)
                        if worker.point is not None:
                            settle(worker,
                                   error=_exit_reason(worker.proc.exitcode))
                        continue
                    if message[0] == "hb":
                        worker.last_hb = time.monotonic()
                    elif message[0] == "result":
                        settle(worker, payload=message[2])
                    else:
                        settle(worker, error=message[2])
                now = time.monotonic()
                for worker in busy:
                    if worker.point is None:
                        continue                # answered above
                    if (self.point_timeout is not None
                            and now - worker.started > self.point_timeout):
                        error = (f"point timeout: exceeded "
                                 f"{self.point_timeout:g}s wall clock")
                    elif now - worker.last_hb > self.lease_s:
                        error = (f"lease expired: no heartbeat for "
                                 f"{self.lease_s:g}s")
                    else:
                        continue
                    retire(worker)
                    settle(worker, error=error)
        finally:
            for worker in workers.values():
                worker.conn.close()             # idle workers exit on EOF
            for worker in list(workers.values()):
                retire(worker, _EXIT_GRACE_S if worker.point is None else 0.0)
        return results


def _package_version() -> str:
    from repro._version import __version__

    return __version__
