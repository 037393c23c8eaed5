"""The UTS work-stealing driver (Fig 3.2's state machine).

Each UPC thread loops: **work** (depth-first expansion of its own
steal-stack, charged per node), then on exhaustion **work discovery** and
**stealing** — locally first under the locality-conscious policies, then
remotely — and finally **idle** until either new work is released
somewhere or global termination is detected (all threads idle, all
stacks empty, nothing in transit).

Costs charged per the thesis's implementation:

* node expansion — ``node_work`` seconds each (the SHA-1 evaluation);
* victim *discovery* — a cache-coherent metadata read for castable peers
  (through the pre-built pointer table), a remote 8-byte ``upc_memget``
  otherwise;
* *stealing* — the victim's stack lock (an AM round to its affinity
  thread), the chunk transfer (privatized memcpy inside the supernode,
  network get across nodes), and the unlock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.uts.stealstack import NODE_BYTES, StealStack
from repro.apps.uts.tree import TreeParams, count_tree, expander, root_node
from repro.errors import EndpointFailedError
from repro.machine.presets import PlatformPreset, pyramid
from repro.obs import names
from repro.obs.tracer import thread_track
from repro.sim import Condition
from repro.upc import UpcProgram
from repro.upc.groups import shared_memory_group

__all__ = ["UtsConfig", "run_uts", "POLICIES"]

POLICIES = ("baseline", "local", "local+diffusion")


@dataclass(frozen=True)
class UtsConfig:
    """Policy and cost knobs for one UTS run."""

    policy: str = "baseline"
    steal_chunk: int = 8            #: nodes per steal (paper: 8 IB / 20 Eth)
    diffusion_chunks: int = 4       #: steal half when victim has >= this many chunks
    process_chunk: int = 64         #: owner-side nodes expanded per charge
    node_work: float = 0.55e-6      #: seconds per node expansion
    max_remote_checks: int = 4      #: remote victims probed per failed round
    verify: bool = True             #: check the count against a sequential pass

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.steal_chunk < 1 or self.process_chunk < 1:
            raise ValueError("chunk sizes must be >= 1")


class _Global:
    """Cross-thread coordination (lives outside the simulated data plane)."""

    def __init__(self, sim, nthreads: int):
        self.idle: set = set()
        self.in_transit = 0
        self.finished = False
        self.work_cond = Condition(sim, name="uts.work")
        self.done_cond = Condition(sim, name="uts.done")
        # Degraded-mode state (all empty/zero on a healthy run).
        self.dead: set = set()          #: threads on crashed nodes
        self.blacklist: set = set()     #: victims declared unreachable
        self.lost_nodes = 0             #: materialized nodes lost to faults
        self.transit_by: Dict[int, int] = {}  #: per-thief in-flight nodes

    @property
    def unavailable(self) -> set:
        return self.dead | self.blacklist

    def start_transit(self, thief: int, count: int) -> None:
        self.in_transit += count
        self.transit_by[thief] = self.transit_by.get(thief, 0) + count

    def end_transit(self, thief: int, count: int, lost: bool = False) -> None:
        self.in_transit -= count
        self.transit_by[thief] = self.transit_by.get(thief, 0) - count
        if lost:
            self.lost_nodes += count


def _worker(upc, cfg: UtsConfig, params: TreeParams,
            stacks: List[StealStack], glob: _Global):
    me = upc.MYTHREAD
    ss = stacks[me]
    group = yield from shared_memory_group(upc)
    local_set = set(group.members)
    expand_node = expander(params)
    if me == 0:
        ss.push([root_node(params)])
    yield from upc.barrier()
    t0 = upc.wtime()

    while True:
        # -- WORK: depth-first on the local stack --------------------
        while len(ss):
            chunk = ss.pop_chunk(cfg.process_chunk)
            children: list = []
            for node in chunk:
                children.extend(expand_node(node))
            ss.push(children)
            ss.nodes_processed += len(chunk)
            yield from upc.compute(len(chunk) * cfg.node_work)
            if glob.idle and ss.available_to_steal > 0:
                glob.work_cond.notify_all()

        # -- WORK DISCOVERY + STEALING -------------------------------
        found = yield from _steal_round(upc, cfg, stacks, glob, local_set)
        if found:
            continue

        # -- IDLE / termination detection -----------------------------
        # Termination must stay correct when threads disappear: dead
        # threads' stacks are dropped at crash time and their in-transit
        # work is written off, so "everything is done" is judged over
        # the *alive* population only.
        glob.idle.add(me)
        total_left = sum(len(s) for s in stacks) + glob.in_transit
        if total_left > 0:
            glob.idle.discard(me)
            continue  # missed-wakeup guard: work exists, go steal again
        if len(glob.idle) >= upc.THREADS - len(glob.dead):
            glob.finished = True
            glob.done_cond.notify_all()
            break
        yield upc.sim.any_of([glob.done_cond.wait(), glob.work_cond.wait()])
        if glob.finished:
            break
        glob.idle.discard(me)

    elapsed = upc.wtime() - t0
    return {
        "thread": me,
        "elapsed": elapsed,
        "processed": ss.nodes_processed,
    }


def _steal_round(upc, cfg: UtsConfig, stacks: List[StealStack],
                 glob: _Global, local_set: set):
    """One pass of the Fig 3.2 discovery/steal state machine.

    Returns True when work landed on our stack.  Under fault injection a
    victim may vanish at any point; every network op can then raise
    :class:`EndpointFailedError`, which blacklists the victim and fails
    over to the next candidate (local-first order is preserved, so
    failover naturally prefers the cheap castable neighbourhood).
    """
    me = upc.MYTHREAD
    if cfg.policy == "baseline":
        victims = [t for t in range(upc.THREADS) if t != me]
        upc.rng.shuffle(victims)
        # random selection probes a bounded sample before giving up,
        # as in the reference implementation
        phases = [victims[:cfg.max_remote_checks]]
    else:
        # local discovery scans the whole (cheap, castable) neighbourhood;
        # remote discovery probes a bounded random sample
        local = [t for t in local_set if t != me]
        remote = [t for t in range(upc.THREADS) if t not in local_set]
        upc.rng.shuffle(local)
        upc.rng.shuffle(remote)
        phases = [local, remote[:cfg.max_remote_checks]]

    for victims in phases:
        for v in victims:
            if v in glob.unavailable:
                continue
            found = yield from _try_steal(upc, cfg, stacks, glob, local_set, v)
            if found:
                return True
    return False


def _try_steal(upc, cfg: UtsConfig, stacks: List[StealStack],
               glob: _Global, local_set: set, v: int):
    """Probe one victim; True when its work landed on our stack."""
    body = _try_steal_impl(upc, cfg, stacks, glob, local_set, v)
    tracer = upc.sim.tracer
    if not tracer.enabled:
        return body
    return tracer.spanned(
        body, thread_track(upc.MYTHREAD), f"steal<-{v}", names.CAT_STEAL,
        args={"victim": v, "thief": upc.MYTHREAD},
    )


def _try_steal_impl(upc, cfg: UtsConfig, stacks: List[StealStack],
                    glob: _Global, local_set: set, v: int):
    me = upc.MYTHREAD
    ss_v = stacks[v]
    stacks[me].steals_attempted += 1
    holding_lock = False
    in_flight = 0
    got_work = False
    lock = None
    try:
        # discovery: read the victim's stack metadata.  Castability is
        # topological and fixed for the run, so query it once up front
        # (the analyzer's PGAS012 verdict) instead of per remote access.
        castable = upc.can_cast(v)
        if castable:
            yield from upc.compute(upc.gasnet.backend.shm_roundtrip)
        else:
            yield from upc.memget(v, 8)
        if ss_v.available_to_steal < cfg.steal_chunk:
            return False
        # steal under the victim's stack lock
        lock = upc.lock(("uts", v), affinity_thread=v)
        yield from lock.acquire(upc)
        holding_lock = True
        avail = ss_v.available_to_steal  # re-check under the lock
        if avail < cfg.steal_chunk:
            holding_lock = False
            yield from lock.release(upc)
            return False
        if (cfg.policy == "local+diffusion"
                and avail >= cfg.diffusion_chunks * cfg.steal_chunk):
            take = avail // 2
        else:
            take = cfg.steal_chunk
        nodes = ss_v.steal_from_tail(take)
        glob.start_transit(me, len(nodes))
        in_flight = len(nodes)
        nbytes = len(nodes) * NODE_BYTES
        yield from upc.memget(v, nbytes, privatized=castable)
        # The chunk is ours once the get completes: land it before the
        # unlock round, so a victim dying during unlock loses nothing.
        stacks[me].push(nodes)
        glob.end_transit(me, len(nodes))
        in_flight = 0
        got_work = True
        stacks[me].steals_successful += 1
        kind = "local" if v in local_set else "remote"
        upc.stats.count(names.uts_steal(kind))
        upc.stats.count(names.UTS_NODES_STOLEN, len(nodes))
        holding_lock = False
        yield from lock.release(upc)
        if glob.idle and stacks[me].available_to_steal > 0:
            glob.work_cond.notify_all()
        return True
    except EndpointFailedError:
        # The victim is gone: blacklist it, write off anything we had
        # in flight from its (now unreachable) segment, and make sure
        # the lock is not left dangling for other queued thieves.
        glob.blacklist.add(v)
        upc.stats.count(names.UTS_VICTIMS_BLACKLISTED)
        if in_flight:
            glob.end_transit(me, in_flight, lost=True)
            upc.stats.count(names.UTS_NODES_LOST_IN_TRANSIT, in_flight)
        if holding_lock and lock is not None:
            lock.abandon(me)
        return got_work


def run_uts(
    policy: str = "baseline",
    tree: Optional[TreeParams] = None,
    preset: Optional[PlatformPreset] = None,
    threads: int = 8,
    threads_per_node: int = 2,
    conduit: Optional[str] = None,
    steal_chunk: int = 8,
    config: Optional[UtsConfig] = None,
    faults=None,
) -> Dict:
    """Run UTS under one stealing policy; returns the run's metrics.

    Node counts are verified against a sequential traversal unless
    ``config.verify`` is off.  ``faults`` takes a
    :class:`~repro.faults.FaultPlan` (or spec string); with faults
    injected the exact-count invariant is replaced by conservation of
    *accounted* work — every materialized node is either processed or
    explicitly written off as lost — and the report carries the fault,
    retry and recovery counters.
    """
    from repro.apps.uts.tree import small_tree

    tree = tree or small_tree("small")
    cfg = config or UtsConfig(policy=policy, steal_chunk=steal_chunk)
    nodes_needed = -(-threads // threads_per_node)
    preset = preset or pyramid(nodes=max(nodes_needed, 1))
    prog = UpcProgram(
        preset,
        threads=threads,
        threads_per_node=threads_per_node,
        conduit=conduit,
        binding="compact",
        seed=tree.seed,
        faults=faults,
    )
    stacks = [StealStack(t, cfg.steal_chunk) for t in range(threads)]
    glob = _Global(prog.sim, threads)

    if prog.faults is not None:
        def on_crash(crash, _prog=prog, _stacks=stacks, _glob=glob):
            _handle_crash(_prog, _stacks, _glob, crash)
        # Registered after UpcProgram's own handler, so threads are
        # already killed (and their locks recovered) when this runs.
        prog.faults.on_crash(on_crash)

    res = prog.run(_worker, cfg, tree, stacks, glob)

    # Per-thread counters live on the stacks, so dead threads' completed
    # work (their processes returned None) is still accounted.
    total = sum(ss.nodes_processed for ss in stacks)
    expected, _depth = count_tree(tree) if cfg.verify else (None, None)
    if cfg.verify:
        if prog.faults is None:
            if total != expected:
                raise AssertionError(
                    f"UTS lost/duplicated work: processed {total}, "
                    f"tree has {expected}"
                )
        elif total + glob.lost_nodes > expected:
            # Lost subtrees were never materialized, so under faults the
            # invariant is one-sided: no node may be double-counted.
            raise AssertionError(
                f"UTS duplicated work under faults: processed {total} + "
                f"lost {glob.lost_nodes} exceeds tree total {expected}"
            )
    alive_returns = [r for r in res.returns if r is not None]
    elapsed = (
        max(r["elapsed"] for r in alive_returns) if alive_returns else res.elapsed
    )
    local = res.stats.get_count(names.UTS_STEAL_LOCAL)
    remote = res.stats.get_count(names.UTS_STEAL_REMOTE)
    steals = local + remote
    report = {
        "policy": cfg.policy,
        "threads": threads,
        "threads_per_node": threads_per_node,
        "conduit": conduit or preset.default_conduit,
        "tree_nodes": total,
        "elapsed_s": elapsed,
        "mnodes_per_s": total / elapsed / 1e6,
        "steals": steals,
        "steals_local": local,
        "steals_remote": remote,
        "pct_local_steals": 100.0 * local / steals if steals else 0.0,
        "nodes_stolen": res.stats.get_count(names.UTS_NODES_STOLEN),
        "avg_steal_size": (
            res.stats.get_count(names.UTS_NODES_STOLEN) / steals if steals else 0.0
        ),
        # Completed-work-under-failure: on a healthy verified run this
        # is exactly 1.0; with faults it is the surviving fraction.
        "threads_lost": len(glob.dead),
        "nodes_lost": glob.lost_nodes,
        "completed_fraction": (total / expected) if expected else None,
        "faults_crashes": res.stats.get_count(names.FAULTS_CRASHES),
        "net_messages_lost": res.stats.get_count(names.NET_MESSAGES_LOST),
        "gasnet_timeouts": res.stats.get_count(names.GASNET_TIMEOUTS),
        "gasnet_retransmits": res.stats.get_count(names.GASNET_RETRANSMITS),
        "victims_blacklisted": res.stats.get_count(names.UTS_VICTIMS_BLACKLISTED),
        "locks_recovered": res.stats.get_count(names.FAULTS_LOCKS_RECOVERED),
    }
    return report


def _handle_crash(prog: UpcProgram, stacks: List[StealStack],
                  glob: _Global, crash) -> None:
    """Degraded-mode bookkeeping when a node fail-stops mid-run.

    The dead threads' queued work and in-flight steals are written off
    so the survivors' termination detection converges, then idle
    survivors are woken to re-run it against the shrunken population.
    """
    dead = [
        loc.thread_id
        for loc in prog.gasnet.locations
        if loc.node == crash.node and loc.thread_id not in glob.dead
    ]
    for t in dead:
        glob.dead.add(t)
        glob.idle.discard(t)
        dropped = stacks[t].drop_all()
        glob.lost_nodes += dropped
        if dropped:
            prog.stats.count(names.UTS_NODES_LOST_ON_STACK, dropped)
        stranded = glob.transit_by.pop(t, 0)
        if stranded:
            glob.in_transit -= stranded
            glob.lost_nodes += stranded
            prog.stats.count(names.UTS_NODES_LOST_IN_TRANSIT, stranded)
    glob.work_cond.notify_all()
