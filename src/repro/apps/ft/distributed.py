"""Distributed NAS FT: UPC (split-phase / overlap / hybrid) and MPI.

The 1-D decomposition (Fig 4.3) computes (y, x) locally in layout D1 and
z locally in layout D2; a global exchange re-localizes between them.
Variants:

* ``split`` — bulk-synchronous like the Fortran-MPI original: compute all
  planes, transpose, exchange (blocking point-to-point memputs), compute.
* ``overlap`` — the Bell et al. pattern: as soon as one plane's FFT
  finishes, its per-peer slices go out with non-blocking puts, hiding
  communication behind the next plane's compute.

Hybrid runs layer sub-threads (OpenMP / Cilk / thread pool) under each
UPC thread: compute phases are worksharing loops; split-phase exchanges
stay master-only (THREAD_FUNNELED) while overlap lets sub-threads issue
their own puts (THREAD_MULTIPLE), exactly the distinction §4.2.3 draws.

Every phase is timed per thread; the harness reads the critical-path
(max-over-threads) per phase to regenerate Fig 4.4/4.5/4.6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.apps.ft.classes import FtClass, ft_class
from repro.apps.ft.data import FtState
from repro.apps.ft.kernel import evolve_factors, serial_ft
from repro.machine.presets import PlatformPreset, lehman
from repro.obs import names
from repro.subthreads import Cilk, OpenMP, ThreadPool, ThreadSafety
from repro.upc import UpcProgram, collectives

if TYPE_CHECKING:
    import numpy as np

__all__ = ["FtConfig", "run_ft", "run_exchange_only"]

_RUNTIMES = {"openmp": OpenMP, "cilk": Cilk, "pool": ThreadPool}
#: Streamed bytes multiplier for a pack/unpack pass (read + write).
_PACK_RW = 2


@dataclass(frozen=True)
class FtConfig:
    """One FT run's knobs."""

    clazz: FtClass = field(default_factory=lambda: ft_class("S"))
    variant: str = "split"             #: "split" | "overlap"
    iterations: int = 0                #: 0 = the class default
    backing: str = "real"              #: "real" (verified) | "virtual"
    fft_efficiency: float = 0.15       #: sustained fraction of peak for FFTs
    privatized: bool = False           #: cast intra-supernode puts (Fig 3.4)
    asynchronous: bool = False         #: async split-phase exchange (Fig 3.4b)
    omp_threads: int = 0               #: sub-threads per UPC thread (0 = none)
    subthread_runtime: str = "openmp"  #: "openmp" | "cilk" | "pool"
    verify: Optional[bool] = None      #: default: verify iff backing == real

    def __post_init__(self) -> None:
        if self.variant not in ("split", "overlap"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.subthread_runtime not in _RUNTIMES:
            raise ValueError(f"unknown sub-thread runtime {self.subthread_runtime!r}")

    @property
    def should_verify(self) -> bool:
        if self.verify is not None:
            return self.verify
        return self.backing == "real"


class _Plan:
    """Per-thread precomputed flop/byte counts for one configuration."""

    def __init__(self, cfg: FtConfig, state: FtState):
        cls = cfg.clazz
        self.plane_flops_2d = 5.0 * cls.ny * cls.nx * math.log2(cls.ny * cls.nx)
        self.row_flops_1d = 5.0 * cls.nz * math.log2(cls.nz) * cls.nx
        self.local_bytes = state.local_bytes
        self.plane_bytes = state.plane_bytes
        self.plane_slice_bytes = state.plane_slice_bytes
        self.row_bytes_d2 = cls.nz * cls.nx * 16
        self.row_slice_bytes = state.lnz * cls.nx * 16


def _subthread_runtime(upc, cfg: FtConfig):
    if not cfg.omp_threads:
        return None
    safety = (
        ThreadSafety.MULTIPLE if cfg.variant == "overlap" else ThreadSafety.FUNNELED
    )
    return _RUNTIMES[cfg.subthread_runtime](upc, cfg.omp_threads, safety=safety)


# ---------------------------------------------------------------------------
# phase helpers (UPC side).  Each charges simulated cost — possibly through
# sub-threads — then performs the instantaneous data-plane operation.
# ---------------------------------------------------------------------------

def _compute_planes(upc, rt, nplanes: int, flops_per_plane: float,
                    stream_per_plane: float, efficiency: float):
    """Charge an FFT-like pass over ``nplanes`` work items."""
    if rt is None:
        yield from upc.compute_flops(nplanes * flops_per_plane, efficiency)
        if stream_per_plane:
            yield from upc.local_stream(
                nplanes * stream_per_plane, nplanes * stream_per_plane
            )
        return

    def body(st, rng):
        n = len(rng)
        if n == 0:
            return
        yield from st.compute_flops(n * flops_per_plane, efficiency)
        if stream_per_plane:
            yield from st.local_stream(n * stream_per_plane, n * stream_per_plane)

    yield from rt.parallel_for(nplanes, body)


def _split_exchange(upc, cfg: FtConfig, state: FtState, pack: str):
    """Split-phase global exchange (pack direction 'd1' or 'd2')."""
    me = upc.MYTHREAD
    if pack == "d1":
        state.pack_d1_to_blocks(me)
    else:
        state.pack_d2_to_blocks(me)
    yield from collectives.exchange(
        upc, upc.program.world, state.bytes_per_pair,
        asynchronous=cfg.asynchronous, privatized=cfg.privatized,
    )
    if pack == "d1":
        state.unpack_blocks_to_d2(me)
    else:
        state.unpack_blocks_to_d1(me)


def _overlap_fft_exchange(upc, rt, cfg: FtConfig, state: FtState, plan: _Plan,
                          direction: str, inverse: bool, timers):
    """Fused compute+exchange: per-plane FFT then non-blocking slices out.

    ``direction`` is "fwd" (D1 planes, 2-D FFTs, exchange to D2) or "inv"
    (D2 rows, 1-D FFTs, exchange to D1).
    """
    me, T = upc.MYTHREAD, upc.THREADS
    if direction == "fwd":
        nitems = state.lnz
        flops = plan.plane_flops_2d
        slice_bytes = plan.plane_slice_bytes
        fft_timer = "fft2d"
    else:
        nitems = state.lny
        flops = plan.row_flops_1d
        slice_bytes = plan.row_slice_bytes
        fft_timer = "fft1d"

    handles: List = []

    # Castability is topological and fixed for the run: precompute the
    # peer order and per-destination privatization verdicts once instead
    # of re-querying can_cast on every plane (the analyzer's PGAS012
    # verdict).  Same memput_nb order and arguments, so the simulated
    # cost stream is unchanged.
    peers = [(me + k) % T for k in range(1, T)]
    priv_ok = {dst: cfg.privatized and upc.can_cast(dst) for dst in peers}

    def issue_puts(ctx, can_nb=True):
        for dst in peers:
            handles.append(ctx.memput_nb(dst, slice_bytes,
                                         privatized=priv_ok[dst]))

    if rt is None:
        for p in range(nitems):
            timers[fft_timer].start()
            yield from upc.compute_flops(flops, cfg.fft_efficiency)
            timers[fft_timer].stop()
            issue_puts(upc)
    else:
        def body(st, rng):
            for _p in rng:
                yield from st.compute_flops(flops, cfg.fft_efficiency)
                issue_puts(st)

        timers[fft_timer].start()
        yield from rt.parallel_for(nitems, body)
        timers[fft_timer].stop()

    # data plane: the packing is logically per-plane; do it in bulk here
    if direction == "fwd":
        state.fft2d(me, inverse=inverse)
        state.pack_d1_to_blocks(me)
    else:
        state.fft1d(me, inverse=inverse)
        state.pack_d2_to_blocks(me)

    timers["alltoall"].start()
    for h in handles:
        yield from h.wait()
    yield from upc.program.world.barrier(me)
    timers["alltoall"].stop()

    if direction == "fwd":
        state.unpack_blocks_to_d2(me)
    else:
        state.unpack_blocks_to_d1(me)


# ---------------------------------------------------------------------------
# main programs
# ---------------------------------------------------------------------------

def _ft_upc_main(upc, cfg: FtConfig, state: FtState):
    me, T = upc.MYTHREAD, upc.THREADS
    cls = cfg.clazz
    iters = cfg.iterations or cls.iterations
    plan = _Plan(cfg, state)
    rt = _subthread_runtime(upc, cfg)
    stats = upc.stats
    timers = {
        name: stats.phase(name, key=me)
        for name in ("fft2d", "fft1d", "evolve", "transpose", "alltoall")
    }
    factors_cache: Dict[int, np.ndarray] = {}

    if me == 0:
        state.init_field()
    yield from upc.barrier()
    t_start = upc.wtime()

    # -- forward 3-D FFT (once) ------------------------------------------
    if cfg.variant == "split":
        timers["fft2d"].start()
        yield from _compute_planes(
            upc, rt, state.lnz, plan.plane_flops_2d, 0.0, cfg.fft_efficiency
        )
        state.fft2d(me)
        timers["fft2d"].stop()
        timers["transpose"].start()
        yield from _compute_planes(
            upc, rt, state.lnz, 0.0, plan.plane_bytes, 1.0
        )
        timers["transpose"].stop()
        timers["alltoall"].start()
        yield from _split_exchange(upc, cfg, state, pack="d1")
        timers["alltoall"].stop()
    else:
        yield from _overlap_fft_exchange(
            upc, rt, cfg, state, plan, "fwd", inverse=False, timers=timers
        )
    timers["fft1d"].start()
    yield from _compute_planes(
        upc, rt, state.lny, plan.row_flops_1d, 0.0, cfg.fft_efficiency
    )
    state.fft1d(me)
    timers["fft1d"].stop()

    # keep the spectrum: iterations evolve u1, they don't accumulate
    spectrum = state.d2.get(me).copy() if state.real else None

    # -- iterations ---------------------------------------------------------
    checksums: List[complex] = []
    for t in range(1, iters + 1):
        if state.real:
            if t not in factors_cache:
                factors_cache.clear()
                factors_cache[t] = state.factors_slice_d2(
                    me, evolve_factors(cls, t)
                )
            state.d2[me] = spectrum * factors_cache[t]
        timers["evolve"].start()
        yield from _compute_planes(
            upc, rt, state.lny, 0.0, 2 * plan.row_bytes_d2, 1.0
        )
        timers["evolve"].stop()

        if cfg.variant == "split":
            timers["fft1d"].start()
            yield from _compute_planes(
                upc, rt, state.lny, plan.row_flops_1d, 0.0, cfg.fft_efficiency
            )
            state.fft1d(me, inverse=True)
            timers["fft1d"].stop()
            timers["transpose"].start()
            yield from _compute_planes(
                upc, rt, state.lny, 0.0, plan.row_bytes_d2, 1.0
            )
            timers["transpose"].stop()
            timers["alltoall"].start()
            yield from _split_exchange(upc, cfg, state, pack="d2")
            timers["alltoall"].stop()
        else:
            yield from _overlap_fft_exchange(
                upc, rt, cfg, state, plan, "inv", inverse=True, timers=timers
            )

        timers["fft2d"].start()
        yield from _compute_planes(
            upc, rt, state.lnz, plan.plane_flops_2d, 0.0, cfg.fft_efficiency
        )
        state.fft2d(me, inverse=True)
        timers["fft2d"].stop()

        local = state.local_checksum(me)
        total = yield from collectives.allreduce(
            upc, upc.program.world, local, lambda a, b: a + b, nbytes=16.0
        )
        checksums.append(total)

    elapsed = upc.wtime() - t_start
    return {"thread": me, "elapsed": elapsed, "checksums": checksums}


def _ft_mpi_main(rank, cfg: FtConfig, state: FtState):
    """The Fortran-MPI comparator: split-phase with library alltoall."""
    from repro.mpi import collectives as mpi_coll

    me, T = rank.rank, rank.size
    cls = cfg.clazz
    iters = cfg.iterations or cls.iterations
    plan = _Plan(cfg, state)
    stats = rank.stats
    timers = {
        name: stats.phase(name, key=me)
        for name in ("fft2d", "fft1d", "evolve", "transpose", "alltoall")
    }

    def compute(flops):
        yield from rank.compute_flops(flops, cfg.fft_efficiency)

    if me == 0:
        state.init_field()
    yield from rank.barrier()
    t_start = rank.wtime()

    timers["fft2d"].start()
    yield from compute(state.lnz * plan.plane_flops_2d)
    state.fft2d(me)
    timers["fft2d"].stop()
    timers["transpose"].start()
    yield from rank.local_stream(
        state.lnz * plan.plane_bytes, state.lnz * plan.plane_bytes
    )
    timers["transpose"].stop()
    state.pack_d1_to_blocks(me)
    timers["alltoall"].start()
    yield from mpi_coll.alltoall(rank, state.bytes_per_pair)
    timers["alltoall"].stop()
    state.unpack_blocks_to_d2(me)
    timers["fft1d"].start()
    yield from compute(state.lny * plan.row_flops_1d)
    state.fft1d(me)
    timers["fft1d"].stop()

    spectrum = state.d2.get(me).copy() if state.real else None
    checksums: List[complex] = []
    for t in range(1, iters + 1):
        if state.real:
            state.d2[me] = spectrum * state.factors_slice_d2(
                me, evolve_factors(cls, t)
            )
        timers["evolve"].start()
        yield from rank.local_stream(2 * plan.local_bytes, 2 * plan.local_bytes)
        timers["evolve"].stop()
        timers["fft1d"].start()
        yield from compute(state.lny * plan.row_flops_1d)
        state.fft1d(me, inverse=True)
        timers["fft1d"].stop()
        timers["transpose"].start()
        yield from rank.local_stream(
            state.lny * plan.row_bytes_d2, state.lny * plan.row_bytes_d2
        )
        timers["transpose"].stop()
        state.pack_d2_to_blocks(me)
        timers["alltoall"].start()
        yield from mpi_coll.alltoall(rank, state.bytes_per_pair, tag_base=1000 + t)
        timers["alltoall"].stop()
        state.unpack_blocks_to_d1(me)
        timers["fft2d"].start()
        yield from compute(state.lnz * plan.plane_flops_2d)
        state.fft2d(me, inverse=True)
        timers["fft2d"].stop()
        local = state.local_checksum(me)
        total = yield from mpi_coll.allreduce(
            rank, local, lambda a, b: a + b, nbytes=16.0
        )
        checksums.append(total)

    return {"thread": me, "elapsed": rank.wtime() - t_start, "checksums": checksums}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_ft(
    clazz: str = "S",
    model: str = "upc",
    variant: str = "split",
    threads: int = 4,
    threads_per_node: Optional[int] = None,
    threads_per_process: int = 1,
    omp_threads: int = 0,
    subthread_runtime: str = "openmp",
    preset: Optional[PlatformPreset] = None,
    conduit: Optional[str] = None,
    iterations: int = 0,
    backing: str = "real",
    privatized: bool = False,
    asynchronous: bool = False,
    verify: Optional[bool] = None,
    fft_efficiency: float = 0.15,
) -> Dict:
    """Run one NAS FT configuration; returns metrics and phase times.

    ``model``: "upc" (with optional ``threads_per_process`` > 1 for the
    pthreads backend and ``omp_threads`` > 0 for hybrids) or "mpi".
    Real backing verifies checksums against the serial reference.
    """
    cls = ft_class(clazz)
    if backing == "real" and cls.total_bytes > 128 << 20:
        raise ValueError(
            f"{cls} is too large for real backing; use backing='virtual'"
        )
    cfg = FtConfig(
        clazz=cls, variant=variant, iterations=iterations, backing=backing,
        fft_efficiency=fft_efficiency, privatized=privatized,
        asynchronous=asynchronous, omp_threads=omp_threads,
        subthread_runtime=subthread_runtime, verify=verify,
    )
    state = FtState(cls, threads, backing=backing)

    nodes_needed = -(-threads // (threads_per_node or threads))
    preset = preset or lehman(nodes=max(nodes_needed, 1))
    if model == "upc":
        prog = UpcProgram(
            preset,
            threads=threads,
            threads_per_node=threads_per_node,
            threads_per_process=threads_per_process,
            conduit=conduit,
            binding="sockets" if (omp_threads or threads_per_process > 1) else "compact",
        )
        res = prog.run(_ft_upc_main, cfg, state)
    elif model == "mpi":
        if variant != "split" or omp_threads:
            raise ValueError("the MPI comparator is split-phase, no sub-threads")
        from repro.mpi import MpiProgram

        prog = MpiProgram(
            preset, ranks=threads, ranks_per_node=threads_per_node,
            conduit=conduit,
        )
        res = prog.run(_ft_mpi_main, cfg, state)
    else:
        raise ValueError(f"unknown model {model!r}")

    checksums = res.returns[0]["checksums"]
    if cfg.should_verify and state.real:
        iters = cfg.iterations or cls.iterations
        expected = serial_ft(cls, iterations=iters)
        for got, want in zip(checksums, expected):
            if abs(got - want) > 1e-6 * max(1.0, abs(want)):
                raise AssertionError(
                    f"FT checksum mismatch: got {got}, expected {want}"
                )

    elapsed = max(r["elapsed"] for r in res.returns)
    phases = {
        name: res.stats.timer_max(name)
        for name in ("fft2d", "fft1d", "evolve", "transpose", "alltoall")
    }
    iters = cfg.iterations or cls.iterations
    total_flops = (iters + 1) * cls.fft3d_flops()
    return {
        "class": cls.name,
        "model": model,
        "variant": variant,
        "threads": threads,
        "omp_threads": omp_threads,
        "elapsed_s": elapsed,
        "gflops": total_flops / elapsed / 1e9,
        "phases": phases,
        "comm_s": phases["alltoall"],
        "waitsync_s": res.stats.get_sum(names.GASNET_WAITSYNC_TIME),
        "checksums": checksums,
        "verified": bool(cfg.should_verify and state.real),
    }


def run_exchange_only(
    clazz: str = "B",
    threads: int = 32,
    threads_per_node: int = 8,
    threads_per_process: int = 1,
    pshm: bool = True,
    privatized: bool = False,
    asynchronous: bool = False,
    preset: Optional[PlatformPreset] = None,
    conduit: Optional[str] = None,
    repeats: int = 3,
) -> Dict:
    """Only the FT all-to-all step, at class-B sizes (Fig 3.4).

    Uses virtual backing — the exchange is the object of study; the
    backend (processes/pthreads × PSHM) and the cast optimization are
    the independent variables.
    """
    from repro.gasnet import BackendConfig

    cls = ft_class(clazz)
    state = FtState(cls, threads, backing="virtual")
    nodes_needed = -(-threads // threads_per_node)
    preset = preset or lehman(nodes=max(nodes_needed, 1))
    backend = BackendConfig(
        mode="processes" if threads_per_process == 1 else "pthreads",
        pshm=pshm,
    )
    prog = UpcProgram(
        preset,
        threads=threads,
        threads_per_node=threads_per_node,
        threads_per_process=threads_per_process,
        backend=backend,
        conduit=conduit,
        binding="compact" if threads_per_process == 1 else "sockets",
    )

    def main(upc):
        yield from upc.barrier()
        t0 = upc.wtime()
        for _r in range(repeats):
            yield from collectives.exchange(
                upc, upc.program.world, state.bytes_per_pair,
                asynchronous=asynchronous, privatized=privatized,
            )
        return (upc.wtime() - t0) / repeats

    res = prog.run(main)
    elapsed = max(res.returns)
    return {
        "class": cls.name,
        "threads": threads,
        "backend": backend.label,
        "privatized": privatized,
        "asynchronous": asynchronous,
        "exchange_s": elapsed,
        "waitsync_s": res.stats.get_sum(names.GASNET_WAITSYNC_TIME) / repeats,
        "bytes_per_pair": state.bytes_per_pair,
    }
