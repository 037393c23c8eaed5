"""Distributed NAS FT: UPC (split-phase / overlap / hybrid) and MPI.

The 1-D decomposition (Fig 4.3) computes (y, x) locally in layout D1 and
z locally in layout D2; a global exchange re-localizes between them.
Variants:

* ``split`` — bulk-synchronous like the Fortran-MPI original: compute all
  planes, transpose, exchange (blocking point-to-point memputs), compute.
* ``overlap`` — the Bell et al. pattern: as soon as one plane's FFT
  finishes, its per-peer slices go out with non-blocking puts, hiding
  communication behind the next plane's compute.

One driver, ``_ft_main``, runs every UPC variant and the Fortran-MPI
comparator.  The comparator is the split variant with the library
alltoall and allreduce in place of UPC's point-to-point exchange and
binomial allreduce; a ``_Model`` carries only those two collectives and
the rank id, so the two programs differ in communication alone.  Each
direction of the 3-D FFT is one ``_Leg`` (its work items, sizes, FFT,
pack and unpack), which both a split leg and the overlap leg read.

Hybrid runs layer sub-threads (OpenMP / Cilk / thread pool) under each
UPC thread: compute phases are worksharing loops; split-phase exchanges
stay master-only (THREAD_FUNNELED) while overlap lets sub-threads issue
their own puts (THREAD_MULTIPLE), exactly the distinction §4.2.3 draws.

Every phase is timed per thread; the harness reads the critical-path
(max-over-threads) per phase to regenerate Fig 4.4/4.5/4.6.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, NamedTuple, Optional

from repro.apps.ft.classes import FtClass, ft_class
from repro.apps.ft.data import FtState
from repro.apps.ft.kernel import evolve_factors, serial_ft
from repro.machine.presets import PlatformPreset, lehman
from repro.obs import names
from repro.subthreads import CILK, OPENMP, POOL, ForkJoinRuntime, ThreadSafety
from repro.upc import UpcProgram, collectives

__all__ = ["FtConfig", "run_ft", "run_exchange_only"]

_RUNTIMES = {p.name: p for p in (OPENMP, CILK, POOL)}
#: The per-thread phase timers, in report order.
_PHASES = ("fft2d", "fft1d", "evolve", "transpose", "alltoall")


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
    def iters(self) -> int:
        """Iterations to run: ``iterations``, or the class default for 0."""
        return self.iterations or self.clazz.iterations

    @property
    def should_verify(self) -> bool:
        if self.verify is not None:
            return self.verify
        return self.backing == "real"


@dataclass(frozen=True)
class _Leg:
    """One direction of the 3-D FFT: an FFT pass over local work items,
    then a re-layout through the global exchange.

    ``fwd`` runs 2-D FFTs over the z-planes of D1 and moves to D2; ``inv``
    runs 1-D FFTs over the y-rows of D2 and moves back to D1.  Sizes are
    per item: ``transpose_bytes`` is streamed by the local transpose,
    ``slice_bytes`` goes to each peer.
    """

    nitems: int
    flops: float
    transpose_bytes: int
    slice_bytes: int
    fft_timer: str
    fft: Callable
    pack: Callable
    unpack: Callable


def _legs(cls: FtClass, state: FtState):
    """The (fwd, inv) legs of one configuration."""
    fwd = _Leg(
        nitems=state.lnz,
        flops=5.0 * cls.ny * cls.nx * math.log2(cls.ny * cls.nx),
        transpose_bytes=state.plane_bytes,
        slice_bytes=state.plane_slice_bytes,
        fft_timer="fft2d",
        fft=state.fft2d,
        pack=state.pack_d1_to_blocks,
        unpack=state.unpack_blocks_to_d2,
    )
    inv = _Leg(
        nitems=state.lny,
        flops=5.0 * cls.nz * math.log2(cls.nz) * cls.nx,
        transpose_bytes=cls.nz * cls.nx * 16,
        slice_bytes=state.lnz * cls.nx * 16,
        fft_timer="fft1d",
        fft=state.fft1d,
        pack=state.pack_d2_to_blocks,
        unpack=state.unpack_blocks_to_d1,
    )
    return fwd, inv


class _Model(NamedTuple):
    """What the programming models do differently: the rank id and the
    two collectives.  Everything else in ``_ft_main`` is shared."""

    rank: Callable[[Any], int]
    #: ``exchange(ctx, cfg, nbytes_per_pair, t)``; ``t`` is the iteration,
    #: 0 for the forward FFT.
    exchange: Callable[..., Generator]
    #: ``allreduce(ctx, value)`` sums one complex checksum.
    allreduce: Callable[[Any, complex], Generator]


def _upc_exchange(upc, cfg: FtConfig, nbytes: float, t: int):
    return collectives.exchange(
        upc, upc.program.world, nbytes,
        asynchronous=cfg.asynchronous, privatized=cfg.privatized,
    )


def _upc_allreduce(upc, value):
    return collectives.allreduce(upc, upc.program.world, value, operator.add, nbytes=16.0)


def _mpi_exchange(rank, cfg: FtConfig, nbytes: float, t: int):
    from repro.mpi import collectives as mpi_coll

    return mpi_coll.alltoall(rank, nbytes, tag_base=1000 + t)


def _mpi_allreduce(rank, value):
    from repro.mpi import collectives as mpi_coll

    return mpi_coll.allreduce(rank, value, operator.add, nbytes=16.0)


#: The thesis's UPC code: point-to-point memputs and a binomial allreduce.
_UPC = _Model(lambda upc: upc.MYTHREAD, _upc_exchange, _upc_allreduce)
#: The Fortran-MPI comparator: the library alltoall and allreduce.
_MPI = _Model(lambda rank: rank.rank, _mpi_exchange, _mpi_allreduce)


def _subthread_runtime(ctx, cfg: FtConfig):
    if not cfg.omp_threads:
        return None
    safety = (
        ThreadSafety.MULTIPLE if cfg.variant == "overlap" else ThreadSafety.FUNNELED
    )
    return ForkJoinRuntime(
        ctx, cfg.omp_threads, _RUNTIMES[cfg.subthread_runtime], safety=safety
    )


def _compute_planes(ctx, rt, nplanes: int, flops_per_plane: float,
                    stream_per_plane: float, efficiency: float):
    """Charge an FFT-like pass over ``nplanes`` work items.

    Zero flops or zero bytes charge nothing: a transpose only streams and
    an FFT only computes.
    """
    def body(st, n):
        if flops_per_plane:
            yield from st.compute_flops(n * flops_per_plane, efficiency)
        if stream_per_plane:
            yield from st.local_stream(n * stream_per_plane, n * stream_per_plane)

    if rt is None:
        yield from body(ctx, nplanes)
        return

    def chunk(st, rng):
        if len(rng):
            yield from body(st, len(rng))

    yield from rt.parallel_for(nplanes, chunk)


# ---------------------------------------------------------------------------
# the one driver: every thread (UPC) or rank (MPI) runs it
# ---------------------------------------------------------------------------

def _ft_main(ctx, model: _Model, cfg: FtConfig, state: FtState):
    """One FT run on one UPC thread or MPI rank; ``model`` is its
    communication."""
    me = model.rank(ctx)
    fwd, inv = _legs(cfg.clazz, state)
    rt = _subthread_runtime(ctx, cfg)
    stats = ctx.stats

    def fft_pass(leg: _Leg, inverse: bool):
        stats.timer_enter(leg.fft_timer, me)
        yield from _compute_planes(
            ctx, rt, leg.nitems, leg.flops, 0.0, cfg.fft_efficiency
        )
        leg.fft(me, inverse=inverse)
        stats.timer_exit(leg.fft_timer, me)

    def split_leg(leg: _Leg, inverse: bool, t: int):
        """Compute all items, transpose, then a blocking exchange."""
        yield from fft_pass(leg, inverse)
        stats.timer_enter("transpose", me)
        yield from _compute_planes(ctx, rt, leg.nitems, 0.0, leg.transpose_bytes, 1.0)
        stats.timer_exit("transpose", me)
        stats.timer_enter("alltoall", me)
        leg.pack(me)
        yield from model.exchange(ctx, cfg, state.bytes_per_pair, t)
        leg.unpack(me)
        stats.timer_exit("alltoall", me)

    def overlap_leg(leg: _Leg, inverse: bool, t: int):
        """Fused compute+exchange: each item's FFT, then its slices go out
        with non-blocking puts."""
        T = ctx.THREADS
        handles: List = []
        # Castability is topological and fixed for the run: precompute the
        # peer order and per-destination privatization verdicts once
        # instead of re-querying can_cast on every item (the analyzer's
        # PGAS012 verdict).
        peers = [(me + k) % T for k in range(1, T)]
        priv_ok = {dst: cfg.privatized and ctx.can_cast(dst) for dst in peers}

        def issue_puts(c):
            for dst in peers:
                handles.append(c.memput_nb(dst, leg.slice_bytes,
                                           privatized=priv_ok[dst]))

        if rt is None:
            for _p in range(leg.nitems):
                stats.timer_enter(leg.fft_timer, me)
                yield from ctx.compute_flops(leg.flops, cfg.fft_efficiency)
                stats.timer_exit(leg.fft_timer, me)
                issue_puts(ctx)
        else:
            def body(st, rng):
                for _p in rng:
                    yield from st.compute_flops(leg.flops, cfg.fft_efficiency)
                    issue_puts(st)

            stats.timer_enter(leg.fft_timer, me)
            yield from rt.parallel_for(leg.nitems, body)
            stats.timer_exit(leg.fft_timer, me)

        # data plane: the packing is logically per item; do it in bulk here
        leg.fft(me, inverse=inverse)
        leg.pack(me)
        stats.timer_enter("alltoall", me)
        for h in handles:
            yield from h.wait()
        yield from ctx.program.world.barrier(me)
        stats.timer_exit("alltoall", me)
        leg.unpack(me)

    exchange_leg = overlap_leg if cfg.variant == "overlap" else split_leg

    if me == 0:
        state.init_field()
    yield from ctx.barrier()
    t_start = ctx.wtime()

    # -- forward 3-D FFT (once) ------------------------------------------
    yield from exchange_leg(fwd, inverse=False, t=0)
    yield from fft_pass(inv, inverse=False)

    # keep the spectrum: iterations evolve u1, they don't accumulate
    spectrum = state.d2.get(me).copy() if state.real else None

    # -- iterations ---------------------------------------------------------
    checksums: List[complex] = []
    for t in range(1, cfg.iters + 1):
        if state.real:
            state.d2[me] = spectrum * state.factors_slice_d2(
                me, evolve_factors(cfg.clazz, t)
            )
        stats.timer_enter("evolve", me)
        yield from _compute_planes(
            ctx, rt, inv.nitems, 0.0, 2 * inv.transpose_bytes, 1.0
        )
        stats.timer_exit("evolve", me)
        yield from exchange_leg(inv, inverse=True, t=t)
        yield from fft_pass(fwd, inverse=True)
        total = yield from model.allreduce(ctx, state.local_checksum(me))
        checksums.append(total)

    return {"thread": me, "elapsed": ctx.wtime() - t_start, "checksums": checksums}


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
        ft_model = _UPC
    elif model == "mpi":
        if variant != "split" or omp_threads:
            raise ValueError("the MPI comparator is split-phase, no sub-threads")
        from repro.mpi import MpiProgram

        prog = MpiProgram(
            preset, ranks=threads, ranks_per_node=threads_per_node,
            conduit=conduit,
        )
        ft_model = _MPI
    else:
        raise ValueError(f"unknown model {model!r}")
    res = prog.run(_ft_main, ft_model, cfg, state)

    checksums = res.returns[0]["checksums"]
    if cfg.should_verify and state.real:
        expected = serial_ft(cls, iterations=cfg.iters)
        for got, want in zip(checksums, expected):
            if abs(got - want) > 1e-6 * max(1.0, abs(want)):
                raise AssertionError(
                    f"FT checksum mismatch: got {got}, expected {want}"
                )

    elapsed = max(r["elapsed"] for r in res.returns)
    phases = {name: res.stats.timer_max(name) for name in _PHASES}
    total_flops = (cfg.iters + 1) * cls.fft3d_flops()
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
