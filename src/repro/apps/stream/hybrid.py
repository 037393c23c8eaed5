"""Hybrid UPC×OpenMP STREAM triad placement study (§4.3.2, Table 4.1).

The arrays are allocated as UPC shared arrays (first-touched by each UPC
master thread, so their pages live on the master's starting socket) and
the TRIAD is computed by OpenMP sub-threads.  The benchmark itself gains
nothing from hierarchy — it only *reveals placement*:

* ``8`` pure UPC threads or ``8`` OpenMP threads, bound: every thread
  streams socket-local memory → full node bandwidth (~24.5 GB/s);
* ``1×8`` un-bound: one master first-touches everything on one socket;
  its 8 sub-threads then hammer a single memory controller → roughly
  half throughput;
* ``2×4`` / ``4×2`` with socket binding: each master's data is local to
  its sub-threads → full bandwidth again.
"""

from __future__ import annotations

from typing import Optional

from repro.machine.presets import PlatformPreset, lehman
from repro.subthreads import OPENMP, ForkJoinRuntime, ThreadSafety
from repro.upc import UpcProgram

__all__ = ["run_pure", "run_hybrid_stream"]

_ELEM = 8
_READS = 2 * _ELEM
_WRITES = _ELEM
_TRIAD_BYTES = _READS + _WRITES


def _pure_main(upc, n: int, chunks: int):
    yield from upc.barrier()
    t0 = upc.wtime()
    per = n // chunks
    for c in range(chunks):
        m = per if c < chunks - 1 else n - per * (chunks - 1)
        yield from upc.local_stream(m * _READS, m * _WRITES)
    yield from upc.barrier()
    return upc.wtime() - t0


def _hybrid_main(upc, omp_threads: int, n: int, chunks: int):
    omp = ForkJoinRuntime(upc, omp_threads, OPENMP, safety=ThreadSafety.FUNNELED)
    yield from upc.barrier()
    t0 = upc.wtime()

    def body(st):
        # sub-threads read/write the *master's* shared arrays (first touch)
        share = n // st.count
        per = share // chunks
        for c in range(chunks):
            m = per if c < chunks - 1 else share - per * (chunks - 1)
            yield from st.stream_from(upc.MYTHREAD, m * _READS, m * _WRITES)

    yield from omp.parallel(body)
    yield from upc.barrier()
    return upc.wtime() - t0


def run_pure(
    model: str = "upc",
    preset: Optional[PlatformPreset] = None,
    threads: int = 8,
    elements_per_thread: int = 2_000_000,
    chunks: int = 8,
) -> dict:
    """Pure UPC (8 processes) or pure OpenMP (8 threads, one process).

    Both are bound and first-touch-local; in this model they price
    identically, matching Table 4.1's near-identical 24.5 vs 23.7 GB/s.
    """
    preset = preset or lehman(nodes=1)
    if model == "upc":
        prog = UpcProgram(preset, threads=threads, threads_per_node=threads,
                          binding="compact")
    elif model == "openmp":
        # one process of N threads spread over the whole node; each thread
        # first-touches its own chunk (the standard OpenMP STREAM idiom)
        prog = UpcProgram(preset, threads=threads, threads_per_node=threads,
                          threads_per_process=threads, binding="unbound")
    else:
        raise ValueError(f"unknown model {model!r}")
    res = prog.run(_pure_main, elements_per_thread, chunks)
    elapsed = max(res.returns)
    total = threads * elements_per_thread * _TRIAD_BYTES
    return {
        "config": model,
        "elapsed_s": elapsed,
        "throughput_gbs": total / elapsed / 1e9,
    }


def run_hybrid_stream(
    upc_threads: int,
    omp_threads: int,
    bound: bool = True,
    preset: Optional[PlatformPreset] = None,
    total_elements: int = 16_000_000,
    chunks: int = 8,
) -> dict:
    """One UPC×OpenMP row of Table 4.1 on a single node."""
    preset = preset or lehman(nodes=1)
    prog = UpcProgram(
        preset,
        threads=upc_threads,
        threads_per_node=upc_threads,
        binding="sockets" if bound else "unbound",
    )
    per_master = total_elements // upc_threads
    res = prog.run(_hybrid_main, omp_threads, per_master, chunks)
    elapsed = max(res.returns)
    total = total_elements * _TRIAD_BYTES
    return {
        "config": f"{upc_threads}*{omp_threads}{'' if bound else ' (unbound)'}",
        "elapsed_s": elapsed,
        "throughput_gbs": total / elapsed / 1e9,
    }
