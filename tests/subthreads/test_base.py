"""Unit tests for the fork/join sub-thread machinery."""

import pytest

from repro.errors import SubthreadError
from repro.subthreads import (
    CILK,
    OPENMP,
    POOL,
    ForkJoinRuntime,
    SubthreadParams,
    static_chunks,
)
from tests.upc.conftest import make_program


def run_hybrid(main, threads=2, nodes=1, threads_per_node=None, binding="sockets",
               wide_socket=False, **kwargs):
    """Run on the generic preset; ``wide_socket`` gives one 4-core socket
    so a lone master's sub-threads see 4 distinct cores (socket binding
    confines a process to its socket, the Fig 4.6 '8*n' effect)."""
    if wide_socket:
        from repro.machine.presets import generic_smp
        from repro.upc import UpcProgram

        preset = generic_smp(nodes=nodes, sockets=1, cores_per_socket=4)
        prog = UpcProgram(
            preset, threads=threads,
            threads_per_node=threads_per_node or threads,
            binding=binding, **kwargs,
        )
    else:
        prog = make_program(
            threads=threads, nodes=nodes,
            threads_per_node=threads_per_node or threads,
            binding=binding, **kwargs,
        )
    return prog.run(main), prog


class TestStaticChunks:
    def test_exact_partition(self):
        parts = [static_chunks(10, 3, i) for i in range(3)]
        assert [list(p) for p in parts] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_empty_items(self):
        assert list(static_chunks(0, 4, 0)) == []

    def test_bad_args_rejected(self):
        with pytest.raises(SubthreadError):
            static_chunks(10, 0, 0)
        with pytest.raises(SubthreadError):
            static_chunks(10, 2, 2)


class TestParams:
    def test_bad_scheduling_rejected(self):
        with pytest.raises(SubthreadError):
            SubthreadParams("x", 0, 0, 0, scheduling="fifo")

    def test_bad_inflation_rejected(self):
        with pytest.raises(SubthreadError):
            SubthreadParams("x", 0, 0, 0, work_inflation=0.5)

    def test_flavour_overheads_ordered(self):
        """OpenMP < pool < cilk in fork overhead (the Fig 4.6 ranking)."""
        assert OPENMP.fork_cost < POOL.fork_cost < CILK.fork_cost


class TestParallel:
    def test_bodies_run_on_distinct_pus(self):
        def main(upc):
            omp = ForkJoinRuntime(upc, 4, OPENMP)
            seen = []

            def body(st):
                yield from st.compute(1e-6)
                seen.append(st.pu)

            yield from omp.parallel(body)
            return sorted(seen)

        (res, prog) = run_hybrid(main, threads=1, threads_per_node=1, wide_socket=True)
        assert len(set(res.returns[0])) == 4

    def test_master_is_subthread_zero(self):
        def main(upc):
            omp = ForkJoinRuntime(upc, 2, OPENMP)
            pus = {}

            def body(st):
                yield from st.compute(0.0)
                pus[st.index] = st.pu

            yield from omp.parallel(body)
            return pus[0] == upc.pu

        (res, _) = run_hybrid(main, threads=1, threads_per_node=1)
        assert res.returns[0] is True

    def test_parallel_speedup(self):
        """4 sub-threads on 4 cores cut a compute region ~4x."""

        def work(nthreads):
            def main(upc):
                omp = ForkJoinRuntime(upc, nthreads, OPENMP)

                def body(st):
                    for r in static_chunks(8, st.count, st.index):
                        yield from st.compute(1e-3)

                t0 = upc.wtime()
                yield from omp.parallel(body)
                return upc.wtime() - t0

            (res, _) = run_hybrid(main, threads=1, threads_per_node=1, wide_socket=True)
            return res.returns[0]

        t1, t4 = work(1), work(4)
        assert t1 / t4 == pytest.approx(4.0, rel=0.05)

    def test_join_waits_for_slowest(self):
        def main(upc):
            omp = ForkJoinRuntime(upc, 3, OPENMP)

            def body(st):
                yield from st.compute((st.index + 1) * 1e-3)

            t0 = upc.wtime()
            yield from omp.parallel(body)
            return upc.wtime() - t0

        (res, _) = run_hybrid(main, threads=1, threads_per_node=1)
        assert res.returns[0] >= 3e-3

    def test_zero_threads_rejected(self):
        def main(upc):
            ForkJoinRuntime(upc, 0, OPENMP)
            yield from upc.compute(0.0)

        with pytest.raises(Exception):
            run_hybrid(main, threads=1, threads_per_node=1)


class TestScheduling:
    def test_static_assigns_round_robin(self):
        def main(upc):
            omp = ForkJoinRuntime(upc, 2, OPENMP)
            assignment = {}

            def mk(j):
                def task(st):
                    yield from st.compute(1e-6)
                    assignment[j] = st.index
                return task

            yield from omp.parallel_tasks([mk(j) for j in range(4)])
            return assignment

        (res, _) = run_hybrid(main, threads=1, threads_per_node=1)
        assert res.returns[0] == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_dynamic_balances_uneven_tasks(self):
        """A queue runtime beats static assignment on skewed task sizes."""

        def elapsed(params):
            def main(upc):
                rt = ForkJoinRuntime(upc, 2, params)
                # task 0 is huge; statically, thread 0 would also get task 2
                sizes = [8e-3, 1e-3, 1e-3, 1e-3]

                def mk(sec):
                    def task(st):
                        yield from st.compute(sec)
                    return task

                t0 = upc.wtime()
                yield from rt.parallel_tasks([mk(s) for s in sizes])
                return upc.wtime() - t0

            (res, _) = run_hybrid(main, threads=1, threads_per_node=1)
            return res.returns[0]

        assert elapsed(POOL) < elapsed(OPENMP)

    def test_parallel_for_covers_all_items(self):
        def main(upc):
            pool = ForkJoinRuntime(upc, 3, POOL)
            seen = []

            def body(st, rng):
                yield from st.compute(len(rng) * 1e-7)
                seen.extend(rng)

            yield from pool.parallel_for(20, body, chunks_per_thread=2)
            return sorted(seen)

        (res, _) = run_hybrid(main, threads=1, threads_per_node=1)
        assert res.returns[0] == list(range(20))

    def test_cilk_inflates_work(self):
        def elapsed(params):
            def main(upc):
                rt = ForkJoinRuntime(upc, 1, params)

                def body(st):
                    yield from st.compute(1e-2)

                t0 = upc.wtime()
                yield from rt.parallel(body)
                return upc.wtime() - t0

            (res, _) = run_hybrid(main, threads=1, threads_per_node=1)
            return res.returns[0]

        assert elapsed(CILK) > elapsed(OPENMP) * 1.05


class TestOversubscription:
    def test_more_subthreads_than_pus_timeshare(self):
        """8 sub-threads on a 4-PU socket take ~2x the 4-thread time."""

        def elapsed(n):
            def main(upc):
                omp = ForkJoinRuntime(upc, n, OPENMP)

                def body(st):
                    yield from st.compute(1e-3)

                t0 = upc.wtime()
                yield from omp.parallel(body)
                return upc.wtime() - t0

            (res, _) = run_hybrid(main, threads=1, threads_per_node=1)
            return res.returns[0]

        # generic preset socket = 2 cores; node = 4 cores (master socket mask)
        t2, t4 = elapsed(2), elapsed(4)
        assert t4 == pytest.approx(2 * t2, rel=0.1)
