"""Unit tests for thread-safety levels and sub-thread UPC access."""

import pytest

from repro.subthreads import CILK, OPENMP, ForkJoinRuntime, ThreadSafety
from tests.upc.conftest import make_program


def hybrid_prog(threads=2, nodes=2):
    return make_program(
        threads=threads, nodes=nodes, threads_per_node=threads // nodes or 1,
        binding="sockets",
    )


class TestThreadSafetyLevels:
    def _run_comm_from_subthread(self, safety, sub_index_comm):
        prog = hybrid_prog(threads=2, nodes=2)

        def main(upc):
            if upc.MYTHREAD != 0:
                yield from upc.compute(0.0)
                return "peer"
            omp = ForkJoinRuntime(upc, 2, OPENMP, safety=safety)

            def body(st):
                yield from st.compute(1e-6)
                if st.index == sub_index_comm:
                    yield from st.memput(1, 1024)

            yield from omp.parallel(body)
            return "ok"

        return prog.run(main)

    def test_funneled_master_may_communicate(self):
        res = self._run_comm_from_subthread(ThreadSafety.FUNNELED, 0)
        assert res.returns[0] == "ok"

    def test_funneled_worker_crashes(self):
        with pytest.raises(Exception, match="FUNNELED"):
            self._run_comm_from_subthread(ThreadSafety.FUNNELED, 1)

    def test_single_forbids_all(self):
        with pytest.raises(Exception, match="SINGLE"):
            self._run_comm_from_subthread(ThreadSafety.SINGLE, 0)

    def test_multiple_allows_workers(self):
        res = self._run_comm_from_subthread(ThreadSafety.MULTIPLE, 1)
        assert res.returns[0] == "ok"

    def test_serialized_allows_one_at_a_time(self):
        prog = hybrid_prog(threads=2, nodes=2)

        def main(upc):
            if upc.MYTHREAD != 0:
                yield from upc.compute(0.0)
                return None
            omp = ForkJoinRuntime(upc, 2, OPENMP, safety=ThreadSafety.SERIALIZED)

            def body(st):
                yield from st.memput(1, 1 << 20)

            t0 = upc.wtime()
            yield from omp.parallel(body)
            return upc.wtime() - t0

        elapsed = prog.run(main).returns[0]
        # two 1MB puts serialized through the mutex: at least 2x one message
        assert elapsed >= 2 * prog.net_params.message_time(1 << 20) * 0.9

    def test_serialized_forbids_nonblocking(self):
        prog = hybrid_prog(threads=2, nodes=2)

        def main(upc):
            if upc.MYTHREAD != 0:
                yield from upc.compute(0.0)
                return None
            omp = ForkJoinRuntime(upc, 1, OPENMP, safety=ThreadSafety.SERIALIZED)

            def body(st):
                st.memput_nb(1, 8)
                yield from st.compute(0.0)

            yield from omp.parallel(body)

        with pytest.raises(Exception, match="SERIALIZED"):
            prog.run(main)


class TestSubthreadMemory:
    def test_stream_from_reaches_global_address_space(self):
        """Sub-threads can read a *remote-socket* UPC thread's segment."""
        prog = make_program(threads=2, nodes=1, threads_per_node=2, binding="sockets")

        def main(upc):
            omp = ForkJoinRuntime(upc, 2, OPENMP)

            def body(st):
                peer = 1 - upc.MYTHREAD
                yield from st.stream_from(peer, 1 << 20, 0)

            yield from omp.parallel(body)
            return upc.wtime()

        res = prog.run(main)
        assert res.elapsed > 0

    def test_subthread_compute_charges_inflation(self):
        prog = make_program(threads=1, nodes=1, threads_per_node=1, binding="sockets")

        def main(upc):
            cilk = ForkJoinRuntime(upc, 1, CILK)
            st = cilk.context(0)
            t0 = upc.wtime()
            yield from st.compute(1.0)
            return upc.wtime() - t0

        assert prog.run(main).returns[0] == pytest.approx(1.08)
