"""Unit tests for UpcProgram / Upc context."""

import pytest

from repro.errors import UpcError
from repro.sim import ProcessFailure
from tests.upc.conftest import make_program


class TestLaunch:
    def test_spmd_identity(self):
        prog = make_program(threads=4)

        def main(upc):
            yield from upc.compute(1e-6)
            return (upc.MYTHREAD, upc.THREADS)

        res = prog.run(main)
        assert res.returns == [(t, 4) for t in range(4)]
        assert res.elapsed > 0

    def test_args_passed_through(self):
        prog = make_program(threads=2)

        def main(upc, a, b=0):
            yield from upc.compute(0.0)
            return a + b + upc.MYTHREAD

        res = prog.run(main, 10, b=5)
        assert res.returns == [15, 16]

    def test_bad_thread_count_rejected(self):
        with pytest.raises(UpcError):
            make_program(threads=0)

    def test_indivisible_pthreads_rejected(self):
        with pytest.raises(UpcError):
            make_program(threads=5, threads_per_process=2)

    def test_deadlock_detected(self):
        prog = make_program(threads=2)

        def main(upc):
            if upc.MYTHREAD == 0:
                yield from upc.barrier()  # thread 1 never arrives
            else:
                yield from upc.compute(1e-9)

        with pytest.raises(UpcError, match="deadlock"):
            prog.run(main)

    def test_failure_propagates(self):
        prog = make_program(threads=2)

        def main(upc):
            yield from upc.compute(0.0)
            if upc.MYTHREAD == 1:
                raise ValueError("app bug")

        with pytest.raises(Exception, match="app bug"):
            prog.run(main)


class TestPlacement:
    def test_compact_distinct_pus(self):
        prog = make_program(threads=4, nodes=2, threads_per_node=2)
        pus = [prog.gasnet.location(t).pu for t in range(4)]
        assert len(set(pus)) == 4
        assert prog.gasnet.location(0).node == 0
        assert prog.gasnet.location(2).node == 1

    def test_processes_mode_unique_process_ids(self):
        prog = make_program(threads=4)
        procs = {prog.gasnet.location(t).process_id for t in range(4)}
        assert len(procs) == 4

    def test_pthreads_mode_groups_processes(self):
        prog = make_program(
            threads=4, nodes=1, threads_per_node=4, threads_per_process=2
        )
        locs = [prog.gasnet.location(t) for t in range(4)]
        assert locs[0].process_id == locs[1].process_id
        assert locs[0].process_id != locs[2].process_id

    def test_pthreads_threads_stay_on_process_socket(self):
        prog = make_program(
            threads=4, nodes=1, threads_per_node=4, threads_per_process=2
        )
        topo = prog.topo
        for p in (0, 1):
            socks = {
                topo.pu(prog.gasnet.location(p * 2 + i).pu).socket_index
                for i in range(2)
            }
            assert len(socks) == 1

    def test_backend_inferred_from_tpp(self):
        assert make_program(threads=2).backend.mode == "processes"
        assert (
            make_program(threads=4, nodes=1, threads_per_node=4,
                         threads_per_process=2).backend.mode
            == "pthreads"
        )

    def test_unknown_binding_rejected(self):
        with pytest.raises(UpcError, match="binding"):
            make_program(threads=2, binding="diagonal")


class TestBarrier:
    def test_all_threads_synchronize(self):
        prog = make_program(threads=4)

        def main(upc):
            yield from upc.compute(upc.MYTHREAD * 1e-3)
            yield from upc.barrier()
            return upc.wtime()

        res = prog.run(main)
        assert len(set(res.returns)) == 1
        assert res.returns[0] >= 3e-3

    def test_barrier_cost_grows_with_nodes(self):
        one = make_program(threads=2, nodes=1, threads_per_node=2)
        four = make_program(threads=4, nodes=4, threads_per_node=1)
        assert four.barrier_cost() > one.barrier_cost()


class TestCharging:
    def test_compute_advances_clock(self):
        prog = make_program(threads=1)

        def main(upc):
            yield from upc.compute(2.5e-3)
            return upc.wtime()

        assert prog.run(main).returns[0] == pytest.approx(2.5e-3)

    def test_compute_flops(self):
        prog = make_program(threads=1)
        rate = prog.preset.memory.core_flops

        def main(upc):
            yield from upc.compute_flops(rate, efficiency=1.0)
            return upc.wtime()

        assert prog.run(main).returns[0] == pytest.approx(1.0)

    def test_local_stream_charges_bandwidth(self):
        prog = make_program(threads=1)
        mem = prog.preset.memory

        def main(upc):
            # one core is port-limited: core_stream_bw bytes take 1 s
            yield from upc.local_stream(mem.core_stream_bw, 0)
            return upc.wtime()

        assert prog.run(main).returns[0] == pytest.approx(1.0, rel=0.01)

    def test_charge_shared_accesses(self):
        prog = make_program(threads=1)
        per = prog.preset.memory.pointer_translation_time

        def main(upc):
            yield from upc.charge_shared_accesses(1000)
            return upc.wtime()

        assert prog.run(main).returns[0] == pytest.approx(1000 * per)


class TestMemops:
    def test_memput_between_nodes(self):
        prog = make_program(threads=2, nodes=2, threads_per_node=1)

        def main(upc):
            if upc.MYTHREAD == 0:
                yield from upc.memput(1, 1 << 20)
            yield from upc.barrier()
            return upc.wtime()

        res = prog.run(main)
        assert res.elapsed >= prog.net_params.message_time(1 << 20)

    def test_memput_nb_overlaps(self):
        prog = make_program(threads=2, nodes=2, threads_per_node=1)

        def main(upc):
            if upc.MYTHREAD == 0:
                h = upc.memput_nb(1, 1 << 20)
                yield from upc.compute(1.0)
                yield from h.wait()
            else:
                yield from upc.compute(0.0)
            return upc.wtime()

        res = prog.run(main)
        assert res.returns[0] == pytest.approx(1.0, rel=0.05)

    def test_can_cast_same_node_with_pshm(self):
        prog = make_program(threads=4, nodes=2, threads_per_node=2)

        def main(upc):
            yield from upc.compute(0.0)
            return [upc.can_cast(t) for t in range(4)]

        res = prog.run(main)
        assert res.returns[0] == [True, True, False, False]


class TestCollectiveGate:
    """Runtime collectives: ``Upc.collective`` on the collective barrier."""

    def test_all_alloc_returns_same_array(self):
        prog = make_program(threads=4)

        def main(upc):
            arr = yield from upc.all_alloc(100, dtype="f8", blocksize=5)
            return id(arr)

        res = prog.run(main)
        assert len(set(res.returns)) == 1

    def test_two_sequential_allocs(self):
        prog = make_program(threads=2)

        def main(upc):
            a = yield from upc.all_alloc(10)
            b = yield from upc.all_alloc(20)
            return (a.nelems, b.nelems, a is b)

        res = prog.run(main)
        assert res.returns == [(10, 20, False)] * 2

    def test_combine_runs_once(self):
        prog = make_program(threads=4)
        calls = []

        def combine(payloads):
            calls.append(dict(payloads))
            return sum(payloads.values())

        def main(upc):
            yield from upc.compute(upc.MYTHREAD * 1e-6)
            return (yield from upc.collective("sum", upc.MYTHREAD, combine))

        res = prog.run(main)
        assert res.returns == [6] * 4
        assert calls == [{0: 0, 1: 1, 2: 2, 3: 3}]

    def test_mismatched_tags_rejected(self):
        prog = make_program(threads=2)

        def main(upc):
            yield from upc.collective("ab"[upc.MYTHREAD], None, lambda p: None)

        with pytest.raises(ProcessFailure) as failure:
            prog.run(main)
        assert isinstance(failure.value.__cause__, UpcError)
        assert "collective 'b' while others are in 'a'" in str(failure.value)


class TestRng:
    def test_per_thread_rng_deterministic_and_distinct(self):
        prog1 = make_program(threads=2, seed=7)
        prog2 = make_program(threads=2, seed=7)

        def main(upc):
            yield from upc.compute(0.0)
            return upc.rng.random()

        r1, r2 = prog1.run(main).returns, prog2.run(main).returns
        assert r1 == r2
        assert r1[0] != r1[1]
