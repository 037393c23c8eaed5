"""Unit tests for UPC locks, collectives, forall and thread groups."""

import operator

import pytest

from repro.errors import UpcError
from repro.upc import collectives, forall, groups
from tests.upc.conftest import make_program


class TestLocks:
    def test_mutual_exclusion(self):
        prog = make_program(threads=4)
        log = []

        def main(upc):
            lock = upc.lock("L")
            yield from lock.acquire(upc)
            log.append(("enter", upc.MYTHREAD, upc.wtime()))
            yield from upc.compute(1e-3)
            log.append(("exit", upc.MYTHREAD, upc.wtime()))
            yield from lock.release(upc)

        prog.run(main)
        # critical sections must not overlap
        intervals = []
        entered = {}
        for kind, tid, t in sorted(log, key=lambda e: e[2]):
            if kind == "enter":
                entered[tid] = t
            else:
                intervals.append((entered[tid], t))
        intervals.sort()
        for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1

    def test_release_by_non_holder_rejected(self):
        prog = make_program(threads=2)

        def main(upc):
            lock = upc.lock("L")
            if upc.MYTHREAD == 0:
                yield from lock.acquire(upc)
            yield from upc.barrier()
            if upc.MYTHREAD == 1:
                yield from lock.release(upc)

        with pytest.raises(Exception, match="releasing lock"):
            prog.run(main)

    def test_same_key_same_lock(self):
        prog = make_program(threads=2)

        def main(upc):
            yield from upc.compute(0.0)
            return id(upc.lock("x"))

        res = prog.run(main)
        assert res.returns[0] == res.returns[1]

    def test_remote_lock_costs_more_than_local(self):
        def acquire_time(same_node):
            prog = make_program(threads=2, nodes=1 if same_node else 2,
                                threads_per_node=2 if same_node else 1)

            def main(upc):
                lock = upc.lock("L", affinity_thread=0)
                if upc.MYTHREAD == 1:
                    t0 = upc.wtime()
                    yield from lock.acquire(upc)
                    dt = upc.wtime() - t0
                    yield from lock.release(upc)
                    return dt
                yield from upc.compute(0.0)

            return prog.run(main).returns[1]

        assert acquire_time(same_node=False) > acquire_time(same_node=True)

    def test_bad_affinity_rejected(self):
        prog = make_program(threads=2)
        with pytest.raises(UpcError):
            prog.get_lock("bad", affinity_thread=9)


class TestBroadcast:
    @pytest.mark.parametrize("nthreads", [1, 2, 3, 4, 7, 8])
    def test_value_reaches_everyone(self, nthreads):
        prog = make_program(threads=nthreads, nodes=2)

        def main(upc):
            val = upc.MYTHREAD * 100 if upc.MYTHREAD == 0 else None
            out = yield from collectives.broadcast(
                upc, upc.program.world, 64, root_rank=0, value=val
            )
            return out

        assert prog.run(main).returns == [0] * nthreads

    def test_nonzero_root(self):
        prog = make_program(threads=4)

        def main(upc):
            val = "payload" if upc.MYTHREAD == 2 else None
            out = yield from collectives.broadcast(
                upc, upc.program.world, 8, root_rank=2, value=val
            )
            return out

        assert prog.run(main).returns == ["payload"] * 4

    def test_bad_root_rejected(self):
        prog = make_program(threads=2)

        def main(upc):
            yield from collectives.broadcast(upc, upc.program.world, 8, root_rank=5)

        with pytest.raises(Exception, match="root rank"):
            prog.run(main)

    def test_repeated_broadcasts(self):
        prog = make_program(threads=4)

        def main(upc):
            outs = []
            for k in range(3):
                v = k if upc.MYTHREAD == 0 else None
                out = yield from collectives.broadcast(
                    upc, upc.program.world, 8, value=v
                )
                outs.append(out)
            return outs

        assert prog.run(main).returns == [[0, 1, 2]] * 4

    @pytest.mark.parametrize("nthreads", [3, 4, 6])
    def test_broadcast_and_allreduce_drop_their_flags(self, nthreads):
        prog = make_program(threads=nthreads, nodes=2)

        def main(upc):
            v = "gold" if upc.MYTHREAD == 1 else None
            got = yield from collectives.broadcast(
                upc, upc.program.world, 8, root_rank=1, value=v
            )
            total = yield from collectives.allreduce(
                upc, upc.program.world, upc.MYTHREAD, operator.add
            )
            return got, total

        expected = ("gold", nthreads * (nthreads - 1) // 2)
        assert prog.run(main).returns == [expected] * nthreads
        # the value rides in the per-child flags, each read once
        assert prog._flags == {}


class TestReduce:
    @pytest.mark.parametrize("nthreads", [1, 2, 3, 5, 8])
    def test_sum_reduce(self, nthreads):
        prog = make_program(threads=nthreads, nodes=2)

        def main(upc):
            out = yield from collectives.reduce(
                upc, upc.program.world, upc.MYTHREAD + 1, operator.add
            )
            return out

        res = prog.run(main)
        expected = nthreads * (nthreads + 1) // 2
        assert res.returns[0] == expected
        assert all(r is None for r in res.returns[1:])

    def test_allreduce_everyone_gets_result(self):
        prog = make_program(threads=4)

        def main(upc):
            out = yield from collectives.allreduce(
                upc, upc.program.world, upc.MYTHREAD, max
            )
            return out

        assert prog.run(main).returns == [3, 3, 3, 3]


class TestExchange:
    @pytest.mark.parametrize("asynchronous", [False, True])
    def test_exchange_completes(self, asynchronous):
        prog = make_program(threads=4, nodes=2, threads_per_node=2)

        def main(upc):
            yield from collectives.exchange(
                upc, upc.program.world, 1 << 12, asynchronous=asynchronous
            )
            return upc.wtime()

        res = prog.run(main)
        assert len(set(res.returns)) == 1  # closing barrier aligned everyone
        puts = res.stats.get_count("gasnet.put")
        assert puts == 4 * 3

    def test_async_no_slower_than_blocking(self):
        def elapsed(asynchronous):
            prog = make_program(threads=4, nodes=2, threads_per_node=2)

            def main(upc):
                yield from collectives.exchange(
                    upc, upc.program.world, 1 << 16, asynchronous=asynchronous
                )

            return prog.run(main).elapsed

        assert elapsed(True) <= elapsed(False) * 1.01


class TestGatherScatter:
    def test_gather_counts_puts(self):
        prog = make_program(threads=4)

        def main(upc):
            yield from collectives.gather(upc, upc.program.world, 128)

        res = prog.run(main)
        assert res.stats.get_count("gasnet.put") == 3

    def test_scatter_counts_puts(self):
        prog = make_program(threads=4)

        def main(upc):
            yield from collectives.scatter(upc, upc.program.world, 128)

        res = prog.run(main)
        assert res.stats.get_count("gasnet.put") == 3


class TestForall:
    def test_round_robin_default(self):
        prog = make_program(threads=3)

        def main(upc):
            yield from upc.compute(0.0)
            return list(forall.indices(upc, 0, 10))

        res = prog.run(main)
        assert res.returns[0] == [0, 3, 6, 9]
        assert res.returns[1] == [1, 4, 7]

    def test_partition_is_exact(self):
        prog = make_program(threads=4)

        def main(upc):
            yield from upc.compute(0.0)
            return list(forall.indices(upc, 0, 21))

        res = prog.run(main)
        merged = sorted(i for r in res.returns for i in r)
        assert merged == list(range(21))

    def test_array_affinity(self):
        prog = make_program(threads=2)

        def main(upc):
            arr = yield from upc.all_alloc(8, blocksize=2)
            return list(forall.indices(upc, 0, 8, affinity=arr))

        res = prog.run(main)
        assert res.returns[0] == [0, 1, 4, 5]

    def test_fixed_thread_affinity(self):
        prog = make_program(threads=2)

        def main(upc):
            yield from upc.compute(0.0)
            return list(forall.indices(upc, 0, 4, affinity=1))

        res = prog.run(main)
        assert res.returns[0] == []
        assert res.returns[1] == [0, 1, 2, 3]

    def test_callable_affinity(self):
        prog = make_program(threads=2)

        def main(upc):
            yield from upc.compute(0.0)
            return list(forall.indices(upc, 0, 6, affinity=lambda i: (i // 3) % 2))

        res = prog.run(main)
        assert res.returns[0] == [0, 1, 2]
        assert res.returns[1] == [3, 4, 5]

    def test_bad_step_rejected(self):
        prog = make_program(threads=1)

        def main(upc):
            yield from upc.compute(0.0)
            return list(forall.indices(upc, 0, 4, step=0))

        with pytest.raises(Exception, match="step"):
            prog.run(main)


class TestThreadGroups:
    def test_shared_memory_group_is_node(self):
        prog = make_program(threads=4, nodes=2, threads_per_node=2)

        def main(upc):
            g = yield from groups.shared_memory_group(upc)
            return (g.members, g.is_shared_memory, g.rank)

        res = prog.run(main)
        assert res.returns[0] == ((0, 1), True, 0)
        assert res.returns[3] == ((2, 3), True, 1)

    def test_socket_group(self):
        prog = make_program(threads=4, nodes=1, threads_per_node=4)

        def main(upc):
            g = yield from groups.socket_group(upc)
            return g.members

        res = prog.run(main)
        # generic node: 2 sockets x 2 cores; compact binding round-robins
        # sockets (numactl-style), so even threads share socket 0
        assert res.returns[0] == (0, 2)
        assert res.returns[1] == (1, 3)

    def test_groups_can_overlap(self):
        prog = make_program(threads=4, nodes=1, threads_per_node=4)

        def main(upc):
            node_g = yield from groups.node_group(upc)
            sock_g = yield from groups.socket_group(upc)
            return (node_g.members, sock_g.members)

        res = prog.run(main)
        assert res.returns[0][0] == (0, 1, 2, 3)
        assert res.returns[0][1] == (0, 2)

    def test_custom_split_by_parity(self):
        prog = make_program(threads=4)

        def main(upc):
            g = yield from groups.split(upc, color=upc.MYTHREAD % 2, build_table=False)
            return g.members

        res = prog.run(main)
        assert res.returns[0] == (0, 2)
        assert res.returns[1] == (1, 3)

    def test_split_by_color(self):
        """One team per color, shared by its members, named after it."""
        prog = make_program(threads=6, nodes=2, threads_per_node=3)

        def main(upc):
            g = yield from groups.split(upc, color=2 - upc.MYTHREAD // 2,
                                        build_table=False)
            return g.team

        teams = prog.run(main).returns
        assert [teams[t].members for t in (0, 2, 4)] == [(0, 1), (2, 3), (4, 5)]
        assert [teams[t].name for t in (0, 2, 4)] == ["world/c2", "world/c1",
                                                      "world/c0"]
        assert teams[0] is teams[1] and teams[0] is not teams[2]

    def test_split_orders_by_key_then_thread(self):
        prog = make_program(threads=4, nodes=1, threads_per_node=4)
        keys = [5, 1, 3, 1]

        def main(upc):
            g = yield from groups.split(upc, color=0, key=keys[upc.MYTHREAD],
                                        build_table=False)
            return (g.members, g.rank)

        res = prog.run(main)
        assert res.returns[0] == ((1, 3, 2, 0), 3)
        assert res.returns[3] == ((1, 3, 2, 0), 1)

    def test_child_barrier_spans_only_its_color(self):
        """A split team's barrier releases its members without the rest."""
        prog = make_program(threads=4, nodes=2, threads_per_node=2)

        def main(upc):
            g = yield from groups.split(upc, color=upc.MYTHREAD // 2,
                                        build_table=False)
            if upc.MYTHREAD >= 2:
                return None
            yield from upc.compute(upc.MYTHREAD * 1e-3)
            yield from g.barrier()
            return upc.wtime()

        res = prog.run(main)
        assert res.returns[0] == res.returns[1] >= 1e-3
        assert res.returns[2:] == [None, None]

    def test_group_barrier(self):
        prog = make_program(threads=4, nodes=2, threads_per_node=2)

        def main(upc):
            g = yield from groups.shared_memory_group(upc, build_table=False)
            yield from upc.compute(upc.MYTHREAD * 1e-3)
            yield from g.barrier()
            return upc.wtime()

        res = prog.run(main)
        assert res.returns[0] == res.returns[1]
        assert res.returns[2] == res.returns[3]

    def test_pointer_table_built(self):
        prog = make_program(threads=4, nodes=2, threads_per_node=2)

        def main(upc):
            g = yield from groups.shared_memory_group(upc)
            return g.pointer_table.reachable_peers()

        res = prog.run(main)
        assert res.returns[0] == [1]

    def test_peers_excludes_self(self):
        prog = make_program(threads=4, nodes=2, threads_per_node=2)

        def main(upc):
            g = yield from groups.shared_memory_group(upc, build_table=False)
            return g.peers()

        res = prog.run(main)
        assert res.returns[0] == (1,)
