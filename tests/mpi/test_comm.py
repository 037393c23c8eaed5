"""Unit tests for the simulated MPI layer."""

import operator

import pytest

from repro.errors import MpiError
from repro.machine.presets import generic_smp
from repro.mpi import MpiProgram, collectives


def make_mpi(ranks=4, nodes=2, ranks_per_node=None, **kwargs):
    preset = generic_smp(nodes=nodes, sockets=2, cores_per_socket=2)
    return MpiProgram(preset, ranks=ranks, ranks_per_node=ranks_per_node, **kwargs)


class TestLaunch:
    def test_rank_identity(self):
        prog = make_mpi(ranks=4)

        def main(r):
            yield from r.compute(1e-6)
            return (r.rank, r.size)

        res = prog.run(main)
        assert res.returns == [(i, 4) for i in range(4)]

    def test_bad_rank_count(self):
        with pytest.raises(MpiError):
            make_mpi(ranks=0)

    def test_deadlock_detected(self):
        prog = make_mpi(ranks=2)

        def main(r):
            if r.rank == 0:
                yield from r.recv(1)  # never sent
            else:
                yield from r.compute(0.0)

        with pytest.raises(MpiError, match="deadlock"):
            prog.run(main)

    def test_deadlock_names_stalled_processes(self):
        prog = make_mpi(ranks=2)

        def main(r):
            if r.rank == 0:
                yield from r.recv(1)  # never sent
            else:
                yield from r.compute(0.0)

        with pytest.raises(MpiError) as info:
            prog.run(main)
        message = str(info.value)
        assert "ranks never finished: ['rank0'] (1 total)" in message
        assert "stalled processes: ['rank0'] (1 total)" in message


class TestPointToPoint:
    def test_eager_roundtrip(self):
        prog = make_mpi(ranks=2, nodes=2, ranks_per_node=1)

        def main(r):
            if r.rank == 0:
                yield from r.send(1, 1024)
                return None
            n = yield from r.recv(0)
            return n

        res = prog.run(main)
        assert res.returns[1] == 1024
        assert res.stats.get_count("mpi.sends") == 1

    def test_rendezvous_roundtrip(self):
        prog = make_mpi(ranks=2, nodes=2, ranks_per_node=1)
        big = prog.params.eager_threshold * 4

        def main(r):
            if r.rank == 0:
                t0 = r.wtime()
                yield from r.send(1, big)
                return r.wtime() - t0
            yield from r.compute(5e-3)  # receiver arrives late
            n = yield from r.recv(0)
            return n

        res = prog.run(main)
        # rendezvous sender blocks for the late receiver
        assert res.returns[0] >= 5e-3
        assert res.returns[1] == big

    def test_eager_sender_does_not_block_on_receiver(self):
        prog = make_mpi(ranks=2, nodes=2, ranks_per_node=1)

        def main(r):
            if r.rank == 0:
                t0 = r.wtime()
                yield from r.send(1, 1024)
                return r.wtime() - t0
            yield from r.compute(10e-3)
            yield from r.recv(0)
            return None

        res = prog.run(main)
        assert res.returns[0] < 1e-3

    def test_messages_match_fifo_per_tag(self):
        prog = make_mpi(ranks=2, nodes=1, ranks_per_node=2)

        def main(r):
            if r.rank == 0:
                yield from r.send(1, 100, tag=7)
                yield from r.send(1, 200, tag=7)
                return None
            a = yield from r.recv(0, tag=7)
            b = yield from r.recv(0, tag=7)
            return (a, b)

        res = prog.run(main)
        assert res.returns[1] == (100, 200)

    def test_tags_do_not_cross_match(self):
        prog = make_mpi(ranks=2, nodes=1, ranks_per_node=2)

        def main(r):
            if r.rank == 0:
                yield from r.send(1, 111, tag=1)
                yield from r.send(1, 222, tag=2)
                return None
            b = yield from r.recv(0, tag=2)
            a = yield from r.recv(0, tag=1)
            return (a, b)

        res = prog.run(main)
        assert res.returns[1] == (111, 222)

    def test_invalid_peer_rejected(self):
        prog = make_mpi(ranks=2)

        def main(r):
            yield from r.send(5, 8)

        with pytest.raises(Exception, match="invalid rank"):
            prog.run(main)

    def test_sendrecv_bidirectional_overlap(self):
        """sendrecv between two ranks costs ~one message, not two."""
        big = 1 << 20

        def elapsed(use_sendrecv):
            prog = make_mpi(ranks=2, nodes=2, ranks_per_node=1)

            def main(r):
                other = 1 - r.rank
                if use_sendrecv:
                    yield from r.sendrecv(other, big, other)
                else:
                    if r.rank == 0:
                        yield from r.send(other, big)
                        yield from r.recv(other)
                    else:
                        yield from r.recv(other)
                        yield from r.send(other, big)
                return r.wtime()

            return max(prog.run(main).returns)

        assert elapsed(True) < elapsed(False)


class TestBarrier:
    def test_barrier_synchronizes(self):
        prog = make_mpi(ranks=4)

        def main(r):
            yield from r.compute(r.rank * 1e-3)
            yield from r.barrier()
            return r.wtime()

        res = prog.run(main)
        assert len(set(res.returns)) == 1


class TestCollectives:
    @pytest.mark.parametrize("ranks", [2, 4, 8])
    def test_alltoall_completes(self, ranks):
        prog = make_mpi(ranks=ranks, nodes=2)

        def main(r):
            yield from collectives.alltoall(r, 4096)
            return r.wtime()

        res = prog.run(main)
        assert res.stats.get_count("mpi.sends") == ranks * (ranks - 1)

    @pytest.mark.parametrize("ranks", [1, 2, 3, 4, 6, 8])
    def test_allreduce_sum(self, ranks):
        prog = make_mpi(ranks=ranks, nodes=2)

        def main(r):
            out = yield from collectives.allreduce(r, r.rank + 1, operator.add)
            return out

        res = prog.run(main)
        expected = ranks * (ranks + 1) // 2
        assert res.returns == [expected] * ranks

    @pytest.mark.parametrize("ranks", [3, 4, 6])
    def test_allreduce_drops_consumed_flags(self, ranks):
        prog = make_mpi(ranks=ranks, nodes=2)

        def main(r):
            out = yield from collectives.allreduce(r, r.rank, operator.add)
            return out

        prog.run(main)
        # every fold, exchange and result flag has exactly one reader
        assert prog._flags == {}

    @pytest.mark.parametrize("ranks,root", [(4, 0), (4, 2), (5, 3), (8, 7)])
    def test_bcast_value(self, ranks, root):
        prog = make_mpi(ranks=ranks, nodes=2)

        def main(r):
            v = "gold" if r.rank == root else None
            out = yield from collectives.bcast(r, 64, root=root, value=v)
            return out

        assert prog.run(main).returns == ["gold"] * ranks

    @pytest.mark.parametrize("ranks", [3, 4, 6])
    def test_bcast_drops_consumed_flags(self, ranks):
        prog = make_mpi(ranks=ranks, nodes=2)

        def main(r):
            v = "gold" if r.rank == 2 else None
            out = yield from collectives.bcast(r, 64, root=2, value=v)
            return out

        assert prog.run(main).returns == ["gold"] * ranks
        # each child's value flag has exactly one reader
        assert prog._flags == {}

    def test_bcast_bad_root(self):
        prog = make_mpi(ranks=2)

        def main(r):
            yield from collectives.bcast(r, 8, root=9)

        with pytest.raises(Exception, match="out of range"):
            prog.run(main)

    def test_repeated_allreduce(self):
        prog = make_mpi(ranks=4)

        def main(r):
            a = yield from collectives.allreduce(r, 1, operator.add)
            b = yield from collectives.allreduce(r, r.rank, max)
            return (a, b)

        assert prog.run(main).returns == [(4, 3)] * 4
