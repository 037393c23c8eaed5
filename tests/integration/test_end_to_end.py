"""Cross-module integration tests: whole programs through the full stack."""

import numpy as np
import pytest

from repro.apps.ft import run_ft
from repro.apps.uts import count_tree, run_uts, small_tree
from repro.machine.presets import lehman, pyramid
from repro.subthreads import OPENMP, ForkJoinRuntime, ThreadSafety
from repro.upc import UpcProgram, collectives, forall, groups


class TestDeterminism:
    """Identical configurations must give bit-identical simulated results."""

    def test_ft_run_is_deterministic(self):
        a = run_ft("T", threads=4, threads_per_node=2, iterations=1)
        b = run_ft("T", threads=4, threads_per_node=2, iterations=1)
        assert a["elapsed_s"] == b["elapsed_s"]
        assert a["phases"] == b["phases"]
        assert a["checksums"] == b["checksums"]

    def test_uts_run_is_deterministic(self):
        kw = dict(tree=small_tree("tiny"), threads=8, threads_per_node=4)
        a = run_uts("local+diffusion", **kw)
        b = run_uts("local+diffusion", **kw)
        assert a == b


class TestWholeStackPrograms:
    def test_groups_plus_subthreads_plus_collectives(self):
        """The thesis's combined pattern (§4.4): sub-threads on the chip,
        a node-level thread group above them, a global reduction on top."""
        prog = UpcProgram(lehman(nodes=2), threads=4, threads_per_node=2,
                          binding="sockets")

        def main(upc):
            node_g = yield from groups.node_group(upc)
            omp = ForkJoinRuntime(upc, 4, OPENMP, safety=ThreadSafety.FUNNELED)
            partial = []

            def body(st):
                yield from st.compute(1e-6)
                partial.append(st.index)

            yield from omp.parallel(body)
            yield from node_g.barrier()
            total = yield from collectives.allreduce(
                upc, upc.program.world, sum(partial), lambda a, b: a + b
            )
            return (node_g.members, total)

        res = prog.run(main)
        members, total = res.returns[0]
        assert members == (0, 1)
        # each of 4 threads contributed 0+1+2+3
        assert all(r[1] == 4 * 6 for r in res.returns)

    def test_shared_array_survives_mixed_traffic(self):
        """Concurrent forall writes + bulk reads keep data consistent."""
        prog = UpcProgram(lehman(nodes=2), threads=4, threads_per_node=2)
        N = 128

        def main(upc):
            A = yield from upc.all_alloc(N, blocksize=4)
            for i in forall.indices(upc, 0, N, affinity=A):
                A[i] = i * 1.5
            yield from upc.barrier()
            data = yield from A.get_block(upc, 0, N)
            return float(np.abs(data - np.arange(N) * 1.5).max())

        res = prog.run(main)
        assert all(err == 0.0 for err in res.returns)

    def test_uts_on_lehman_smt(self):
        """UTS over SMT hardware threads (2 per core) still conserves work."""
        tree = small_tree("tiny")
        r = run_uts("local", tree=tree, threads=32, threads_per_node=16,
                    preset=lehman(nodes=2), conduit="ib-qdr")
        assert r["tree_nodes"] == count_tree(tree)[0]

    def test_ft_iterations_accumulate_checksums(self):
        r = run_ft("T", threads=2, threads_per_node=2, iterations=3)
        assert len(r["checksums"]) == 3
        assert len({str(c) for c in r["checksums"]}) == 3  # all differ


class TestCrossPlatform:
    def test_same_program_both_platforms(self):
        """One FT config on both thesis machines: Pyramid (slower fabric,
        no SMT) must be slower than Lehman at equal thread counts."""
        le = run_ft("T", threads=4, threads_per_node=2,
                    preset=lehman(nodes=2), iterations=2)
        py = run_ft("T", threads=4, threads_per_node=2,
                    preset=pyramid(nodes=2), iterations=2)
        assert le["verified"] and py["verified"]
        assert py["elapsed_s"] > le["elapsed_s"]

    def test_conduit_override(self):
        """Running Pyramid's FT over its Ethernet fabric hurts comm time."""
        ib = run_ft("T", threads=4, threads_per_node=2,
                    preset=pyramid(nodes=2), conduit="ib-ddr", iterations=2)
        eth = run_ft("T", threads=4, threads_per_node=2,
                     preset=pyramid(nodes=2), conduit="gige", iterations=2)
        assert eth["comm_s"] > 2 * ib["comm_s"]


class TestResourceAccounting:
    def test_exchange_moves_expected_bytes(self):
        """Fabric statistics account for every byte the exchange sends."""
        prog = UpcProgram(lehman(nodes=2), threads=4, threads_per_node=2)
        nbytes = 1 << 14

        def main(upc):
            yield from collectives.exchange(upc, upc.program.world, nbytes)

        res = prog.run(main)
        # 4 threads x 3 peers; intra-node pairs bypass the fabric (PSHM)
        total_pairs = 4 * 3
        bypassed = res.stats.get_count("gasnet.bypass")
        net_msgs = res.stats.get_count("net.messages")
        assert bypassed + net_msgs == total_pairs
        assert res.stats.get_sum("net.bytes") == pytest.approx(
            net_msgs * nbytes
        )

    def test_no_simulated_time_without_cost(self):
        """Pure data-plane operations don't advance the clock."""
        prog = UpcProgram(lehman(nodes=1), threads=1, threads_per_node=1)

        def main(upc):
            A = yield from upc.all_alloc(1000)
            A[:] = 1.0  # raw data write: free
            return upc.wtime()

        res = prog.run(main)
        assert res.returns[0] == 0.0
