"""Unit tests for affinity masks and binding policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AffinityError
from repro.machine import (
    AffinityMask,
    MachineSpec,
    MachineTopology,
    NodeSpec,
    bind_by_core,
    bind_compact,
    bind_round_robin_sockets,
    bind_unbound,
)
from repro.machine.affinity import assign_ranks_to_nodes, subthread_pus
from repro.machine.presets import generic_smp
from repro.mpi import MpiProgram
from repro.upc import UpcProgram


def make_topo(nodes=2, sockets=2, cores=4, smt=2):
    return MachineTopology(
        MachineSpec(
            name="t", nodes=nodes,
            node=NodeSpec(sockets=sockets, cores_per_socket=cores, smt_per_core=smt),
        )
    )


class TestAffinityMask:
    def test_sorted_and_deduped(self):
        m = AffinityMask((3, 1, 1, 2))
        assert m.pus == (1, 2, 3)
        assert m.primary == 1
        assert 2 in m
        assert len(m) == 3

    def test_empty_rejected(self):
        with pytest.raises(AffinityError):
            AffinityMask(())

    def test_intersect(self):
        a = AffinityMask((0, 1, 2))
        b = AffinityMask((2, 3))
        assert a.intersect(b).pus == (2,)

    def test_disjoint_intersect_rejected(self):
        with pytest.raises(AffinityError, match="disjoint"):
            AffinityMask((0,)).intersect(AffinityMask((1,)))


class TestRankAssignment:
    def test_even_split(self):
        topo = make_topo(nodes=4)
        assert assign_ranks_to_nodes(topo, 8) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_explicit_per_node(self):
        topo = make_topo(nodes=4)
        assert assign_ranks_to_nodes(topo, 4, per_node=1) == [0, 1, 2, 3]

    def test_overflow_rejected(self):
        topo = make_topo(nodes=2)
        with pytest.raises(AffinityError, match="need"):
            assign_ranks_to_nodes(topo, 6, per_node=2)

    def test_zero_ranks_rejected(self):
        topo = make_topo()
        with pytest.raises(AffinityError):
            assign_ranks_to_nodes(topo, 0)


class TestSocketBinding:
    def test_alternating_sockets(self):
        topo = make_topo(nodes=1, sockets=2, cores=4, smt=2)
        masks = bind_round_robin_sockets(topo, 4, per_node=4)
        socks = [topo.socket_of(m.primary).index for m in masks]
        assert socks == [0, 1, 0, 1]

    def test_mask_covers_whole_socket(self):
        topo = make_topo(nodes=1)
        masks = bind_round_robin_sockets(topo, 2, per_node=2)
        assert [m.pus for m in masks] == [
            topo.sockets[0].pu_indices, topo.sockets[1].pu_indices
        ]

    def test_second_node_offsets(self):
        topo = make_topo(nodes=2, sockets=2, cores=4, smt=1)
        masks = bind_round_robin_sockets(topo, 4, per_node=2)
        socks = [topo.socket_of(m.primary).index for m in masks]
        assert socks == [0, 1, 2, 3]

    def test_ranks_sharing_a_socket_split_its_cores(self):
        topo = make_topo(nodes=1, sockets=2, cores=4, smt=2)
        masks = bind_round_robin_sockets(topo, 4, per_node=4)
        cores = [sorted({topo.pu(p).core_index for p in m.pus}) for m in masks]
        # ranks 0 and 2 share socket 0: two contiguous, disjoint chunks
        assert cores[0] == [0, 1] and cores[2] == [2, 3]
        assert cores[1] == [4, 5] and cores[3] == [6, 7]
        assert all(len(m) == 4 for m in masks)  # both SMT siblings

    def test_more_ranks_than_cores_take_single_pus(self):
        topo = make_topo(nodes=1, sockets=2, cores=2, smt=2)
        masks = bind_round_robin_sockets(topo, 6, per_node=6)
        assert all(len(m) == 1 for m in masks)
        # socket 0 holds ranks 0, 2 and 4 on its PUs in turn
        assert [masks[r].primary for r in (0, 2, 4)] == [0, 1, 2]


class TestCompactBinding:
    def test_cores_before_smt(self):
        topo = make_topo(nodes=1, sockets=2, cores=2, smt=2)  # 4 cores, 8 PUs
        masks = bind_compact(topo, 8, per_node=8)
        pus = [m.primary for m in masks]
        # first 4 ranks on distinct cores (SMT index 0), next 4 on siblings
        smts = [topo.pu(p).smt_index for p in pus]
        assert smts == [0, 0, 0, 0, 1, 1, 1, 1]
        cores = [topo.pu(p).core_index for p in pus]
        assert cores[:4] == cores[4:]

    def test_sockets_cycle_before_cores(self):
        topo = make_topo(nodes=1, sockets=2, cores=4, smt=2)
        masks = bind_compact(topo, 4, per_node=4)
        assert [topo.socket_of(m.primary).index for m in masks] == [0, 1, 0, 1]
        assert [topo.pu(m.primary).core_index for m in masks] == [0, 4, 1, 5]

    def test_each_rank_single_pu(self):
        topo = make_topo()
        masks = bind_compact(topo, 4)
        assert all(len(m) == 1 for m in masks)

    def test_oversubscription_rejected(self):
        topo = make_topo(nodes=1, sockets=1, cores=2, smt=1)
        with pytest.raises(AffinityError, match="oversubscribed"):
            bind_compact(topo, 3, per_node=3)


class TestByCoreBinding:
    def test_fills_cores_in_order(self):
        topo = make_topo(nodes=1, sockets=2, cores=2, smt=2)
        masks = bind_by_core(topo, 6, per_node=6)
        assert [topo.pu(m.primary).core_index for m in masks] == [0, 1, 2, 3, 0, 1]
        assert [topo.pu(m.primary).smt_index for m in masks] == [0, 0, 0, 0, 1, 1]

    def test_oversubscription_rejected(self):
        topo = make_topo(nodes=1, sockets=1, cores=2, smt=1)
        with pytest.raises(AffinityError, match="oversubscribed"):
            bind_by_core(topo, 3, per_node=3)


class TestUnbound:
    def test_mask_is_whole_node(self):
        topo = make_topo(nodes=2)
        masks = bind_unbound(topo, 2, per_node=1)
        assert [m.pus for m in masks] == [
            topo.nodes[0].pu_indices, topo.nodes[1].pu_indices
        ]


class TestLaunchers:
    """Both launchers place through the binders, so they share their errors."""

    PRESET = generic_smp(nodes=1, sockets=1, cores_per_socket=2, smt_per_core=1)

    def test_upc_oversubscription_rejected(self):
        with pytest.raises(AffinityError, match="oversubscribed"):
            UpcProgram(self.PRESET, threads=3, binding="compact")

    @pytest.mark.parametrize("binding", ["sockets", "unbound"])
    def test_every_binding_shares_the_rule(self, binding):
        with pytest.raises(AffinityError, match="node 0 oversubscribed: 3 ranks for 2 PUs"):
            UpcProgram(self.PRESET, threads=3, binding=binding)

    def test_mpi_oversubscription_rejected(self):
        with pytest.raises(AffinityError, match="oversubscribed"):
            MpiProgram(self.PRESET, ranks=3)


class TestSubthreadPus:
    def test_fills_cores_first(self):
        topo = make_topo(nodes=1, sockets=1, cores=2, smt=2)
        mask = AffinityMask(topo.sockets[0].pu_indices)  # PUs 0..3
        pus = subthread_pus(topo, mask, 4)
        smts = [topo.pu(p).smt_index for p in pus]
        assert smts == [0, 0, 1, 1]

    def test_wraps_on_oversubscription(self):
        topo = make_topo(nodes=1, sockets=1, cores=2, smt=1)
        mask = AffinityMask(topo.sockets[0].pu_indices)  # 2 PUs
        pus = subthread_pus(topo, mask, 5)
        assert len(pus) == 5
        assert set(pus) <= set(mask.pus)

    def test_single(self):
        topo = make_topo()
        pus = subthread_pus(topo, AffinityMask((3,)), 1)
        assert pus == [3]

    def test_zero_rejected(self):
        topo = make_topo()
        with pytest.raises(AffinityError):
            subthread_pus(topo, AffinityMask((0,)), 0)

    @given(count=st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_all_within_mask(self, count):
        topo = make_topo(nodes=1, sockets=2, cores=2, smt=2)
        mask = AffinityMask(topo.sockets[1].pu_indices)
        pus = subthread_pus(topo, mask, count)
        assert len(pus) == count
        assert set(pus) <= set(mask.pus)


class TestPresets:
    def test_lehman_shape(self):
        from repro.machine import presets

        p = presets.lehman(nodes=8)
        topo = p.topology()
        assert topo.total_nodes == 8
        assert topo.spec.node.pus == 16
        assert p.default_conduit == "ib-qdr"
        assert p.memory.smt_throughput_factor > 1.0

    def test_pyramid_shape(self):
        from repro.machine import presets

        p = presets.pyramid(nodes=16)
        topo = p.topology()
        assert topo.spec.node.smt_per_core == 1
        assert topo.spec.node.pus == 8
        assert p.default_conduit == "ib-ddr"

    def test_platform_table_has_both_machines(self):
        from repro.machine.presets import platform_table

        rows = platform_table()
        names = [r["Machine Name"] for r in rows]
        assert names == ["Lehman", "Pyramid"]
        assert rows[0]["Threads/Node"] == 16
        assert rows[1]["Cores/Node"] == 8
