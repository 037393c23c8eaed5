"""Unit and property tests for shared arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UpcError
from repro.upc.shared import SharedArray
from tests.upc.conftest import make_program


def make_array(prog, nelems=24, blocksize=None, backing="real", dtype=None):
    return SharedArray(prog, nelems=nelems, dtype=dtype, blocksize=blocksize,
                       backing=backing)


class TestLayout:
    def test_default_is_cyclic(self):
        prog = make_program(threads=4)
        arr = make_array(prog, nelems=8)
        assert [arr.owner(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_block_distribution(self):
        prog = make_program(threads=4)
        arr = make_array(prog, nelems=8, blocksize="block")
        assert arr.blocksize == 2
        assert [arr.owner(i) for i in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_block_cyclic(self):
        prog = make_program(threads=2)
        arr = make_array(prog, nelems=8, blocksize=2)
        assert [arr.owner(i) for i in range(8)] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_local_size_sums_to_total(self):
        prog = make_program(threads=4)
        arr = make_array(prog, nelems=23, blocksize=3)
        assert sum(arr.local_size(t) for t in range(4)) == 23

    def test_local_indices_match_owner(self):
        prog = make_program(threads=4)
        arr = make_array(prog, nelems=23, blocksize=3)
        for t in range(4):
            idx = arr.local_indices(t)
            assert all(arr.owner(int(i)) == t for i in idx)
            assert len(idx) == arr.local_size(t)

    def test_out_of_range_rejected(self):
        prog = make_program(threads=2)
        arr = make_array(prog, nelems=4)
        with pytest.raises(UpcError, match="out of range"):
            arr.owner(4)

    def test_bad_params_rejected(self):
        prog = make_program(threads=2)
        with pytest.raises(UpcError):
            make_array(prog, nelems=0)
        with pytest.raises(UpcError):
            make_array(prog, blocksize=0)
        with pytest.raises(UpcError):
            make_array(prog, backing="papier")

    @given(
        nelems=st.integers(1, 200),
        blocksize=st.integers(1, 16),
        threads=st.sampled_from([1, 2, 3, 4]),
    )
    @settings(max_examples=50, deadline=None)
    def test_layout_partition_property(self, nelems, blocksize, threads):
        """local_size/local_indices partition the array exactly."""
        prog = make_program(threads=threads, nodes=2)
        arr = SharedArray(prog, nelems=nelems, blocksize=blocksize, backing="virtual")
        all_idx = np.concatenate([arr.local_indices(t) for t in range(threads)])
        assert sorted(all_idx.tolist()) == list(range(nelems))
        assert sum(arr.local_size(t) for t in range(threads)) == nelems


class TestAffinityRuns:
    def test_runs_cover_range(self):
        prog = make_program(threads=4)
        arr = make_array(prog, nelems=20, blocksize=3)
        runs = list(arr.affinity_runs(2, 15))
        covered = []
        for owner, start, length in runs:
            assert all(arr.owner(i) == owner for i in range(start, start + length))
            covered.extend(range(start, start + length))
        assert covered == list(range(2, 17))

    def test_empty_run(self):
        prog = make_program(threads=2)
        arr = make_array(prog)
        assert list(arr.affinity_runs(0, 0)) == []

    def test_negative_count_rejected(self):
        prog = make_program(threads=2)
        arr = make_array(prog)
        with pytest.raises(UpcError):
            list(arr.affinity_runs(0, -1))

    @given(
        nelems=st.integers(1, 100),
        blocksize=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_runs_are_maximal_and_exact(self, nelems, blocksize, data):
        prog = make_program(threads=3, nodes=2)
        arr = SharedArray(prog, nelems=nelems, blocksize=blocksize, backing="virtual")
        start = data.draw(st.integers(0, nelems - 1))
        count = data.draw(st.integers(0, nelems - start))
        runs = list(arr.affinity_runs(start, count))
        assert sum(r[2] for r in runs) == count
        pos = start
        for owner, s, ln in runs:
            assert s == pos
            pos += ln


class TestData:
    def test_real_backing_read_write(self):
        prog = make_program(threads=2)
        arr = make_array(prog, nelems=10)
        arr[3] = 7.5
        assert arr[3] == 7.5
        assert arr.view().shape == (10,)

    def test_virtual_backing_has_no_data(self):
        prog = make_program(threads=2)
        arr = make_array(prog, backing="virtual")
        with pytest.raises(UpcError, match="virtual"):
            arr.view()
        with pytest.raises(UpcError):
            arr[0]

    def test_dtype_respected(self):
        prog = make_program(threads=2)
        arr = make_array(prog, dtype=np.complex128)
        assert arr.itemsize == 16
        assert arr.nbytes == 24 * 16


class TestCostedOps:
    def test_get_block_returns_data_and_takes_time(self):
        prog = make_program(threads=4)

        def main(upc):
            arr = yield from upc.all_alloc(16, blocksize="block")
            if upc.MYTHREAD == 0:
                arr[:] = np.arange(16.0)
            yield from upc.barrier()
            data = yield from arr.get_block(upc, 2, 10)
            return data.tolist()

        res = prog.run(main)
        assert res.returns[0] == list(np.arange(2.0, 12.0))
        assert res.elapsed > 0

    def test_put_block_writes_data(self):
        prog = make_program(threads=2)

        def main(upc):
            arr = yield from upc.all_alloc(8, blocksize="block")
            if upc.MYTHREAD == 1:
                yield from arr.put_block(upc, 0, np.full(8, 3.0))
            yield from upc.barrier()
            return arr[0], arr[7]

        res = prog.run(main)
        assert res.returns[0] == (3.0, 3.0)

    def test_elem_ops_roundtrip(self):
        prog = make_program(threads=2)

        def main(upc):
            arr = yield from upc.all_alloc(4)
            if upc.MYTHREAD == 0:
                yield from arr.write_elem(upc, 1, 9.0)  # owned by thread 1
            yield from upc.barrier()
            v = yield from arr.read_elem(upc, 1)
            return v

        res = prog.run(main)
        assert res.returns == [9.0, 9.0]

    def test_put_block_rejects_scalar_data(self):
        prog = make_program(threads=2)

        def main(upc):
            arr = yield from upc.all_alloc(8)
            yield from arr.put_block(upc, 0, 8)  # value or count? neither.

        with pytest.raises(Exception, match="scalar"):
            prog.run(main)

    def test_put_block_count_must_match_data(self):
        prog = make_program(threads=2)

        def main(upc):
            arr = yield from upc.all_alloc(8)
            yield from arr.put_block(upc, 0, [1.0, 2.0], count=3)

        with pytest.raises(Exception, match="disagrees"):
            prog.run(main)

    def test_virtual_put_block_needs_explicit_count(self):
        prog = make_program(threads=2)

        def main(upc):
            arr = yield from upc.all_alloc(8, backing="virtual")
            yield from arr.put_block(upc, 0, 8)

        with pytest.raises(Exception, match="explicit count="):
            prog.run(main)

    def test_virtual_put_block_with_count_charges_time(self):
        prog = make_program(threads=2)

        def main(upc):
            arr = yield from upc.all_alloc(64, backing="virtual",
                                           blocksize="block")
            if upc.MYTHREAD == 0:
                t0 = upc.wtime()
                yield from arr.put_block(upc, 0, count=64)
                return upc.wtime() - t0
            yield from upc.compute(0.0)

        assert prog.run(main).returns[0] > 0

    def test_remote_block_slower_than_local(self):
        def timed(local):
            prog = make_program(threads=2, nodes=2, threads_per_node=1)

            def main(upc):
                arr = yield from upc.all_alloc(1 << 16, blocksize="block")
                yield from upc.barrier()
                if upc.MYTHREAD != 0:
                    return None
                start = upc.wtime()
                src = 0 if local else (1 << 15)
                yield from arr.get_block(upc, src, 1 << 15)
                return upc.wtime() - start

            return prog.run(main).returns[0]

        assert timed(local=False) > timed(local=True)
