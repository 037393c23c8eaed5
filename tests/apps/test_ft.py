"""Tests for NAS FT: kernel math, data plane, distributed correctness,
and the paper's qualitative performance shapes."""

import numpy as np
import pytest

from repro.apps.ft import (
    FtConfig,
    checksum,
    evolve_factors,
    ft_class,
    initial_condition,
    nas_random,
    run_exchange_only,
    run_ft,
    serial_ft,
)
from repro.apps.ft.classes import FT_CLASSES
from repro.apps.ft.data import FtState
from repro.machine.memory import MemorySystem
from repro.machine.presets import lehman


class TestClasses:
    def test_class_lookup(self):
        b = ft_class("b")
        assert (b.nx, b.ny, b.nz, b.iterations) == (512, 256, 256, 20)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            ft_class("Z")

    def test_sizes(self):
        s = ft_class("S")
        assert s.total_points == 64 ** 3
        assert s.total_bytes == 64 ** 3 * 16

    def test_flop_count_positive(self):
        assert ft_class("S").fft3d_flops() > 0

    def test_all_classes_well_formed(self):
        for cls in FT_CLASSES.values():
            assert cls.total_points > 0 and cls.iterations > 0


class TestKernel:
    def test_nas_random_deterministic(self):
        a = nas_random(100)
        b = nas_random(100)
        assert np.array_equal(a, b)

    def test_nas_random_range_and_mean(self):
        v = nas_random(10_000)
        assert v.min() > 0.0 and v.max() < 1.0
        assert abs(v.mean() - 0.5) < 0.02

    def test_nas_random_first_value(self):
        """x1 = a * seed mod 2^46, scaled."""
        expected = ((1220703125 * 314159265) & ((1 << 46) - 1)) * 0.5 ** 46
        assert nas_random(1)[0] == pytest.approx(expected)

    def test_nas_random_negative_rejected(self):
        with pytest.raises(ValueError):
            nas_random(-1)

    def test_initial_condition_shape(self):
        cls = ft_class("T")
        u0 = initial_condition(cls)
        assert u0.shape == (cls.nz, cls.ny, cls.nx)
        assert u0.dtype == np.complex128

    def test_evolve_factors_properties(self):
        cls = ft_class("T")
        f = evolve_factors(cls, 3)
        assert f.shape == (cls.nz, cls.ny, cls.nx)
        assert f[0, 0, 0] == pytest.approx(1.0)  # zero frequency untouched
        assert (f <= 1.0).all() and (f > 0.0).all()

    def test_evolve_factor_t0_is_identity(self):
        cls = ft_class("T")
        assert np.allclose(evolve_factors(cls, 0), 1.0)

    def test_evolve_negative_t_rejected(self):
        with pytest.raises(ValueError):
            evolve_factors(ft_class("T"), -1)

    def test_checksum_samples_1024_points(self):
        cls = ft_class("T")
        x = np.ones((cls.nz, cls.ny, cls.nx), dtype=complex)
        assert checksum(x, cls) == pytest.approx(1024.0 + 0j)

    def test_serial_ft_deterministic(self):
        cls = ft_class("T")
        assert serial_ft(cls, 2) == serial_ft(cls, 2)

    def test_class_s_matches_official_nas_verification_values(self):
        """Our kernel reproduces the NPB reference verification checksums
        for class S bit-for-bit (vsum values from NPB's verify routine) —
        the LCG, evolution operator and checksum stride are spec-exact."""
        official = [
            (554.6087004964, 484.5363331978),
            (554.6385409190, 486.5304269511),
            (554.6148406171, 488.3910722337),
            (554.5423607415, 490.1273169046),
            (554.4255039624, 491.7475857993),
            (554.2683411903, 493.2597244941),
        ]
        got = serial_ft(ft_class("S"), 6)
        for (re, im), c in zip(official, got):
            assert c.real == pytest.approx(re, abs=1e-9)
            assert c.imag == pytest.approx(im, abs=1e-9)

    def test_serial_ft_checksums_decay(self):
        """Evolution is diffusive: checksum magnitude shrinks over time."""
        sums = serial_ft(ft_class("T"), 3)
        mags = [abs(c) for c in sums]
        assert mags[0] > mags[-1]


class TestDataPlane:
    def test_indivisible_threads_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            FtState(ft_class("T"), threads=3)

    def test_bad_backing_rejected(self):
        with pytest.raises(ValueError):
            FtState(ft_class("T"), 2, backing="holographic")

    def test_forward_matches_fftn(self):
        cls = ft_class("T")
        T = 4
        st = FtState(cls, T)
        st.init_field()
        for t in range(T):
            st.fft2d(t)
            st.pack_d1_to_blocks(t)
        for t in range(T):
            st.unpack_blocks_to_d2(t)
            st.fft1d(t)
        ref = np.fft.fftn(initial_condition(cls))
        for t in range(T):
            y0 = t * st.lny
            want = ref[:, y0:y0 + st.lny, :].transpose(1, 0, 2)
            assert np.allclose(st.d2[t], want)

    def test_roundtrip_recovers_field(self):
        cls = ft_class("T")
        T = 2
        st = FtState(cls, T)
        st.init_field()
        original = st.gather_d1().copy()
        for t in range(T):
            st.fft2d(t)
            st.pack_d1_to_blocks(t)
        for t in range(T):
            st.unpack_blocks_to_d2(t)
            st.fft1d(t)
        for t in range(T):
            st.fft1d(t, inverse=True)
            st.pack_d2_to_blocks(t)
        for t in range(T):
            st.unpack_blocks_to_d1(t)
            st.fft2d(t, inverse=True)
        assert np.allclose(st.gather_d1(), original)

    def test_local_checksums_sum_to_global(self):
        cls = ft_class("T")
        T = 4
        st = FtState(cls, T)
        st.init_field()
        total = sum(st.local_checksum(t) for t in range(T))
        assert total == pytest.approx(checksum(st.gather_d1(), cls))

    def test_virtual_state_has_sizes_only(self):
        st = FtState(ft_class("B"), 64, backing="virtual")
        assert st.bytes_per_pair == 512 * (256 // 64) * (256 // 64) * 16
        with pytest.raises(ValueError):
            st.gather_d1()


@pytest.fixture
def charged_work(monkeypatch):
    """Every ``MemorySystem.compute`` charge of the test, in seconds."""
    charged = []
    compute = MemorySystem.compute

    def spy(self, pu_index, work_seconds):
        charged.append(work_seconds)
        return compute(self, pu_index, work_seconds)

    monkeypatch.setattr(MemorySystem, "compute", spy)
    return charged


class TestDistributedCorrectness:
    """End-to-end: distributed checksums equal the serial reference, and
    no phase charges a zero-second compute (a transpose only streams)."""

    @pytest.mark.parametrize("variant", ["split", "overlap"])
    def test_upc_variants_verified(self, variant, charged_work):
        r = run_ft("T", model="upc", variant=variant, threads=4,
                   threads_per_node=2, iterations=2)
        assert r["verified"]
        assert charged_work and 0.0 not in charged_work

    def test_upc_async_split_verified(self):
        r = run_ft("T", model="upc", variant="split", threads=4,
                   threads_per_node=2, iterations=2, asynchronous=True)
        assert r["verified"]

    def test_mpi_verified(self, charged_work):
        r = run_ft("T", model="mpi", threads=4, threads_per_node=2, iterations=2)
        assert r["verified"]
        assert charged_work and 0.0 not in charged_work

    @pytest.mark.parametrize("runtime", ["openmp", "cilk", "pool"])
    def test_hybrid_runtimes_verified(self, runtime, charged_work):
        r = run_ft("T", model="upc", variant="split", threads=2,
                   threads_per_node=2, omp_threads=2,
                   subthread_runtime=runtime, iterations=1)
        assert r["verified"]
        assert charged_work and 0.0 not in charged_work

    def test_hybrid_overlap_verified(self, charged_work):
        """Overlap + sub-threads = THREAD_MULTIPLE comm from sub-threads."""
        r = run_ft("T", model="upc", variant="overlap", threads=2,
                   threads_per_node=1, omp_threads=2, iterations=1)
        assert r["verified"]
        assert charged_work and 0.0 not in charged_work

    def test_pthreads_backend_verified(self):
        r = run_ft("T", model="upc", variant="split", threads=4,
                   threads_per_node=4, threads_per_process=2, iterations=1)
        assert r["verified"]

    def test_single_thread(self):
        r = run_ft("T", model="upc", variant="split", threads=1,
                   threads_per_node=1, iterations=1)
        assert r["verified"]

    def test_class_s_verified(self):
        r = run_ft("S", model="upc", variant="split", threads=4,
                   threads_per_node=2, iterations=1)
        assert r["verified"]


class TestGuards:
    def test_large_class_real_backing_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            run_ft("B", threads=8, backing="real")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            FtConfig(variant="warp")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            run_ft("T", model="pvm", threads=2)

    def test_mpi_overlap_rejected(self):
        with pytest.raises(ValueError):
            run_ft("T", model="mpi", variant="overlap", threads=2)


class TestPerformanceShapes:
    """Paper findings at reduced scale (class B virtual, 4 nodes)."""

    NODES = 4

    def _comm(self, **kw):
        kw.setdefault("preset", lehman(nodes=self.NODES))
        kw.setdefault("backing", "virtual")
        kw.setdefault("iterations", 4)
        return run_ft("B", **kw)

    def test_alltoall_saturates_beyond_two_per_node(self):
        """Fig 4.4: comm stops improving past 2 threads/node, then decays."""
        c1 = self._comm(threads=4, threads_per_node=1)["comm_s"]
        c2 = self._comm(threads=8, threads_per_node=2)["comm_s"]
        c8 = self._comm(threads=32, threads_per_node=8)["comm_s"]
        assert c2 < c1
        assert c8 > c2

    def test_compute_phases_scale_linearly(self):
        """Fig 4.4: FFT phases halve when threads double."""
        p4 = self._comm(threads=4, threads_per_node=1)["phases"]
        p8 = self._comm(threads=8, threads_per_node=2)["phases"]
        for phase in ("fft2d", "fft1d"):
            assert p8[phase] == pytest.approx(p4[phase] / 2, rel=0.1)

    def test_overlap_beats_split_at_scale(self):
        split = self._comm(threads=8, threads_per_node=2, variant="split")
        over = self._comm(threads=8, threads_per_node=2, variant="overlap")
        assert over["elapsed_s"] < split["elapsed_s"]

    def test_hybrid_comm_no_worse_than_processes_at_full_node(self):
        """Fig 4.5: at 8 cores/node, hybrid (2 masters/node) beats pure."""
        procs = self._comm(threads=32, threads_per_node=8)["comm_s"]
        hybrid = self._comm(threads=8, threads_per_node=2, omp_threads=4)["comm_s"]
        assert hybrid < procs

    def test_mpi_beats_upc_processes_at_high_density(self):
        """Fig 4.5: tuned MPI collectives degrade less at 8/node."""
        upc = self._comm(threads=32, threads_per_node=8)["comm_s"]
        mpi = self._comm(threads=32, threads_per_node=8, model="mpi")["comm_s"]
        assert mpi < upc


class TestExchangeOnly:
    def test_pshm_beats_no_pshm(self):
        """Fig 3.4: shared-memory awareness pays at 8 threads/node."""
        base = run_exchange_only("B", threads=16, threads_per_node=4,
                                 pshm=False, repeats=1,
                                 preset=lehman(nodes=4))
        pshm = run_exchange_only("B", threads=16, threads_per_node=4,
                                 pshm=True, repeats=1,
                                 preset=lehman(nodes=4))
        assert pshm["exchange_s"] < base["exchange_s"]

    def test_cast_matches_pshm_runtime_path(self):
        """Fig 3.4: manual cast ~= runtime PSHM optimization (few %)."""
        pshm = run_exchange_only("B", threads=16, threads_per_node=4,
                                 pshm=True, repeats=1, preset=lehman(nodes=4))
        cast = run_exchange_only("B", threads=16, threads_per_node=4,
                                 pshm=True, privatized=True, repeats=1,
                                 preset=lehman(nodes=4))
        assert cast["exchange_s"] == pytest.approx(pshm["exchange_s"], rel=0.1)

    def test_async_no_slower_than_blocking(self):
        blocking = run_exchange_only("B", threads=16, threads_per_node=4,
                                     repeats=1, preset=lehman(nodes=4))
        nb = run_exchange_only("B", threads=16, threads_per_node=4,
                               asynchronous=True, repeats=1,
                               preset=lehman(nodes=4))
        assert nb["exchange_s"] <= blocking["exchange_s"] * 1.05
