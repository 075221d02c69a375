"""Tests for the data-assembly stage: gather, layout, locality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RuntimeConfigError
from repro.hw.spec import XEON_E5
from repro.kernelc.codegen import AddressRecord
from repro.runtime.assembly import (
    _gather_bytes_reference,
    assembly_read_order,
    estimate_assembly_hit_rate,
    gather_bytes,
    gather_values,
    interleave_layout,
    measure_assembly_hit_rate,
)


class TestGather:
    def test_gather_values_typed(self):
        buf = np.arange(8, dtype=np.float64).view(np.uint8)
        recs = [AddressRecord("a", i * 8, 8, "f8") for i in (3, 0, 5)]
        vals = gather_values(buf, recs)
        assert vals == [3.0, 0.0, 5.0]

    def test_gather_values_out_of_range(self):
        buf = np.zeros(16, dtype=np.uint8)
        with pytest.raises(RuntimeConfigError):
            gather_values(buf, [AddressRecord("a", 12, 8, "f8")])

    def test_gather_bytes_orders_output(self):
        buf = np.arange(64, dtype=np.uint8)
        out = gather_bytes(buf, np.array([8, 0, 16]), elem_bytes=4)
        np.testing.assert_array_equal(
            out, [8, 9, 10, 11, 0, 1, 2, 3, 16, 17, 18, 19]
        )

    def test_gather_bytes_empty(self):
        assert gather_bytes(np.zeros(4, np.uint8), np.array([]), 4).size == 0

    def test_gather_bytes_bounds_checked(self):
        buf = np.zeros(16, dtype=np.uint8)
        with pytest.raises(RuntimeConfigError):
            gather_bytes(buf, np.array([14]), elem_bytes=4)

    @given(
        n=st.integers(1, 50),
        seed=st.integers(0, 100),
        elem=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_gather_bytes_matches_naive(self, n, seed, elem):
        rng = np.random.default_rng(seed)
        buf = rng.integers(0, 256, 1024, dtype=np.uint8)
        offs = rng.integers(0, 1024 - elem, n) // elem * elem
        fast = gather_bytes(buf, offs, elem)
        naive = np.concatenate([buf[o : o + elem] for o in offs])
        np.testing.assert_array_equal(fast, naive)

    @given(
        n=st.integers(0, 200),
        seed=st.integers(0, 100),
        elem=st.sampled_from([1, 2, 3, 4, 7, 8, 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_gather_bytes_matches_reference(self, n, seed, elem):
        """The column-fill gather is bit-identical to the index-matrix
        reference (unaligned offsets and odd element sizes included)."""
        rng = np.random.default_rng(seed)
        buf = rng.integers(0, 256, 2048, dtype=np.uint8)
        offs = rng.integers(0, 2048 - elem, n) if n else np.array([], np.int64)
        fast = gather_bytes(buf, offs, elem)
        ref = _gather_bytes_reference(buf, offs, elem)
        assert fast.dtype == ref.dtype
        np.testing.assert_array_equal(fast, ref)

    def test_gather_bytes_reference_bounds_checked(self):
        buf = np.zeros(16, dtype=np.uint8)
        with pytest.raises(RuntimeConfigError):
            _gather_bytes_reference(buf, np.array([14]), elem_bytes=4)
        with pytest.raises(RuntimeConfigError):
            gather_bytes(buf, np.array([-1]), elem_bytes=4)

    def test_gather_bytes_single_byte_elements(self):
        buf = np.arange(32, dtype=np.uint8)
        offs = np.array([5, 0, 31, 5])
        out = gather_bytes(buf, offs, elem_bytes=1)
        np.testing.assert_array_equal(out, [5, 0, 31, 5])
        assert out.dtype == np.uint8


class TestInterleave:
    def test_round_robin_across_threads(self):
        streams = [np.array([0, 1, 2]), np.array([10, 11, 12])]
        np.testing.assert_array_equal(
            interleave_layout(streams), [0, 10, 1, 11, 2, 12]
        )

    def test_ragged_tails(self):
        streams = [np.array([0, 1, 2]), np.array([10])]
        np.testing.assert_array_equal(interleave_layout(streams), [0, 10, 1, 2])

    def test_empty(self):
        assert interleave_layout([]).size == 0

    def test_coalescing_effect(self):
        """After interleave, step-k elements of all threads are adjacent —
        exactly what makes simultaneous warp accesses coalesced."""
        threads = 32
        per = 4
        streams = [np.arange(per) * 8 + t * 1000 for t in range(threads)]
        out = interleave_layout(streams)
        # first `threads` entries are step 0 of every thread
        np.testing.assert_array_equal(out[:threads] % 1000, 0)

    @given(
        n_threads=st.integers(1, 8),
        lens=st.integers(0, 6),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=30, deadline=None)
    def test_interleave_is_permutation(self, n_threads, lens, seed):
        rng = np.random.default_rng(seed)
        streams = [
            rng.integers(0, 10**6, rng.integers(0, lens + 1))
            for _ in range(n_threads)
        ]
        out = interleave_layout(streams)
        everything = np.concatenate([s for s in streams]) if streams else np.array([])
        assert sorted(out.tolist()) == sorted(everything.tolist())


class TestReadOrderAndLocality:
    def test_locality_opt_reads_threads_contiguously(self):
        streams = [np.array([0, 8, 16]), np.array([1000, 1008])]
        order = assembly_read_order(streams, locality_opt=True)
        np.testing.assert_array_equal(order, [0, 8, 16, 1000, 1008])

    def test_no_opt_reads_in_gpu_order(self):
        streams = [np.array([0, 8]), np.array([1000, 1008])]
        order = assembly_read_order(streams, locality_opt=False)
        np.testing.assert_array_equal(order, [0, 1000, 8, 1008])

    def test_measured_hit_rate_improves_with_locality(self):
        """Section IV-B: per-thread-contiguous reads beat GPU-order reads
        when each thread's data is a contiguous slab far from the others."""
        threads = 64
        per_thread = 256
        slab = 1 << 20  # 1 MiB between thread slabs
        streams = [
            t * slab + np.arange(per_thread) * 8 for t in range(threads)
        ]
        good = measure_assembly_hit_rate(
            assembly_read_order(streams, True), 8, XEON_E5
        )
        # interleaved reads jump 1 MiB every access
        bad = measure_assembly_hit_rate(
            assembly_read_order(streams, False), 8, XEON_E5
        )
        assert good > 0.8
        assert bad < good - 0.3

    def test_estimate_hit_rate_locality(self):
        hi = estimate_assembly_hit_rate(
            elem_bytes=8,
            record_bytes=8,
            threads=64,
            cpu=XEON_E5,
            locality_opt=True,
            reads_per_record=1,
        )
        lo = estimate_assembly_hit_rate(
            elem_bytes=8,
            record_bytes=8,
            threads=64,
            cpu=XEON_E5,
            locality_opt=False,
            reads_per_record=1,
        )
        assert hi > lo

    def test_estimate_locality_line_sharing(self):
        """3 reads spanning a 48B record: ~0.75 of them share a fetched line."""
        rate = estimate_assembly_hit_rate(
            8, 48, 64, XEON_E5, True, reads_per_record=3
        )
        assert rate == pytest.approx(1 - (48 / 64) / 3)

    def test_estimate_many_streams_thrash(self):
        """Interleaved streams beyond cache capacity evict each other."""
        few = estimate_assembly_hit_rate(
            8, 8, 64, XEON_E5, False, reads_per_record=1
        )
        many = estimate_assembly_hit_rate(
            8, 8, 1 << 20, XEON_E5, False, reads_per_record=1
        )
        assert many < few

    def test_empty_read_order_hit_rate(self):
        assert measure_assembly_hit_rate(np.array([]), 8, XEON_E5) == 1.0
