"""Host CPU cost model.

Covers the three CPU roles in the evaluation: the serial and multithreaded
baselines, the staging memcpy of traditional (single/double-buffer) GPU
schemes, and BigKernel's data-assembly stage with its cache-locality
behaviour (Section IV-B: BigKernel does two reads + two writes per
prefetched element where traditional staging does one read + one write).
"""

from __future__ import annotations

from repro.errors import HardwareError
from repro.hw.elementwise import any_true
from repro.hw.spec import CpuSpec


class CpuDevice:
    """Analytic timing for host-side work, parameterized by a CpuSpec.

    The staging, assembly and scatter costs accept arrays for their work
    amounts and hit rates (one chunk per element).
    """

    def __init__(self, spec: CpuSpec):
        self.spec = spec

    # -- baselines -----------------------------------------------------------
    def serial_legs(self, n_ops: float, bytes_streamed: float) -> tuple:
        """``(compute, memory)`` roofline legs of one thread doing ``n_ops``
        over ``bytes_streamed``: arithmetic throughput vs the bandwidth one
        thread can pull by itself."""
        if n_ops < 0 or bytes_streamed < 0:
            raise HardwareError("work amounts must be non-negative")
        return (
            n_ops / self.spec.peak_ops_per_thread,
            bytes_streamed / self.spec.per_thread_bandwidth,
        )

    def serial_compute_time(self, n_ops: float, bytes_streamed: float) -> float:
        """One thread doing ``n_ops`` over ``bytes_streamed`` of data: the
        slower of the :meth:`serial_legs`."""
        return max(self.serial_legs(n_ops, bytes_streamed))

    def mt_legs(
        self, n_ops: float, bytes_streamed: float, threads: int | None = None
    ) -> tuple:
        """``(compute, memory)`` legs of the multithreaded roofline: core
        scaling with efficiency, socket-bandwidth cap.

        Hyperthreads add memory-level parallelism but no arithmetic units,
        so op throughput scales with physical cores only.
        """
        threads = self.spec.threads if threads is None else threads
        if threads < 1:
            raise HardwareError(f"threads must be >= 1, got {threads}")
        cores_used = min(threads, self.spec.cores)
        compute_t = n_ops / (
            self.spec.peak_ops_per_thread * cores_used * self.spec.mt_efficiency
        )
        agg_bw = min(
            self.spec.mem_bandwidth, threads * self.spec.per_thread_bandwidth
        )
        return compute_t, bytes_streamed / agg_bw

    def mt_compute_time(
        self, n_ops: float, bytes_streamed: float, threads: int | None = None
    ) -> float:
        """Multithreaded version: the slower of the :meth:`mt_legs`."""
        return max(self.mt_legs(n_ops, bytes_streamed, threads))

    # -- staging for traditional GPU schemes ----------------------------------
    def staging_copy_time(self, nbytes: float) -> float:
        """memcpy from pageable source into the pinned staging buffer.

        One read + one write stream on one thread; wide streaming copies
        sustain about two thirds of the single-thread streaming bandwidth.
        """
        if any_true(nbytes < 0):
            raise HardwareError("nbytes must be non-negative")
        return nbytes / (self.spec.per_thread_bandwidth * 2.0 / 3.0)

    # -- BigKernel data assembly ----------------------------------------------
    def random_read_bandwidth(self) -> float:
        """Achieved bytes/s when every read misses (one line per miss)."""
        return self.spec.cache_line / self.spec.miss_latency

    def assembly_time(
        self,
        n_elements: float,
        elem_bytes: float,
        hit_rate: float,
        address_driven: bool,
        address_bytes: int = 8,
        n_accesses: float | None = None,
        ops_per_access: float = 6.0,
    ) -> float:
        """Duration of gathering ``n_elements`` into the prefetch buffer.

        Three cost components: (i) read bandwidth, blending cache-speed and
        miss-speed by ``hit_rate``; (ii) sequential writes to the prefetch
        buffer; (iii) per-access loop overhead — ``n_accesses`` is the
        number of separate copy operations the gather loop performs (when a
        recognized pattern exposes contiguous runs, one access covers a
        whole run; without a pattern every element is its own access).
        When no pattern was recognized (``address_driven``), the CPU also
        streams through the address buffer, one address per element.
        """
        _check_hit_rate(hit_rate)
        if any_true(n_elements < 0) or any_true(elem_bytes < 0):
            raise HardwareError("work amounts must be non-negative")
        data_bytes = n_elements * elem_bytes
        hit_bw = self.spec.per_thread_bandwidth
        miss_bw = self.random_read_bandwidth()
        # time = hit portion at streaming speed + miss portion at miss speed
        read_t = (data_bytes * hit_rate) / hit_bw + (data_bytes * (1.0 - hit_rate)) / miss_bw
        write_t = data_bytes / self.spec.per_thread_bandwidth
        addr_t = (
            n_elements * address_bytes / self.spec.per_thread_bandwidth
            if address_driven
            else 0.0
        )
        accesses = n_elements if n_accesses is None else n_accesses
        if any_true(accesses < 0):
            raise HardwareError("n_accesses must be non-negative")
        loop_t = accesses * ops_per_access / self.spec.peak_ops_per_thread
        return read_t + write_t + addr_t + loop_t

    def scatter_time(self, n_elements: float, elem_bytes: float, hit_rate: float) -> float:
        """Write-back stage: scatter returned values into the mapped source."""
        _check_hit_rate(hit_rate)
        data_bytes = n_elements * elem_bytes
        hit_bw = self.spec.per_thread_bandwidth
        miss_bw = self.random_read_bandwidth()
        read_t = data_bytes / self.spec.per_thread_bandwidth  # read the write buffer
        write_t = (data_bytes * hit_rate) / hit_bw + (
            data_bytes * (1.0 - hit_rate)
        ) / miss_bw
        return read_t + write_t


def _check_hit_rate(hit_rate) -> None:
    # ``x != x`` catches NaN, which fails both range comparisons
    if any_true((hit_rate < 0.0) | (hit_rate > 1.0) | (hit_rate != hit_rate)):
        raise HardwareError(f"hit_rate must be in [0,1], got {hit_rate}")
