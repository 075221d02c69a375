"""The BigKernel execution scheme — the paper's contribution.

Drives the full mechanism: compiler slice (with the fall-back-to-all-data
path for unsliceable kernels), online pattern recognition sampled from the
app's *actual* per-thread address streams, per-block buffer allocation
under real pinned/GPU memory accounting, and the 4/6-stage pipeline on the
simulated timeline.

Feature flags reproduce the Section VI-B ablation:

* ``BigKernelFeatures.overlap_only()`` — pipelined execution only: all data
  transferred in its original layout.
* ``BigKernelFeatures.with_reduction()`` — + transfer only the bytes the
  computation needs (original relative layout, so no coalescing gain).
* ``BigKernelFeatures.full()`` — + assembly re-layout for coalesced GPU
  accesses (the complete system).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from repro.apps.base import AccessProfile, AppData, Application, data_fingerprint
from repro.engines.base import Engine, EngineConfig, RunMetrics, RunResult
from repro.engines.gpu_common import (
    addr_gen_chunk_cost,
    chunk_plan,
    kernel_chunk_cost,
)
from repro.errors import PinnedMemoryExceeded, SlicingError
from repro.faults.inject import FaultInjector
from repro.faults.policies import degrade_buffer_plan
from repro.hw.cpu import CpuDevice
from repro.hw.elementwise import maximum, minimum, trunc_int
from repro.hw.gpu import GpuDevice
from repro.hw.gpu_memory import GpuMemoryAllocator
from repro.hw.pinned import PinnedAllocator
from repro.hw.spec import CpuSpec, HardwareSpec
from repro.kernelc.slicing import make_addrgen_kernel
from repro.runtime.assembly import estimate_assembly_hit_rate
from repro.runtime.buffers import BlockBuffers, BufferConfig
from repro.runtime.fastpath import TemplatedChunks
from repro.runtime.pattern import (
    ADDRESS_BYTES,
    OnlineAddressTracker,
    PatternRecognizer,
    PATTERN_DESCRIPTOR_BYTES,
)
from repro.runtime.pipeline import (
    STAGE_ADDR_GEN,
    STAGE_ASSEMBLY,
    STAGE_COMPUTE,
    STAGE_TRANSFER,
    STAGE_WRITEBACK_SCATTER,
    STAGE_WRITEBACK_XFER,
    ChunkWork,
    PipelineConfig,
    run_pipeline,
)
from repro.runtime.scheduler import ThreadLayout, plan_blocks

#: per-thread temp buffer for online pattern detection (addresses); the
#: paper keeps this in shared memory when it fits, GPU memory otherwise
PATTERN_TEMP_BUFFER = 128
#: longest per-thread stride cycle the recognizer searches for
PATTERN_MAX_PERIOD = 64
#: threads sampled per run for honest pattern detection
PATTERN_SAMPLE_THREADS = 4
#: addresses fed per sampled thread
PATTERN_SAMPLE_ADDRS = 2048


@dataclass(frozen=True)
class BigKernelFeatures:
    """Ablation switches (Fig. 5's three variants)."""

    reduce_volume: bool = True
    coalesce: bool = True

    @staticmethod
    def overlap_only() -> "BigKernelFeatures":
        return BigKernelFeatures(reduce_volume=False, coalesce=False)

    @staticmethod
    def with_reduction() -> "BigKernelFeatures":
        return BigKernelFeatures(reduce_volume=True, coalesce=False)

    @staticmethod
    def full() -> "BigKernelFeatures":
        return BigKernelFeatures(reduce_volume=True, coalesce=True)

    @property
    def label(self) -> str:
        if not self.reduce_volume and not self.coalesce:
            return "overlap-only"
        if self.reduce_volume and not self.coalesce:
            return "volume-reduction"
        if self.reduce_volume and self.coalesce:
            return "full"
        return "coalesce-only"


@dataclass
class BigKernelSchedule:
    """Resolved plan of one BigKernel run (before simulation).

    ``chunks`` is a :class:`~repro.runtime.fastpath.TemplatedChunks`: all
    full-size chunks of a run share one cost vector, so the plan stores
    the template (plus the ragged tail) instead of ``passes x n`` copies.
    It behaves as a sequence wherever a chunk list is expected.
    """

    chunks: "TemplatedChunks"
    pipe_cfg: PipelineConfig
    upc: int
    pattern_fraction: float
    pattern_on: bool
    sliceable: bool
    reduce_volume: bool
    active_blocks: int
    workers: int
    #: what the degradation policies gave up under an injected fault
    #: (``ring_shrunk_to``, ``blocks_shrunk_to``); empty on clean runs
    degradations: dict = dataclass_field(default_factory=dict)


#: CPU slots of the pipeline: the assembly and scatter stage times are
#: aggregates, already divided by the per-block worker pool
PIPELINE_CPU_WORKERS = 2


def sync_overhead(hw: HardwareSpec) -> float:
    """Per-chunk GPU-side synchronization: two flag waits + two barriers."""
    return GpuDevice(hw.gpu).flag_wait_overhead(2) + 2 * hw.gpu.global_latency


def assembly_workers(active_blocks, cpu: CpuSpec):
    """One host assembly thread per active block, up to the hardware
    threads (``active_blocks`` may be an array)."""
    return minimum(active_blocks, cpu.threads)


def payload_per_unit(profile: AccessProfile, reduce_volume: bool) -> float:
    """Bytes per unit crossing PCIe h2d: the sliced reads, or whole records."""
    return profile.read_bytes_per_record if reduce_volume else profile.record_bytes


def chunk_work(
    profile: AccessProfile,
    hw: HardwareSpec,
    u,
    threads,
    workers,
    *,
    reduce_volume: bool,
    pattern_on: bool,
    coalesced: bool,
    mem_bandwidth: float,
) -> ChunkWork:
    """Stage costs of one chunk covering ``u`` units (index 0).

    ``workers`` is the host assembly pool the CPU stages divide over and
    ``mem_bandwidth`` the host memory bandwidth bounding assembly (the
    socket's, or a NUMA shard's share). ``u``, ``threads`` and ``workers``
    may be arrays (one chunk per element).
    """
    gpu = GpuDevice(hw.gpu)
    cpu = CpuDevice(hw.cpu)
    raw = u * profile.record_bytes
    emitted = u * profile.emitted_addresses_per_record
    read_bytes = u * profile.read_bytes_per_record
    payload = u * payload_per_unit(profile, reduce_volume)
    pool = workers * hw.cpu.mt_efficiency

    # Stage 1: address generation (+ address shipping when no pattern
    # compresses the stream).
    t_ag = gpu.stage_time(addr_gen_chunk_cost(profile, u), threads)
    if not reduce_volume or pattern_on:
        # A verified pattern (or the degenerate whole-range slice) sends
        # one tiny descriptor per thread for the entire run — amortized to
        # nothing per chunk.
        addr_d2h = 0
    else:
        addr_d2h = trunc_int(emitted * ADDRESS_BYTES)

    # Stage 2: data assembly.
    if not reduce_volume:
        # No gathering: plain staging copy, parallel across the per-block
        # CPU threads.
        t_asm = cpu.staging_copy_time(raw) / pool
        t_asm = maximum(t_asm, 2.0 * raw / mem_bandwidth)
    else:
        hit = estimate_assembly_hit_rate(
            elem_bytes=profile.elem_bytes,
            record_bytes=int(max(profile.record_bytes, 1)),
            threads=threads,
            cpu=hw.cpu,
            locality_opt=pattern_on,
            reads_per_record=profile.reads_per_record,
        )
        # A recognized pattern exposes contiguous runs the gather loop
        # copies whole; without one, every emitted address is a separate
        # address-driven copy.
        if pattern_on:
            accesses = read_bytes / profile.gather_run_bytes
        else:
            accesses = emitted
        per_thread_t = cpu.assembly_time(
            n_elements=emitted,
            elem_bytes=read_bytes / maximum(emitted, 1e-9),
            hit_rate=hit,
            address_driven=not pattern_on,
            n_accesses=accesses,
        )
        t_asm = per_thread_t / pool
        t_asm = maximum(t_asm, 2.0 * read_bytes / mem_bandwidth)

    # Stage 4: computation on the (re)laid-out buffer.
    cost = kernel_chunk_cost(profile, u, coalesced=coalesced)
    t_comp = gpu.stage_time(cost, threads)

    # Stages 5-6: mapped writes.
    wb = u * profile.write_bytes_per_record
    t_scatter = 0.0
    if profile.write_bytes_per_record > 0:
        w_elem = profile.write_bytes_per_record / max(
            profile.writes_per_record, 1e-9
        )
        t_scatter = (
            cpu.scatter_time(u * profile.writes_per_record, w_elem, hit_rate=0.9)
            / pool
        )

    return ChunkWork(
        index=0,
        t_addr_gen=t_ag,
        addr_bytes_d2h=addr_d2h,
        t_assembly=t_asm,
        xfer_bytes=trunc_int(payload),
        t_compute=t_comp,
        write_bytes=trunc_int(wb),
        t_scatter=t_scatter,
        # each block's buffer set is its own DMA; assembly threads issue
        # one consolidated copy per worker
        xfer_segments=workers,
    )


class BigKernelEngine(Engine):
    """4/6-stage pipelined execution with prefetching (the paper's scheme)."""

    name = "bigkernel"
    display_name = "GPU BigKernel"

    #: compiler-slice outcomes keyed by app name — the slice depends only
    #: on the app's kernel IR, never on data or config (class-level: shared
    #: by every engine instance, including the Fig. 5 ablation variants)
    _slice_cache: dict = {}
    #: pattern-sampling results keyed by (dataset fingerprint, total
    #: threads, units per chunk) — everything the sampler reads
    _pattern_cache: "OrderedDict" = OrderedDict()
    _PATTERN_CACHE_MAX = 256
    #: buffer plans keyed by the config fields the planner reads
    _buffer_cache: "OrderedDict" = OrderedDict()
    _BUFFER_CACHE_MAX = 64
    _SCHEDULE_CACHE_MAX = 64

    def __init__(self, features: BigKernelFeatures = BigKernelFeatures.full()):
        self.features = features
        # full schedules keyed per instance (features are instance state)
        self._schedule_cache: OrderedDict = OrderedDict()
        #: template-reuse accounting: how often a run replayed a memoized
        #: schedule instead of re-planning (the serve layer reports this
        #: to prove cross-request TemplatedChunks amortization)
        self.schedule_hits = 0
        self.schedule_misses = 0

    @property
    def cache_key(self) -> str:
        return f"{self.name}:{self.features.label}"

    # ----------------------------------------------------------- helpers
    def _sliceable(self, app: Application, profile) -> bool:
        """Try the real compiler slice; fall back to the profile's claim."""
        kernel = app.kernel()
        if kernel is None:
            return profile.sliceable
        cached = self._slice_cache.get(app.name)
        if cached is None:
            try:
                make_addrgen_kernel(kernel)
                cached = True
            except SlicingError:
                cached = False
            self._slice_cache[app.name] = cached
        return cached

    def _sample_pattern_fraction(
        self,
        app: Application,
        data: AppData,
        config: EngineConfig,
        units_per_chunk: int,
    ) -> float:
        """Feed real per-thread address streams to the online tracker.

        Thread *t* of the first chunk owns a contiguous unit subrange
        (the ``myParticleStartIndex`` convention); its address stream is the
        app's read offsets over that subrange. Results are memoized on
        everything the sampler reads — the dataset instance, the thread
        count and the chunk geometry — so sweeps re-sample only when the
        geometry actually changes.
        """
        threads = config.total_compute_threads
        cache_key = (data_fingerprint(data), threads, units_per_chunk)
        if cache_key in self._pattern_cache:
            self._pattern_cache.move_to_end(cache_key)
            return self._pattern_cache[cache_key]
        n_units = app.n_units(data)
        first_chunk_units = min(units_per_chunk, n_units)
        per_thread = max(1, first_chunk_units // threads)
        # per-period evidence (two full cycles) is enforced inside
        # recognize(); the floor only guards against trivial samples
        recognizer = PatternRecognizer(max_period=PATTERN_MAX_PERIOD, min_samples=8)
        hits = 0
        sampled = 0
        for t in range(min(PATTERN_SAMPLE_THREADS, threads)):
            lo = t * per_thread
            hi = min(lo + per_thread, first_chunk_units)
            if hi <= lo:
                break
            offsets = app.chunk_read_offsets(data, lo, hi)
            # a cycle needs two full periods of evidence; short per-chunk
            # spans sample a longer stretch of the thread's stream
            while offsets.size < 2 * PATTERN_MAX_PERIOD + 2 and hi < n_units:
                hi = min(hi + per_thread + 1, n_units)
                offsets = app.chunk_read_offsets(data, lo, hi)
            if offsets.size == 0:
                continue
            tracker = OnlineAddressTracker(
                recognizer, temp_buffer=PATTERN_TEMP_BUFFER
            )
            tracker.feed_many(offsets[:PATTERN_SAMPLE_ADDRS].tolist())
            tracker.finish()
            hits += int(tracker.has_pattern)
            sampled += 1
        fraction = hits / sampled if sampled else 0.0
        self._pattern_cache[cache_key] = fraction
        if len(self._pattern_cache) > self._PATTERN_CACHE_MAX:
            self._pattern_cache.popitem(last=False)
        return fraction

    def _allocate_buffers(
        self, config: EngineConfig, writes: bool
    ) -> tuple[int, BufferConfig, dict]:
        """Plan active blocks and allocate their buffer sets for real.

        The plan depends only on hardware, buffer geometry and any pinned
        fault plan, so it is memoized on exactly those fields; a cache hit
        skips re-running the pinned/GPU allocator exercise.

        Under injected pinned-memory pressure (``faults.pinned.deny``) the
        degradation policy shrinks the ring toward depth 2 and then the
        active-block count until the set fits; the returned dict records
        what was given up. When nothing fits,
        :class:`~repro.errors.PinnedMemoryExceeded` propagates and
        :meth:`run` falls back to plain double-buffering."""
        cache_key = (
            config.hardware,
            config.chunk_bytes,
            config.num_blocks,
            config.compute_threads,
            config.ring_depth,
            writes,
            config.faults,
        )
        if cache_key in self._buffer_cache:
            self._buffer_cache.move_to_end(cache_key)
            return self._buffer_cache[cache_key]
        gpu_dev = GpuDevice(config.hardware.gpu)
        layout = ThreadLayout(compute_threads=config.compute_threads)
        per_block = max(4096, config.chunk_bytes // config.num_blocks)
        buf_cfg = BufferConfig(
            data_buf_bytes=per_block,
            addr_buf_entries=max(64, per_block // 4),
            instances=config.ring_depth,
            write_buf_bytes=per_block // 4 if writes else 0,
        )
        plan = plan_blocks(gpu_dev, layout, buf_cfg, config.num_blocks)
        active_blocks = plan.active_blocks
        pinned_limit = config.hardware.cpu.dram_bytes // 2
        deny = (
            config.faults.pinned_deny_after() if config.faults is not None else None
        )
        degradations: dict = {}
        if deny is not None:
            buf_cfg, active_blocks, degradations = degrade_buffer_plan(
                buf_cfg, active_blocks, min(pinned_limit, deny)
            )
        pinned = PinnedAllocator(pinned_limit, deny_after_bytes=deny)
        gpu_mem = GpuMemoryAllocator(config.hardware.gpu.global_mem_bytes)
        blocks = [BlockBuffers(b, buf_cfg) for b in range(active_blocks)]
        for bb in blocks:
            bb.allocate(pinned, gpu_mem)
        for bb in blocks:
            bb.release(pinned, gpu_mem)
        self._buffer_cache[cache_key] = (active_blocks, buf_cfg, degradations)
        if len(self._buffer_cache) > self._BUFFER_CACHE_MAX:
            self._buffer_cache.popitem(last=False)
        return active_blocks, buf_cfg, degradations

    # ----------------------------------------------------------- schedule
    def _schedule(
        self,
        app: Application,
        data: AppData,
        config: EngineConfig,
        units: Optional[int] = None,
        workers_override: Optional[int] = None,
    ) -> "BigKernelSchedule":
        """Build the chunk schedule and pipeline config for ``units`` units
        (defaults to the whole dataset). Exposed so layered engines (e.g.
        the multi-GPU extension) can plan per-shard schedules with their
        own CPU-worker budgets.

        Schedules are memoized per engine instance, keyed by the app, the
        dataset fingerprint and every config field the plan reads
        (``fastpath``/``functional`` deliberately excluded — they do not
        change the plan), so repeated runs — the fastpath-vs-DES oracle,
        cached sweeps, the run matrix — plan once.
        """
        cache_key = (
            app.name,
            data_fingerprint(data),
            units,
            workers_override,
            config.hardware,
            config.chunk_bytes,
            config.num_blocks,
            config.compute_threads,
            config.ring_depth,
            config.pattern_recognition,
            config.faults,
        )
        if cache_key in self._schedule_cache:
            self._schedule_cache.move_to_end(cache_key)
            self.schedule_hits += 1
            return self._schedule_cache[cache_key]
        self.schedule_misses += 1
        hw = config.hardware
        profile = app.access_profile(data)

        sliceable = self._sliceable(app, profile)
        reduce_volume = self.features.reduce_volume and sliceable
        units = app.n_units(data) if units is None else units
        upc, _ = chunk_plan(
            units, config.chunk_bytes, payload_per_unit(profile, reduce_volume)
        )

        # Pattern recognition on real address streams (Table II's switch).
        pattern_fraction = 0.0
        if config.pattern_recognition and profile.pattern_friendly is not None:
            pattern_fraction = self._sample_pattern_fraction(app, data, config, upc)
        pattern_on = config.pattern_recognition and pattern_fraction >= 0.5

        active_blocks, buf_cfg, degradations = self._allocate_buffers(
            config, app.writes_mapped
        )
        workers = (
            workers_override
            if workers_override is not None
            else assembly_workers(active_blocks, hw.cpu)
        )
        threads = config.total_compute_threads
        coalesced = self.features.coalesce and reduce_volume

        def costs(u: int) -> ChunkWork:
            return chunk_work(
                profile,
                hw,
                u,
                threads,
                workers,
                reduce_volume=reduce_volume,
                pattern_on=pattern_on,
                coalesced=coalesced,
                mem_bandwidth=hw.cpu.mem_bandwidth,
            )

        chunks = TemplatedChunks.from_costs(costs, units, upc, profile.passes)

        pipe_cfg = PipelineConfig(
            # the ring may have been shrunk by the degradation policy;
            # clean runs keep buf_cfg.instances == config.ring_depth
            ring_depth=buf_cfg.instances,
            cpu_workers=PIPELINE_CPU_WORKERS,
            sync_overhead=sync_overhead(hw),
        )
        sched = BigKernelSchedule(
            chunks=chunks,
            pipe_cfg=pipe_cfg,
            upc=upc,
            pattern_fraction=pattern_fraction,
            pattern_on=pattern_on,
            sliceable=sliceable,
            reduce_volume=reduce_volume,
            active_blocks=active_blocks,
            workers=workers,
            degradations=degradations,
        )
        self._schedule_cache[cache_key] = sched
        if len(self._schedule_cache) > self._SCHEDULE_CACHE_MAX:
            self._schedule_cache.popitem(last=False)
        return sched

    # --------------------------------------------------------------- run
    def run(
        self,
        app: Application,
        data: AppData,
        config: Optional[EngineConfig] = None,
    ) -> RunResult:
        config = config or EngineConfig()
        hw = config.hardware
        gpu = GpuDevice(hw.gpu)
        try:
            sched = self._schedule(app, data, config)
        except PinnedMemoryExceeded as exc:
            if config.faults is not None and config.faults.active():
                # last degradation rung: even the minimum plan (two-deep
                # ring, one block) does not fit under the injected pinned
                # pressure — fall back to plain double-buffering, which
                # needs no pinned prefetch/address buffers (the paper's
                # fall-back-to-all-data spirit, applied to memory pressure)
                from repro.engines.gpu_double import GpuDoubleBufferEngine

                fallback = GpuDoubleBufferEngine().run(app, data, config)
                fallback.metrics.notes["degraded_from"] = self.name
                fallback.metrics.notes["degraded_reason"] = (
                    f"pinned-memory-pressure: {exc}"
                )
                return fallback
            raise
        chunks, upc = sched.chunks, sched.upc
        pattern_fraction, pattern_on = sched.pattern_fraction, sched.pattern_on
        sliceable, reduce_volume = sched.sliceable, sched.reduce_volume
        active_blocks, workers = sched.active_blocks, sched.workers

        injector = None
        if config.faults is not None and config.faults.active():
            injector = FaultInjector(config.faults)
        result = run_pipeline(
            hw, chunks, sched.pipe_cfg, fastpath=config.fastpath, faults=injector
        )
        # BigKernel launches ONE kernel for the whole computation.
        sim_time = result.total_time + gpu.spec.kernel_launch_overhead

        output = None
        if config.functional:
            bounds = app.chunk_bounds(data, upc)
            output = self._functional_output(app, data, bounds)
        comm = (
            result.stage_totals.get(STAGE_TRANSFER, 0.0)
            + result.stage_totals.get(STAGE_WRITEBACK_XFER, 0.0)
        )
        metrics = RunMetrics(
            n_chunks=len(chunks),
            bytes_h2d=result.bytes_h2d,
            bytes_d2h=result.bytes_d2h,
            comp_time=result.stage_totals.get(STAGE_COMPUTE, 0.0),
            comm_time=comm,
            stage_totals=result.stage_totals,
            pattern_fraction=pattern_fraction,
            kernel_launches=1,
            notes={
                "features": self.features.label,
                "sliceable": sliceable,
                "reduce_volume": reduce_volume,
                "pattern_on": pattern_on,
                "active_blocks": active_blocks,
                "units_per_chunk": upc,
                "workers": workers,
            },
        )
        if sched.degradations:
            metrics.notes["degradations"] = dict(sched.degradations)
        if injector is not None:
            metrics.notes["fault_stats"] = injector.stats()
        return RunResult(
            self.name, app.name, output, sim_time, metrics, trace=result.trace
        )
