"""Fast-path simulation engine: exactness, the DES fallback matrix, chunk
templating, cached/parallel sweeps, and the vectorized assembly layout.

The analytic pipeline (:mod:`repro.runtime.fastpath`) claims bit-identical
totals to the DES inside its coverage envelope and an automatic DES
fallback outside it; every cell of that claim is pinned here.
"""

import numpy as np
import pytest

from repro.apps import get_app
from repro.apps.base import data_fingerprint
from repro.bench.sweep import DEFAULT_GRID, RunCache, SweepPoint, SweepResult, sweep
from repro.engines import BigKernelEngine, EngineConfig, GpuDoubleBufferEngine
from repro.errors import RuntimeConfigError
from repro.hw.spec import DEFAULT_HARDWARE as HW
from repro.runtime.assembly import (
    _interleave_layout_loop,
    assembly_read_order,
    interleave_layout,
)
from repro.runtime.fastpath import (
    TemplatedChunks,
    fastpath_supported,
    run_fastpath,
    template_of,
)
from repro.runtime.pipeline import ChunkWork, PipelineConfig, run_pipeline
from repro.sim.trace import TraceRecorder
from repro.units import MiB
from repro.verify.differential import run_fastpath_differential

TEMPLATE = ChunkWork(
    0, t_addr_gen=1e-4, addr_bytes_d2h=4096, t_assembly=3e-4,
    xfer_bytes=1 * MiB, t_compute=2.5e-4, xfer_segments=3,
)
TAIL = ChunkWork(
    0, t_addr_gen=5e-5, addr_bytes_d2h=1024, t_assembly=1e-4,
    xfer_bytes=123456, t_compute=9e-5, xfer_segments=3,
)


def assert_same_totals(fast, slow):
    assert fast.total_time == slow.total_time
    assert fast.n_chunks == slow.n_chunks
    assert set(fast.stage_totals) == set(slow.stage_totals)
    for key, val in slow.stage_totals.items():
        assert fast.stage_totals[key] == val, key
    assert fast.bytes_h2d == slow.bytes_h2d
    assert fast.bytes_d2h == slow.bytes_d2h


class TestExactness:
    @pytest.mark.parametrize(
        "n_full,tail,passes,cfg",
        [
            (10, TAIL, 1, PipelineConfig(ring_depth=3, cpu_workers=2,
                                         sync_overhead=1e-5)),
            (10, TAIL, 3, PipelineConfig(ring_depth=3, cpu_workers=2,
                                         sync_overhead=1e-5)),
            (7, None, 2, PipelineConfig(ring_depth=2)),
            (3, None, 1, PipelineConfig(ring_depth=3)),  # depth == n edge
            (64, None, 1, PipelineConfig(ring_depth=5)),
        ],
    )
    def test_bit_identical_to_des(self, n_full, tail, passes, cfg):
        chunks = TemplatedChunks(TEMPLATE, n_full, tail, passes)
        fast = run_fastpath(HW, chunks, cfg)
        slow = run_pipeline(HW, chunks.materialize(), cfg, fastpath=False)
        assert fast.trace is None and slow.trace is not None
        assert_same_totals(fast, slow)

    def test_no_addr_traffic_regime(self):
        t = ChunkWork(0, 0.0, 0, 2e-4, 2 * MiB, 4e-4)
        chunks = TemplatedChunks(t, 20)
        fast = run_fastpath(HW, chunks, PipelineConfig(ring_depth=2))
        slow = run_pipeline(HW, chunks.materialize(),
                            PipelineConfig(ring_depth=2), fastpath=False)
        assert_same_totals(fast, slow)
        assert fast.bytes_d2h == 0

    def test_run_pipeline_auto_routes_templated_chunks(self):
        chunks = TemplatedChunks(TEMPLATE, 8)
        res = run_pipeline(HW, chunks, PipelineConfig(ring_depth=3))
        assert res.trace is None  # fast path engaged by default


class TestFallbackMatrix:
    """Every unsupported case must route to the DES with identical results."""

    def run_both(self, chunks, cfg=PipelineConfig(ring_depth=3), **kw):
        allowed = run_pipeline(HW, chunks, cfg, fastpath=True, **kw)
        forced = run_pipeline(HW, list(chunks), cfg, fastpath=False, **kw)
        return allowed, forced

    def test_heterogeneous_chunks_fall_back(self):
        chunks = [
            ChunkWork(i, 1e-4 * (i + 1), 0, 2e-4, (i + 1) * 65536, 3e-4)
            for i in range(6)
        ]
        ok, reason = fastpath_supported(chunks, PipelineConfig(ring_depth=3))
        assert not ok and reason == "heterogeneous-chunks"
        allowed, forced = self.run_both(chunks)
        assert allowed.trace is not None  # the DES ran
        assert_same_totals(allowed, forced)

    def test_mapped_writes_fall_back(self):
        t = ChunkWork(0, 1e-4, 512, 2e-4, 65536, 3e-4,
                      write_bytes=4096, t_scatter=1e-4)
        chunks = TemplatedChunks(t, 6)
        ok, reason = fastpath_supported(chunks, PipelineConfig(ring_depth=3))
        assert not ok and reason == "mapped-writes"
        allowed, forced = self.run_both(chunks)
        assert allowed.trace is not None
        assert_same_totals(allowed, forced)

    def test_ring_deeper_than_run_falls_back(self):
        chunks = TemplatedChunks(TEMPLATE, 3)
        cfg = PipelineConfig(ring_depth=5)
        ok, reason = fastpath_supported(chunks, cfg)
        assert not ok and reason == "ring-deeper-than-run"
        allowed, forced = self.run_both(chunks, cfg)
        assert allowed.trace is not None
        assert_same_totals(allowed, forced)

    def test_verify_run_uses_des(self):
        chunks = TemplatedChunks(TEMPLATE, 6)
        res = run_pipeline(HW, chunks, PipelineConfig(ring_depth=3),
                           verify=True)
        # verify needs the timeline, so the DES must have run (and passed)
        assert res.trace is not None

    def test_explicit_trace_uses_des(self):
        chunks = TemplatedChunks(TEMPLATE, 6)
        trace = TraceRecorder()
        res = run_pipeline(HW, chunks, PipelineConfig(ring_depth=3),
                           trace=trace)
        assert res.trace is trace and len(trace) > 0

    def test_plain_lists_default_to_des(self):
        chunks = [ChunkWork(i, 1e-4, 0, 2e-4, 65536, 3e-4) for i in range(6)]
        res = run_pipeline(HW, chunks, PipelineConfig(ring_depth=3))
        assert res.trace is not None

    def test_homogeneous_plain_list_opts_in_explicitly(self):
        chunks = [ChunkWork(i, 1e-4, 0, 2e-4, 65536, 3e-4) for i in range(6)]
        res = run_pipeline(HW, chunks, PipelineConfig(ring_depth=3),
                           fastpath=True)
        assert res.trace is None
        forced = run_pipeline(HW, chunks, PipelineConfig(ring_depth=3),
                              fastpath=False)
        assert_same_totals(res, forced)

    def test_ring_depth_min_edge(self):
        chunks = TemplatedChunks(TEMPLATE, 2)
        cfg = PipelineConfig(ring_depth=2)  # smallest legal depth, n == depth
        fast = run_fastpath(HW, chunks, cfg)
        slow = run_pipeline(HW, chunks.materialize(), cfg, fastpath=False)
        assert_same_totals(fast, slow)

    def test_unsupported_run_fastpath_raises(self):
        chunks = TemplatedChunks(TEMPLATE, 3)
        with pytest.raises(RuntimeConfigError):
            run_fastpath(HW, chunks, PipelineConfig(ring_depth=5))


class TestTemplatedChunks:
    def test_sequence_protocol(self):
        tc = TemplatedChunks(TEMPLATE, 4, TAIL, passes=2)
        assert len(tc) == 10
        mat = tc.materialize()
        assert [c.index for c in mat] == list(range(10))
        assert tc[3].xfer_bytes == TEMPLATE.xfer_bytes
        assert tc[4].xfer_bytes == TAIL.xfer_bytes  # per-pass tail
        assert tc[9].xfer_bytes == TAIL.xfer_bytes
        assert tc[-1] == mat[-1]
        assert tc[2:5] == mat[2:5]
        with pytest.raises(IndexError):
            tc[10]

    def test_template_of_plain_lists(self):
        hom = [ChunkWork(i, 1e-4, 0, 2e-4, 65536, 3e-4) for i in range(5)]
        tpl, n_full, tail, passes = template_of(hom)
        assert (n_full, tail, passes) == (5, None, 1)
        ragged = hom[:-1] + [ChunkWork(4, 1e-4, 0, 1e-4, 30000, 2e-4)]
        tpl, n_full, tail, passes = template_of(ragged)
        assert n_full == 4 and tail is not None
        hetero = [ChunkWork(i, 1e-4 * (i + 1), 0, 2e-4, 65536, 3e-4)
                  for i in range(5)]
        assert template_of(hetero) is None

    def test_constructor_validation(self):
        with pytest.raises(RuntimeConfigError):
            TemplatedChunks(TEMPLATE, 0, None)
        with pytest.raises(RuntimeConfigError):
            TemplatedChunks(TEMPLATE, 1, None, passes=0)


class TestEngineFastpath:
    def test_bigkernel_fast_matches_des(self):
        app = get_app("wordcount")
        data = app.generate(n_bytes=4 * MiB, seed=7)
        engine = BigKernelEngine()
        cfg = EngineConfig(chunk_bytes=512 * 1024)
        fast = engine.run(app, data, cfg)
        slow = engine.run(app, data, cfg.with_(fastpath=False))
        assert fast.trace is None and slow.trace is not None
        assert fast.sim_time == slow.sim_time
        assert fast.metrics.stage_totals == slow.metrics.stage_totals
        assert fast.metrics.bytes_h2d == slow.metrics.bytes_h2d
        assert app.outputs_equal(fast.output, slow.output)

    def test_writer_app_keeps_trace(self):
        app = get_app("kmeans")
        data = app.generate(n_bytes=2 * MiB, seed=7)
        res = BigKernelEngine().run(app, data, EngineConfig(chunk_bytes=256 * 1024))
        assert res.trace is not None  # mapped writes -> DES fallback

    def test_schedule_memoized_per_dataset(self):
        app = get_app("wordcount")
        data = app.generate(n_bytes=2 * MiB, seed=7)
        engine = BigKernelEngine()
        cfg = EngineConfig(chunk_bytes=512 * 1024)
        s1 = engine._schedule(app, data, cfg)
        s2 = engine._schedule(app, data, cfg)
        assert s1 is s2
        # fastpath/functional flags must not fragment the schedule cache
        s3 = engine._schedule(app, data, cfg.with_(fastpath=False, functional=False))
        assert s3 is s1
        other = app.generate(n_bytes=2 * MiB, seed=7)
        assert engine._schedule(app, other, cfg) is not s1

    def test_functional_flag_skips_output(self):
        app = get_app("wordcount")
        data = app.generate(n_bytes=2 * MiB, seed=7)
        cfg = EngineConfig(chunk_bytes=512 * 1024, functional=False)
        res = BigKernelEngine().run(app, data, cfg)
        assert res.output is None and res.sim_time > 0

    def test_data_fingerprint_identity(self):
        app = get_app("wordcount")
        d1 = app.generate(n_bytes=1 * MiB, seed=7)
        d2 = app.generate(n_bytes=1 * MiB, seed=7)
        assert data_fingerprint(d1) == data_fingerprint(d1)
        assert data_fingerprint(d1) != data_fingerprint(d2)

    def test_fastpath_differential_quick(self):
        report = run_fastpath_differential(
            data_bytes=1 * MiB,
            apps=[get_app("wordcount"), get_app("kmeans")],
            engines=[BigKernelEngine(), GpuDoubleBufferEngine()],
        )
        assert report.ok, report.summary()
        assert any(e.values["used_fastpath"] for e in report.cells)


class TestSweep:
    def grid(self):
        return {"chunk_bytes": [512 * 1024, 1 * MiB], "num_blocks": [8, 16]}

    def test_parallel_matches_serial(self):
        app = get_app("wordcount")
        data = app.generate(n_bytes=2 * MiB, seed=7)
        engine = BigKernelEngine()
        base = EngineConfig()
        serial = sweep(engine, app, data, base, self.grid(), jobs=1)
        parallel = sweep(engine, app, data, base, self.grid(), jobs=4)
        assert [p.params for p in serial.points] == [p.params for p in parallel.points]
        assert [p.sim_time for p in serial.points] == [
            p.sim_time for p in parallel.points
        ]
        assert serial.best.params == parallel.best.params

    def test_autotune_tie_break_deterministic(self):
        def pt(chunk, blocks, t):
            return SweepPoint({"chunk_bytes": chunk, "num_blocks": blocks}, t, None)

        points = [pt(4 * MiB, 16, 1.0), pt(1 * MiB, 16, 1.0), pt(1 * MiB, 8, 1.0)]
        best = SweepResult(points).best
        assert best.params == {"chunk_bytes": 1 * MiB, "num_blocks": 8}
        # order-independent
        best_rev = SweepResult(points[::-1]).best
        assert best_rev.params == best.params

    def test_run_cache_hits(self):
        from repro.bench.sweep import RUN_CACHE

        RUN_CACHE.clear()
        app = get_app("wordcount")
        data = app.generate(n_bytes=2 * MiB, seed=7)
        engine = BigKernelEngine()
        base = EngineConfig()
        sweep(engine, app, data, base, self.grid(), cache=True)
        assert RUN_CACHE.misses == 4 and RUN_CACHE.hits == 0
        res = sweep(engine, app, data, base, self.grid(), cache=True)
        assert RUN_CACHE.hits == 4
        assert len(res.points) == 4
        RUN_CACHE.clear()

    def test_cache_distinguishes_datasets(self):
        cache = RunCache(maxsize=8)
        app = get_app("wordcount")
        d1 = app.generate(n_bytes=1 * MiB, seed=7)
        d2 = app.generate(n_bytes=1 * MiB, seed=7)
        engine = BigKernelEngine()
        cfg = EngineConfig()
        assert RunCache.key(engine, app, d1, cfg) != RunCache.key(engine, app, d2, cfg)

    def test_default_grid_shape(self):
        assert len(DEFAULT_GRID["chunk_bytes"]) * len(DEFAULT_GRID["num_blocks"]) == 8


class TestAssemblyVectorization:
    def test_equivalence_with_loop_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(0, 10))
            streams = [
                rng.integers(0, 10_000, size=int(rng.integers(0, 12)))
                for _ in range(n)
            ]
            assert np.array_equal(
                interleave_layout(streams), _interleave_layout_loop(streams)
            )

    def test_equal_length_fast_case(self):
        streams = [np.arange(6) * 10 + t for t in range(4)]
        out = interleave_layout(streams)
        assert np.array_equal(out, _interleave_layout_loop(streams))
        # step-major: first 4 entries are step 0 of each thread
        assert list(out[:4]) == [0, 1, 2, 3]

    def test_ragged_tails_drop_out(self):
        streams = [np.array([0, 10, 20]), np.array([1]), np.array([2, 12])]
        assert list(interleave_layout(streams)) == [0, 1, 2, 10, 12, 20]

    def test_empty_inputs(self):
        assert interleave_layout([]).size == 0
        assert interleave_layout([np.array([], dtype=np.int64)]).size == 0

    def test_read_order_locality_path(self):
        streams = [np.array([5, 6]), np.array([1, 2, 3])]
        assert list(assembly_read_order(streams, locality_opt=True)) == [
            5, 6, 1, 2, 3,
        ]
        assert np.array_equal(
            assembly_read_order(streams, locality_opt=False),
            _interleave_layout_loop(streams),
        )
