"""Perf smoke: wall-clock of the analytic fast path vs the DES.

Times (``time.perf_counter``) a ~500-chunk BigKernel run, a 16-point
autotune sweep, the raw DES event throughput, and a DES-bound
thread-vs-process sweep, and records the measurements to
``BENCH_pipeline.json`` at the repo root.

Every threshold is *warn-only*: wall-clock on shared CI boxes is
too noisy for a hard assert, but the recorded JSON makes regressions
visible across commits. Expected on any machine: the analytic pipeline
beats the DES by well over 5x at 500 chunks (it is O(n) arithmetic vs
an event queue), the cached sweep beats the cold serial sweep by the
cache hit rate, and the DES core clears 1.5x the pre-optimization event
rate. The process-vs-thread expectation additionally needs real cores:
on a single-CPU box a process pool cannot beat the GIL, so that check
downgrades to recording only.
"""

import json
import os
import time
import warnings
from pathlib import Path

from repro.apps import get_app
from repro.bench.sweep import RUN_CACHE, sweep
from repro.engines import BigKernelEngine, EngineConfig
from repro.units import MiB

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
WARN_SPEEDUP = 5.0

#: DES event throughput of the pre-optimization core (measured on the
#: reference box: plain-method dispatch, no __slots__, un-inlined loop)
DES_BASELINE_EVENTS_PER_SEC = 0.647e6
DES_WARN_SPEEDUP = 1.5
PROCESS_WARN_SPEEDUP = 2.0

SWEEP_GRID = {
    "chunk_bytes": [256 * 1024, 512 * 1024, 1 * MiB, 2 * MiB],
    "num_blocks": [8, 16, 32, 64],
}


def _record(entry: dict) -> None:
    entries = []
    if BENCH_FILE.exists():
        entries = json.loads(BENCH_FILE.read_text())
    entries = [e for e in entries if e["name"] != entry["name"]]
    entries.append(entry)
    BENCH_FILE.write_text(json.dumps(entries, indent=2) + "\n")


def _warn_if_slow(name: str, speedup: float) -> None:
    if speedup < WARN_SPEEDUP:
        warnings.warn(
            f"{name}: speedup {speedup:.1f}x below the {WARN_SPEEDUP:.0f}x "
            f"expectation (warn-only; see BENCH_pipeline.json)",
            stacklevel=2,
        )


def test_fastpath_500_chunk_run():
    app = get_app("wordcount")
    # 32 MiB of records at 64 KiB chunk payloads ~= 500 pipeline chunks
    data = app.generate(n_bytes=32 * MiB, seed=7)
    engine = BigKernelEngine()
    cfg = EngineConfig(chunk_bytes=64 * 1024, functional=False)
    engine._schedule(app, data, cfg)  # build once so neither timing pays it

    t0 = time.perf_counter()
    slow = engine.run(app, data, cfg.with_(fastpath=False))
    t_des = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = engine.run(app, data, cfg)
    t_fast = time.perf_counter() - t0

    assert fast.sim_time == slow.sim_time  # exactness is non-negotiable
    assert fast.metrics.n_chunks >= 500
    speedup = t_des / t_fast if t_fast > 0 else float("inf")
    _record(
        {
            "name": "bigkernel_500_chunk_run",
            "n_chunks": fast.metrics.n_chunks,
            "des_seconds": t_des,
            "fastpath_seconds": t_fast,
            "speedup": speedup,
            "sim_time": fast.sim_time,
        }
    )
    _warn_if_slow("bigkernel_500_chunk_run", speedup)


def test_sweep_16_points_cached_parallel():
    app = get_app("wordcount")
    data = app.generate(n_bytes=8 * MiB, seed=7)
    engine = BigKernelEngine()
    base = EngineConfig(chunk_bytes=512 * 1024, functional=False)
    RUN_CACHE.clear()

    t0 = time.perf_counter()
    cold = sweep(engine, app, data, base, SWEEP_GRID, jobs=1, cache=False)
    t_serial = time.perf_counter() - t0

    # warm the cache, then measure the repeat sweep (the figure-harness
    # pattern: every artifact re-tunes the same engine/app pairs)
    sweep(engine, app, data, base, SWEEP_GRID, jobs=4, cache=True)
    t0 = time.perf_counter()
    warm = sweep(engine, app, data, base, SWEEP_GRID, jobs=4, cache=True)
    t_cached = time.perf_counter() - t0

    assert len(cold.points) == 16 and len(warm.points) == 16
    assert warm.best.params == cold.best.params
    speedup = t_serial / t_cached if t_cached > 0 else float("inf")
    _record(
        {
            "name": "sweep_16_point_cached",
            "points": len(warm.points),
            "serial_cold_seconds": t_serial,
            "parallel_cached_seconds": t_cached,
            "speedup": speedup,
            "cache_hits": RUN_CACHE.hits,
        }
    )
    _warn_if_slow("sweep_16_point_cached", speedup)
    RUN_CACHE.clear()


def test_des_event_throughput():
    """Raw event rate of the DES core (the ping microbenchmark).

    100 processes x 2000 timeout steps = 200200 events of pure dispatch:
    no pipeline model, so this isolates exactly what the ``sim.core``
    hot-loop optimizations (``__slots__``, inlined run loop, flattened
    Timeout, cached resume callback) bought. Best-of-3 to shave scheduler
    noise.
    """
    from repro.sim.core import Environment

    n_procs, n_steps = 100, 2000

    def ticker(env):
        for _ in range(n_steps):
            yield env.timeout(1)

    best_rate = 0.0
    events = 0
    for _ in range(3):
        env = Environment()
        for _ in range(n_procs):
            env.process(ticker(env))
        t0 = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - t0
        events = env._eid
        best_rate = max(best_rate, events / elapsed)

    speedup = best_rate / DES_BASELINE_EVENTS_PER_SEC
    _record(
        {
            "name": "des_event_throughput",
            "events": events,
            "events_per_sec": best_rate,
            "baseline_events_per_sec": DES_BASELINE_EVENTS_PER_SEC,
            "speedup_vs_baseline": speedup,
        }
    )
    if speedup < DES_WARN_SPEEDUP:
        warnings.warn(
            f"des_event_throughput: {best_rate / 1e6:.2f}M events/s is "
            f"{speedup:.2f}x the pre-optimization baseline, below the "
            f"{DES_WARN_SPEEDUP:.1f}x expectation (warn-only)",
            stacklevel=2,
        )


def test_des_bound_sweep_process_vs_thread():
    """Thread vs process backend on a purely DES-bound grid.

    Every point runs the pure-Python simulator (``fastpath=False``), so
    the GIL serializes the thread backend while process workers run truly
    concurrently — the process pool should win by ~min(jobs, cores) once
    points dwarf the fork + regeneration overhead. On a single-CPU box
    there is no concurrency to buy and the fork tax makes processes
    *slower*; the expectation is skipped there (recorded either way).
    """
    from repro.bench.jobs import choose_backend

    app = get_app("kmeans")
    data = app.generate(n_bytes=32 * MiB, seed=7)
    engine = BigKernelEngine()
    base = EngineConfig(fastpath=False, functional=False)
    grid = {"chunk_bytes": [8 * 1024, 16 * 1024], "num_blocks": [8, 16, 32, 64]}

    t0 = time.perf_counter()
    threaded = sweep(engine, app, data, base, grid, jobs=4, backend="thread")
    t_thread = time.perf_counter() - t0

    t0 = time.perf_counter()
    proc = sweep(engine, app, data, base, grid, jobs=4, backend="process")
    t_proc = time.perf_counter() - t0

    # equivalence is a hard assert even though the timing is not
    assert [(p.params, p.sim_time) for p in threaded.points] == [
        (p.params, p.sim_time) for p in proc.points
    ]
    cores = os.cpu_count() or 1
    # what backend="auto" would have chosen for this grid on this box —
    # the dispatch heuristic's verdict belongs next to the timings it is
    # supposed to predict (a 1-core runner records "thread" here, which
    # explains a process_speedup < 1 without flagging a regression)
    auto_backend = choose_backend(
        [(engine, app, data, base.with_(**p.params)) for p in proc.points],
        jobs=4,
    )
    speedup = t_thread / t_proc if t_proc > 0 else float("inf")
    _record(
        {
            "name": "des_bound_sweep_process_vs_thread",
            "points": len(proc.points),
            "jobs": 4,
            "cpu_count": cores,
            "auto_backend": auto_backend,
            "thread_seconds": t_thread,
            "process_seconds": t_proc,
            "process_speedup": speedup,
            # consumers must gate any speedup expectation on this flag: a
            # process pool cannot beat the GIL without a second core, so
            # on a 1-core runner the ratio is pure fork overhead noise
            "process_timing_meaningful": cores >= 2,
        }
    )
    if cores < 2:
        # a process pool cannot beat the GIL without a second core: the
        # timing expectation is meaningless there, so don't even warn
        return
    if cores >= 4 and speedup < PROCESS_WARN_SPEEDUP:
        warnings.warn(
            f"des_bound_sweep_process_vs_thread: process backend only "
            f"{speedup:.2f}x over threads on {cores} cores, below the "
            f"{PROCESS_WARN_SPEEDUP:.0f}x expectation (warn-only)",
            stacklevel=2,
        )


def test_uvm_comparison():
    """BigKernel vs the unified-memory engine family on the paper's six
    apps: the competitor comparison (``repro bench``).

    Unlike the wall-clock checks above, the *orderings* here are hard
    asserts — they are simulated-time facts, deterministic on any box:
    both prefetched UVM variants beat plain demand paging on every app,
    and BigKernel beats the best UVM variant on most apps (prefetching
    narrows the gap but cannot buy the pipeline's pinned bandwidth or
    transfer-volume reduction).
    """
    from repro.bench.uvm import run_uvm_comparison

    t0 = time.perf_counter()
    comp = run_uvm_comparison()
    elapsed = time.perf_counter() - t0

    for app in comp.apps:
        plain = comp.sim_time(app, "gpu_uvm")
        assert comp.sim_time(app, "uvm_readahead") < plain, app
        assert comp.sim_time(app, "uvm_learned") < plain, app
    wins = sum(
        1
        for app in comp.apps
        if comp.sim_time(app, "bigkernel")
        < comp.sim_time(app, comp.best_uvm(app))
    )
    assert wins >= 4, f"bigkernel only beats the best UVM variant on {wins}/6"

    entry = comp.figure_entry()
    entry["bigkernel_wins"] = wins
    entry["wall_seconds"] = elapsed
    _record(entry)


def test_multigpu_scaling():
    """1→8 GPU scaling sweep per app: the sharded scale-out engine
    (``repro bench --gpus``).

    Every cell runs through the true DES with each shard's trace audited
    by the pipeline invariant battery, every K-GPU merged output is
    cross-checked bit-equal against the single-GPU run (the harness hard
    asserts both), and the closed-form shard model prices every cell.
    The scaling-shape facts are simulated-time facts, deterministic on
    any box, so they are hard asserts too: compute-bound apps gain from
    a second GPU, a shared root complex never beats dedicated links, and
    the analytic predictions stay within the published tolerance.
    """
    from repro.bench.multigpu import run_multigpu_scaling
    from repro.engines.multigpu import MultiGpuBigKernelEngine
    from repro.verify.differential import ANALYTIC_TOL

    t0 = time.perf_counter()
    scaling = run_multigpu_scaling(
        gpu_counts=(1, 2, 4, 8), verify_shards=True, predict=True
    )
    elapsed = time.perf_counter() - t0

    compute_bound = ("kmeans", "wordcount", "opinion", "mastercard")
    for app in compute_bound:
        assert scaling.speedup(app, 2) > 1.0, app
    worst = 0.0
    for app in scaling.apps:
        for n in scaling.gpu_counts:
            worst = max(worst, scaling.prediction_rel_err(app, n))
    assert worst <= ANALYTIC_TOL, (
        f"analytic shard model off by {worst:.2e} somewhere in the sweep"
    )
    # a shared root complex never beats dedicated links (spot-check at 2)
    app0 = scaling.apps[0]
    app_obj = get_app(app0)
    data = app_obj.generate(n_bytes=scaling.data_bytes, seed=scaling.seed)
    cfg = EngineConfig(
        chunk_bytes=max(256 * 1024, scaling.data_bytes // 4)
    )
    shared = MultiGpuBigKernelEngine(2, shared_link=True).run(
        app_obj, data, cfg
    )
    assert shared.sim_time >= scaling.sim_time(app0, 2) * (1 - 1e-12)

    entry = scaling.figure_entry()
    entry["wall_seconds"] = elapsed
    entry["worst_prediction_rel_err"] = worst
    _record(entry)


def test_kernel_exec_throughput():
    """Compiled NumPy backend vs the tree-walking interpreter on the dna
    kernel: same outputs and counters, >= 10x elements/sec expected."""
    import numpy as np

    from repro.kernelc.codegen import KernelInterpreter
    from repro.kernelc.compile import (
        compile_kernel,
        resident_kinds_of,
        vector_fn_names,
    )

    app = get_app("dna")
    data = app.generate(n_bytes=512 * 1024, seed=7)
    n = app.n_units(data)
    kernel = app.kernel()

    ctx_i = app.make_ir_context(data)
    t0 = time.perf_counter()
    interp = KernelInterpreter(kernel, ctx_i)
    interp.run_thread(0, 0, n)
    t_interp = time.perf_counter() - t0

    ctx_c = app.make_ir_context(data)
    compiled = compile_kernel(
        kernel,
        vector_fns=vector_fn_names(ctx_c.device_fns),
        resident_kinds=resident_kinds_of(ctx_c.resident),
    )
    t0 = time.perf_counter()
    run = compiled.run_range(ctx_c, 0, n)
    t_compiled = time.perf_counter() - t0

    # exactness is non-negotiable; only the wall-clock is warn-only
    assert np.array_equal(
        ctx_i.resident["table"], ctx_c.resident["table"]
    )
    assert run.stats.n_ops == interp.stats.n_ops
    assert run.stats.mapped_read_bytes == interp.stats.mapped_read_bytes

    speedup = t_interp / t_compiled if t_compiled > 0 else float("inf")
    _record(
        {
            "name": "kernel_exec_throughput",
            "app": "dna",
            "n_records": n,
            "interp_elements_per_sec": n / t_interp,
            "compiled_elements_per_sec": n / t_compiled,
            "speedup": speedup,
            "interp_seconds": t_interp,
            "compiled_seconds": t_compiled,
        }
    )
    if speedup < 10.0:
        warnings.warn(
            f"kernel_exec_throughput: compiled backend {speedup:.1f}x below "
            f"the 10x expectation (warn-only; see BENCH_pipeline.json)",
            stacklevel=2,
        )


def test_analytic_sweep():
    """Million-point analytic sweep plus a DES spot-check of its optimum.

    The closed-form predictor prices a generated grid of >= 1,000,000
    BigKernel configurations (chunk bytes x blocks x threads x ring
    depth) as pure NumPy array ops; the wall-clock is recorded, then a
    single DES run at the analytic argbest must land within the
    ``verify --analytic`` tolerance (the predictor is machine-exact on
    clean geometries, so this is a hard assert). Finally the hybrid
    sweep mode — rank analytically, DES-verify only the frontier — must
    return the same winner as the pure-DES 16-point sweep.
    """
    from repro.analytic import predict_grid, suggest_grid
    from repro.verify.differential import ANALYTIC_TOL

    app = get_app("wordcount")
    data = app.generate(n_bytes=4 * MiB, seed=7)
    engine = BigKernelEngine()
    base = EngineConfig(functional=False)

    grid = suggest_grid(1_000_000)
    t0 = time.perf_counter()
    gp = predict_grid(app, data, grid, base, engine=engine)
    elapsed = time.perf_counter() - t0
    assert gp.n_points >= 1_000_000

    best_idx = gp.argbest()
    predicted = float(gp.sim_time[best_idx])
    des = engine.run(app, data, gp.config_at(best_idx)).sim_time
    rel_err = abs(predicted - des) / des
    assert rel_err <= ANALYTIC_TOL, (
        f"DES at the analytic argbest: {des} vs predicted {predicted} "
        f"(rel err {rel_err:.2e})"
    )

    hybrid = sweep(
        engine, app, data, base, SWEEP_GRID, mode="hybrid", top_k=4
    )
    pure = sweep(engine, app, data, base, SWEEP_GRID)
    assert hybrid.best.params == pure.best.params
    assert hybrid.best.sim_time == pure.best.sim_time
    assert len(hybrid.points) <= len(pure.points)

    _record(
        {
            "name": "analytic_sweep",
            "app": "wordcount",
            "points": gp.n_points,
            "wall_seconds": elapsed,
            "points_per_sec": gp.n_points / elapsed,
            "best_params": gp.best_params(),
            "predicted_best": predicted,
            "des_at_best": des,
            "rel_err": rel_err,
            "hybrid_points_evaluated": len(hybrid.points),
            "hybrid_matches_des_best": hybrid.best.params == pure.best.params,
        }
    )
    if elapsed > 60.0:
        warnings.warn(
            f"analytic_sweep: {gp.n_points:,} points took {elapsed:.1f}s "
            f"(warn-only; see BENCH_pipeline.json)",
            stacklevel=2,
        )
