"""O(1)-per-configuration run prediction: ``predict_run``.

Where ``engine.run(...)`` walks a discrete-event (or fastpath) simulation
of the pipeline, ``predict_run(...)`` prices the same schedule in closed
form: it builds the engine's own chunk cost vectors (so every byte/op
ratio, buffer-planning and pattern-recognition decision is *identical* to
the simulated run) and closes the bounded-ring recurrence with the
max-plus bound family of :mod:`repro.analytic.algebra`.  No simulator
events fire; cost is a handful of float ops regardless of chunk count.

Scope: the five paper engines (``cpu_serial``, ``cpu_mt``, ``gpu_single``,
``gpu_double``, ``bigkernel`` incl. ablation feature sets) plus the
multi-GPU scale-out engine (``bigkernel_multigpu``: per-shard pipeline
bounds, a root-complex serialization bound for shared links, and the
closed-form merge cost shared with the engine).  The UVM family is
deliberately out of scope — demand paging's LRU page-table state has no
per-chunk closed form (see ``docs/performance.md``).
"""

from __future__ import annotations

import functools
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, NamedTuple, Optional, Union

from repro.apps.base import AppData, Application
from repro.engines.base import Engine, EngineConfig
from repro.engines.bigkernel import BigKernelEngine
from repro.engines.cpu_mt import CpuMtEngine
from repro.engines.cpu_serial import CpuSerialEngine
from repro.engines.gpu_common import chunk_plan
from repro.engines.gpu_double import PIPELINE as GPU_DOUBLE_PIPELINE
from repro.engines.gpu_double import GpuDoubleBufferEngine
from repro.engines.gpu_single import GpuSingleBufferEngine, serial_totals
from repro.engines.multigpu import MultiGpuBigKernelEngine
from repro.errors import ReproError
from repro.hw.elementwise import maximum, where
from repro.runtime.fastpath import FLAG_BYTES, TemplatedChunks
from repro.runtime.pipeline import ChunkWork, PipelineConfig

from repro.analytic.algebra import STAGE_NAMES, STAGES6, pipeline_bounds

#: engines predict_run can price in closed form
PREDICTABLE_ENGINES = (
    "cpu_serial",
    "cpu_mt",
    "gpu_single",
    "gpu_double",
    "bigkernel",
    "bigkernel_multigpu",
)

_ENGINE_CLASSES = {
    "cpu_serial": CpuSerialEngine,
    "cpu_mt": CpuMtEngine,
    "gpu_single": GpuSingleBufferEngine,
    "gpu_double": GpuDoubleBufferEngine,
    "bigkernel": BigKernelEngine,
    "bigkernel_multigpu": MultiGpuBigKernelEngine,
}

#: instance names encode the fabric ("bigkernel_multigpu4_shared", ...)
_MULTIGPU_NAME = re.compile(r"^bigkernel_multigpu(\d*)(_shared)?(_numablind)?$")


def _multigpu_from_name(name: str) -> Optional[MultiGpuBigKernelEngine]:
    m = _MULTIGPU_NAME.match(name)
    if m is None:
        return None
    return MultiGpuBigKernelEngine(
        n_gpus=int(m.group(1)) if m.group(1) else 2,
        shared_link=bool(m.group(2)),
        numa_aware=not m.group(3),
    )


@dataclass
class PredictedRun:
    """Closed-form prediction of one engine run."""

    engine: str
    app: str
    #: predicted total simulated time (same unit as ``RunResult.sim_time``)
    sim_time: float
    #: per-stage busy time (trace stage names; CPU baselines use roofline legs)
    stage_occupancy: Dict[str, float]
    #: stage with the largest busy time
    bottleneck: str
    #: fraction of the smaller of (PCIe busy, compute busy) hidden under
    #: the other — 0 for fully serialized schemes, →1 for perfect pipelining
    overlap_fraction: float
    #: the bound family (named lower bounds; the max is ``sim_time``)
    bounds: Dict[str, float] = field(default_factory=dict, repr=False)
    #: name of the binding (maximal) bound
    binding_bound: str = ""
    n_chunks: int = 0


def resolve_engine(engine: Union[str, Engine]) -> Engine:
    """Return an engine instance predict_run knows how to price."""
    if isinstance(engine, Engine):
        if isinstance(engine, MultiGpuBigKernelEngine):
            return engine
        cls = _ENGINE_CLASSES.get(engine.name)
        if cls is None or not isinstance(engine, cls):
            raise ReproError(
                f"no closed-form model for engine {engine.name!r}; "
                f"predictable: {', '.join(PREDICTABLE_ENGINES)}"
            )
        return engine
    eng = _multigpu_from_name(engine)
    if eng is not None:
        return eng
    cls = _ENGINE_CLASSES.get(engine)
    if cls is None:
        raise ReproError(
            f"no closed-form model for engine {engine!r}; "
            f"predictable: {', '.join(PREDICTABLE_ENGINES)}"
        )
    return cls()


def chunk_durations(k: ChunkWork, pcie, sync: float) -> Dict[str, float]:
    """Per-stage durations of one chunk kind, as the DES would price them.

    The predictor's one mapping from chunk costs to stage durations; the
    fields of ``k`` may be arrays (one chunk kind per sweep point)."""
    d_addr = where(
        k.addr_bytes_d2h > 0, pcie.transfer_time(k.addr_bytes_d2h, pinned=True), 0.0
    )
    return dict(
        A=k.t_addr_gen + d_addr,
        S=k.t_assembly,
        X=pcie.transfer_time(k.xfer_bytes, pinned=True, segments=k.xfer_segments)
        + pcie.transfer_time(FLAG_BYTES, pinned=True),
        C=k.t_compute + sync,
        WB=where(
            k.write_bytes > 0,
            pcie.transfer_time(k.write_bytes, pinned=True, segments=k.xfer_segments),
            0.0,
        ),
        SC=k.t_scatter,
        d_addr=d_addr,
    )


class KindPlan(NamedTuple):
    """A template(+tail) pipeline schedule in closed-form terms.

    Built from an engine's resolved schedule (:func:`plan_of`) the fields
    are scalars; ``predict_grid`` builds one with an element per sweep
    point. Each pass is ``n_template`` template chunks plus, where
    ``has_tail``, one ``tail`` chunk; without a tail, ``tail`` prices the
    same as ``template``.
    """

    template: ChunkWork
    tail: ChunkWork
    n_template: Any
    has_tail: Any
    passes: int
    depth: Any
    cpu_workers: int
    sync: float


def plan_of(chunks: TemplatedChunks, pipe_cfg: PipelineConfig) -> KindPlan:
    """The closed-form view of an engine's chunk sequence and pipeline."""
    tail = chunks.tail
    return KindPlan(
        template=chunks.template,
        tail=chunks.template if tail is None else tail,
        n_template=chunks.n_full,
        has_tail=tail is not None,
        passes=chunks.passes,
        depth=pipe_cfg.ring_depth,
        cpu_workers=pipe_cfg.cpu_workers,
        sync=pipe_cfg.sync_overhead,
    )


def plan_bounds(pcie, plan: KindPlan, x_scale: int = 1):
    """Close ``plan``'s bounded-ring recurrence.

    Returns ``(total, bounds, occupancy, t, u)`` with ``t``/``u`` the
    template/tail stage durations. ``x_scale`` stretches the H2D data
    transfer: K shards on one root-complex port are each served once
    every K slots.
    """
    t = chunk_durations(plan.template, pcie, plan.sync)
    u = t
    if plan.tail is not plan.template:
        u = chunk_durations(plan.tail, pcie, plan.sync)
    if x_scale != 1:
        t = dict(t, X=x_scale * t["X"])
        u = dict(u, X=x_scale * u["X"])
    per_pass = plan.n_template + plan.has_tail
    total, bounds, occ = pipeline_bounds(
        t,
        u,
        n=plan.passes * per_pass,
        n_tail=plan.passes * plan.has_tail,
        depth=plan.depth,
        per_pass=per_pass,
        passes=plan.passes,
        cpu_workers=plan.cpu_workers,
    )
    return total, bounds, occ, t, u


def _as_floats(total, bounds, occ):
    return (
        float(total),
        {name: float(v) for name, v in bounds.items()},
        {STAGE_NAMES[s]: float(occ[s]) for s in STAGES6},
    )


def predict_templated(hw, chunks: TemplatedChunks, pipe_cfg: PipelineConfig):
    """Closed-form total of a template(+tail) pipeline run.

    Returns ``(total, bounds, occupancy)`` with plain-float values.
    """
    return _as_floats(*plan_bounds(hw.pcie, plan_of(chunks, pipe_cfg))[:3])


def _finish_pipelined(name, app_name, total, bounds, occupancy, n_chunks):
    comm = occupancy["data_transfer"] + occupancy["write_transfer"]
    comp = occupancy["compute"]
    floor = min(comm, comp)
    overlap = 0.0
    if floor > 0.0:
        overlap = min(1.0, max(0.0, (comm + comp - total) / floor))
    real_bounds = {k: v for k, v in bounds.items() if v != float("-inf")}
    binding = max(real_bounds, key=real_bounds.get)
    bottleneck = max(occupancy, key=occupancy.get)
    return PredictedRun(
        engine=name,
        app=app_name,
        sim_time=total,
        stage_occupancy=occupancy,
        bottleneck=bottleneck,
        overlap_fraction=overlap,
        bounds=real_bounds,
        binding_bound=binding,
        n_chunks=n_chunks,
    )


def sharded_bounds(pcie, plans, shared_link: bool):
    """Close K shard pipelines that run side by side.

    Returns ``(total, per_shard, port)``: the pipeline total (kernel
    launch and merge not included), each shard's :func:`plan_bounds`, and
    the shared-port bounds (none for dedicated links or one shard).

    Dedicated links: shards share nothing in the DES, so the slowest
    shard's closed form *is* the pipeline total (exact, as for single-GPU
    bigkernel). A shared root-complex port adds two contention estimates.
    K symmetric shards start together, so their H2D requests interleave
    in near-lockstep on the root-complex FIFO: each shard's ring is closed
    again with K-scaled transfer service, which captures both the latency
    throttling of compute-bound shards and the port's total H2D
    residency. And the address ships + write-backs of *all* shards
    serialize on the one D2H channel, after chunk 0's address generation.
    """
    per_shard = [plan_bounds(pcie, plan) for plan in plans]
    total = functools.reduce(maximum, [res[0] for res in per_shard])
    port: Dict[str, Any] = {}
    k = len(plans)
    if shared_link and k > 1:
        port["shared_port_h2d"] = functools.reduce(
            maximum, [plan_bounds(pcie, plan, x_scale=k)[0] for plan in plans]
        )
        d2h = sum(
            plan.passes * plan.n_template * (t["d_addr"] + t["WB"])
            + plan.passes * plan.has_tail * (u["d_addr"] + u["WB"])
            for plan, (_, _, _, t, u) in zip(plans, per_shard)
        )
        t0 = per_shard[0][3]
        port["shared_port_d2h"] = where(
            d2h > 0, (t0["A"] - t0["d_addr"]) + d2h, float("-inf")
        )
        for bound in port.values():
            total = maximum(total, bound)
    return total, per_shard, port


def _predict_multigpu(
    app: Application,
    data: AppData,
    config: EngineConfig,
    eng: MultiGpuBigKernelEngine,
) -> PredictedRun:
    """Price a sharded run: :func:`sharded_bounds` over the engine's own
    shard schedules, plus the kernel-launch overhead and the closed-form
    merge cost (the engine's ``_merge_time``)."""
    hw = config.hardware
    plans, _ = eng._shard_plan(app, data, config)
    total, per_shard, port = sharded_bounds(
        hw.pcie,
        [plan_of(sched.chunks, sched.pipe_cfg) for _g, _su, sched in plans],
        eng.shared_link,
    )
    shards = [_as_floats(*res[:3]) for res in per_shard]
    slowest = max(range(len(shards)), key=lambda i: shards[i][0])
    bounds = {
        f"shard{plans[slowest][0]}:{name}": v
        for name, v in shards[slowest][1].items()
    }
    bounds.update((name, float(v)) for name, v in port.items())
    occupancy: Dict[str, float] = {}
    for _t, _b, occ_g in shards:
        for k, v in occ_g.items():
            occupancy[k] = occupancy.get(k, 0.0) + v

    total = float(total) + hw.gpu.kernel_launch_overhead
    total += eng._merge_time(app, data, hw, len(plans))
    n_chunks = sum(len(sched.chunks) for _g, _su, sched in plans)
    return _finish_pipelined(eng.name, app.name, total, bounds, occupancy, n_chunks)


def predict_run(
    app: Application,
    data: AppData,
    config: Optional[EngineConfig] = None,
    engine: Union[str, Engine] = "bigkernel",
) -> PredictedRun:
    """Predict ``engine.run(app, data, config).sim_time`` without running it."""
    config = config if config is not None else EngineConfig()
    eng = resolve_engine(engine)
    hw = config.hardware
    profile = app.access_profile(data)
    units = app.n_units(data)

    if eng.name == "cpu_serial" or eng.name == "cpu_mt":
        n_ops = units * profile.cpu_ops_per_record * profile.passes
        nbytes = units * profile.record_bytes * profile.passes
        if eng.name == "cpu_serial":
            compute_t = n_ops / hw.cpu.peak_ops_per_thread
            mem_t = nbytes / hw.cpu.per_thread_bandwidth
        else:
            cores_used = min(hw.cpu.threads, hw.cpu.cores)
            compute_t = n_ops / (
                hw.cpu.peak_ops_per_thread * cores_used * hw.cpu.mt_efficiency
            )
            agg_bw = min(
                hw.cpu.mem_bandwidth, hw.cpu.threads * hw.cpu.per_thread_bandwidth
            )
            mem_t = nbytes / agg_bw
        total = max(compute_t, mem_t)
        occupancy = {"cpu_compute": compute_t, "cpu_memory": mem_t}
        return PredictedRun(
            engine=eng.name,
            app=app.name,
            sim_time=total,
            stage_occupancy=occupancy,
            bottleneck=max(occupancy, key=occupancy.get),
            overlap_fraction=0.0,
            bounds=dict(occupancy),
            binding_bound=max(occupancy, key=occupancy.get),
            n_chunks=1,
        )

    if eng.name == "gpu_single":
        upc, _ = chunk_plan(units, config.chunk_bytes, profile.record_bytes)
        comm, comp, _h2d, _d2h, n_chunks = serial_totals(
            profile, hw, units, upc, config.total_compute_threads
        )
        total = comm + comp
        occupancy = {"data_transfer": comm, "compute": comp}
        return PredictedRun(
            engine=eng.name,
            app=app.name,
            sim_time=total,
            stage_occupancy=occupancy,
            bottleneck=max(occupancy, key=occupancy.get),
            overlap_fraction=0.0,
            bounds={"serial_chain": total},
            binding_bound="serial_chain",
            n_chunks=n_chunks,
        )

    if eng.name == "gpu_double":
        chunks, _upc = eng._schedule(app, data, config)
        total, bounds, occupancy = predict_templated(hw, chunks, GPU_DOUBLE_PIPELINE)
        return _finish_pipelined(
            eng.name, app.name, total, bounds, occupancy, len(chunks)
        )

    if isinstance(eng, MultiGpuBigKernelEngine):
        return _predict_multigpu(app, data, config, eng)

    # bigkernel (any feature set): price the engine's own resolved schedule
    sched = eng._schedule(app, data, config)
    total, bounds, occupancy = predict_templated(hw, sched.chunks, sched.pipe_cfg)
    total += hw.gpu.kernel_launch_overhead
    return _finish_pipelined(
        eng.name, app.name, total, bounds, occupancy, len(sched.chunks)
    )


#: accounting of :func:`predicted_sim_time` memoization — the online
#: pricing loop of the serving layer asks per enqueued job, so hits should
#: dominate on any repeat-heavy trace
PREDICT_RUN_STATS = {"requests": 0, "hits": 0, "misses": 0}

_PREDICT_CACHE: "OrderedDict[tuple, float]" = OrderedDict()
_PREDICT_CACHE_MAX = 512


def predicted_sim_time(
    app: Application,
    data: AppData,
    config: Optional[EngineConfig] = None,
    engine: Union[str, Engine] = "bigkernel",
) -> float:
    """:func:`predict_run`'s ``sim_time``, memoized per compatibility key.

    The key is the content identity of the run — dataset content key,
    engine spec (name + variant), frozen config — exactly what the serving
    layer's batcher calls a compatibility class plus the per-job geometry.
    Raises :class:`ReproError` for engines with no closed-form model (the
    UVM family), same as :func:`predict_run`.
    """
    from repro.apps.base import dataset_key
    from repro.bench.jobs import engine_to_spec

    config = config if config is not None else EngineConfig()
    eng = resolve_engine(engine)
    PREDICT_RUN_STATS["requests"] += 1
    spec = engine_to_spec(eng)
    key = None
    if spec is not None:
        key = (app.name, dataset_key(data), spec, config)
        cached = _PREDICT_CACHE.get(key)
        if cached is not None:
            PREDICT_RUN_STATS["hits"] += 1
            _PREDICT_CACHE.move_to_end(key)
            return cached
    PREDICT_RUN_STATS["misses"] += 1
    sim_time = predict_run(app, data, config, eng).sim_time
    if key is not None:
        _PREDICT_CACHE[key] = sim_time
        while len(_PREDICT_CACHE) > _PREDICT_CACHE_MAX:
            _PREDICT_CACHE.popitem(last=False)
    return sim_time
