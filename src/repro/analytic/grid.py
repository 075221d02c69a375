"""Whole-grid prediction: ``predict_grid``.

``predict_run`` prices one configuration; ``predict_grid`` prices a whole
sweep grid (chunk bytes × blocks × threads × ring depth) by evaluating the
engines' own cost functions over arrays, one element per grid point: units
per chunk and template/tail geometry, occupancy, the per-chunk stage
costs (``gpu_single.serial_totals``, ``gpu_double.chunk_work``,
``bigkernel.chunk_work``), the stage durations
(:func:`~repro.analytic.predict.chunk_durations`) and the max-plus bound
family. A million configurations price in a few seconds; there is no
per-point Python loop anywhere.

Two approximations relative to the engines enter as *inputs* to those
functions:

- the pattern-recognition fraction is sampled once at the base config's
  geometry and treated as geometry-independent (the recognizer's verdict
  is a property of the app's address stream, not of chunk boundaries);
- active blocks come from occupancy alone: the buffer allocator is not
  exercised per point (clean-run geometry is assumed to fit
  pinned/device memory, as it does for all shipped grids).

Both hold for the shipped apps, so every point equals ``predict_run`` of
its configuration bit for bit. ``verify --analytic`` checks
``predict_run`` against the DES; the grid itself is checked by
``tests/test_analytic.py::TestPredictGrid`` (every point against
``predict_run``, on all apps and predictable engines) and by the
``mode="analytic"``/``mode="hybrid"`` sweeps in
``tests/test_bench_sweep.py`` (against the DES).

Grid point enumeration matches ``bench.sweep``: keys iterate in sorted
order with ``itertools.product`` semantics (last key fastest), and the
ranking tie-break is the sweep's ``best`` rule — ``(sim_time,
chunk_bytes, num_blocks, grid order)`` — so analytic ranking and DES
sweeping agree on plateaus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.apps.base import AppData, Application
from repro.engines import bigkernel, gpu_double
from repro.engines.base import Engine, EngineConfig
from repro.engines.bigkernel import BigKernelEngine
from repro.engines.gpu_common import units_per_chunk
from repro.engines.gpu_single import serial_totals
from repro.engines.multigpu import MultiGpuBigKernelEngine
from repro.errors import ReproError
from repro.hw.gpu import BlockResources, GpuDevice
from repro.hw.topology import shard_mem_bandwidth, shard_split, shard_workers
from repro.runtime.fastpath import chunk_geometry
from repro.runtime.scheduler import ThreadLayout

from repro.analytic.model import extract_app_model
from repro.analytic.predict import (
    KindPlan,
    plan_bounds,
    predict_run,
    resolve_engine,
    sharded_bounds,
)

#: config fields predict_grid can sweep
GRID_FIELDS = ("chunk_bytes", "compute_threads", "num_blocks", "ring_depth")


@dataclass
class GridPrediction:
    """Predicted sim_time over every point of a sweep grid."""

    engine: str
    app: str
    #: swept config fields, in sorted (enumeration) order
    keys: Tuple[str, ...]
    #: per-point values of each swept field (flat, grid enumeration order)
    values: Dict[str, np.ndarray]
    #: per-point predicted total time
    sim_time: np.ndarray
    base_config: EngineConfig
    meta: Dict[str, object] = field(default_factory=dict)
    _order: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_points(self) -> int:
        return int(self.sim_time.size)

    def ranking(self) -> np.ndarray:
        """Point indices best-first under the sweep tie-break rule."""
        if self._order is None:
            zeros = np.zeros(self.sim_time.size, dtype=np.int64)
            cb = self.values.get("chunk_bytes", zeros)
            nb = self.values.get("num_blocks", zeros)
            # np.lexsort: last key is primary; stability preserves grid order
            self._order = np.lexsort((nb, cb, self.sim_time))
        return self._order

    def argbest(self) -> int:
        return int(self.ranking()[0])

    def params_at(self, index: int) -> Dict[str, int]:
        return {k: int(self.values[k][index]) for k in self.keys}

    def config_at(self, index: int) -> EngineConfig:
        return self.base_config.with_(**self.params_at(index))

    def best_params(self) -> Dict[str, int]:
        return self.params_at(self.argbest())

    def best_time(self) -> float:
        return float(self.sim_time[self.argbest()])

    def top(self, k: int, expand_ties: bool = True) -> List[int]:
        """Best ``k`` point indices; with ``expand_ties`` every point whose
        prediction exactly equals the k-th best is included too (analytic
        plateaus are bitwise-identical, so ties are meaningful)."""
        order = self.ranking()
        k = max(1, min(k, order.size))
        chosen = list(order[:k])
        if expand_ties and k < order.size:
            kth = self.sim_time[order[k - 1]]
            extra = order[k:]
            chosen.extend(extra[self.sim_time[extra] == kth])
        return [int(i) for i in chosen]


def _product_arrays(
    grid: Dict[str, Sequence[int]]
) -> Tuple[Tuple[str, ...], Dict[str, np.ndarray]]:
    """Flatten a grid to per-point value arrays in sweep enumeration order."""
    keys = tuple(sorted(grid))
    axes = [np.asarray(list(grid[k]), dtype=np.int64) for k in keys]
    if any(ax.size == 0 for ax in axes):
        raise ReproError("grid values must be non-empty lists")
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    return keys, {k: m.ravel() for k, m in zip(keys, mesh)}


def _grid_plan(costs, units: int, upc, passes: int, depth, cpu_workers, sync):
    """:class:`KindPlan` of a run per grid point: ``costs(u)`` prices one
    ``u``-unit chunk per point."""
    tpl_units, n_template, tail_units, has_tail = chunk_geometry(units, upc)
    return KindPlan(
        costs(tpl_units),
        costs(tail_units),
        n_template,
        has_tail,
        passes,
        depth,
        cpu_workers,
        sync,
    )


def predict_grid(
    app: Application,
    data: AppData,
    grid: Dict[str, Sequence[int]],
    base_config: Optional[EngineConfig] = None,
    engine: Union[str, Engine] = "bigkernel",
) -> GridPrediction:
    """Predict sim_time for every configuration in ``grid`` at once."""
    base = base_config if base_config is not None else EngineConfig()
    eng = resolve_engine(engine)
    unknown = set(grid) - set(GRID_FIELDS)
    if unknown:
        raise ReproError(
            f"predict_grid cannot sweep {sorted(unknown)}; "
            f"supported fields: {', '.join(GRID_FIELDS)}"
        )
    # EngineConfig's own validation, once per distinct value
    for key, vals in grid.items():
        for v in set(vals):
            base.with_(**{key: int(v)})
    keys, values = _product_arrays(grid)
    shape = values[keys[0]].shape if keys else (1,)

    def axis(name, default):
        return values.get(name, np.full(shape, default, dtype=np.int64))

    cb = axis("chunk_bytes", base.chunk_bytes)
    nb = axis("num_blocks", base.num_blocks)
    ct = axis("compute_threads", base.compute_threads)
    rd = axis("ring_depth", base.ring_depth)
    hw = base.hardware
    profile = app.access_profile(data)
    units = app.n_units(data)
    meta: Dict[str, object] = {}

    if eng.name in ("cpu_serial", "cpu_mt"):
        scalar = predict_run(app, data, base, engine=eng).sim_time
        sim = np.full(shape, scalar)
        meta["config_insensitive"] = True
        return GridPrediction(eng.name, app.name, keys, values, sim, base, meta)

    threads = nb * ct

    if eng.name == "gpu_single":
        upc = units_per_chunk(cb, profile.record_bytes)
        comm, comp, _h2d, _d2h, _n = serial_totals(profile, hw, units, upc, threads)
        sim = comm + comp
        return GridPrediction(eng.name, app.name, keys, values, sim, base, meta)

    if eng.name == "gpu_double":
        plan = _grid_plan(
            lambda u: gpu_double.chunk_work(profile, hw, u, threads),
            units,
            units_per_chunk(cb, profile.record_bytes),
            profile.passes,
            gpu_double.PIPELINE.ring_depth,
            gpu_double.PIPELINE.cpu_workers,
            gpu_double.PIPELINE.sync_overhead,
        )
        sim = plan_bounds(hw.pcie, plan)[0]
        meta["note"] = "ring_depth fixed at 2 by the engine"
        return GridPrediction(eng.name, app.name, keys, values, sim, base, meta)

    # bigkernel / bigkernel_multigpu, with the two documented approximations
    # as inputs: the pattern verdict of the base geometry, and active blocks
    # from occupancy alone (no allocator run)
    assert isinstance(eng, BigKernelEngine)
    m = extract_app_model(app, data, base, features=eng.features)
    pattern_on = bool(base.pattern_recognition and m.pattern_fraction >= 0.5)
    reduce_volume = m.reduce_volume
    upc = units_per_chunk(cb, bigkernel.payload_per_unit(profile, reduce_volume))
    block = BlockResources(threads=ThreadLayout(compute_threads=ct).total_threads)
    active = GpuDevice(hw.gpu).active_blocks(block, nb)
    multi = isinstance(eng, MultiGpuBigKernelEngine)
    if multi:
        shards = shard_split(units, eng.fabric)
        workers = shard_workers(hw.cpu, eng.fabric)
    else:
        shards = [(0, units)]
        workers = bigkernel.assembly_workers(active, hw.cpu)
    sync = bigkernel.sync_overhead(hw)
    plans = []
    for g, shard_units in shards:
        mem_bandwidth = hw.cpu.mem_bandwidth
        if multi:
            mem_bandwidth = shard_mem_bandwidth(hw.cpu, g, eng.fabric)

        def costs(u, mem_bandwidth=mem_bandwidth):
            return bigkernel.chunk_work(
                profile,
                hw,
                u,
                threads,
                workers,
                reduce_volume=reduce_volume,
                pattern_on=pattern_on,
                coalesced=eng.features.coalesce and reduce_volume,
                mem_bandwidth=mem_bandwidth,
            )

        plans.append(
            _grid_plan(
                costs,
                shard_units,
                upc,
                profile.passes,
                rd,
                bigkernel.PIPELINE_CPU_WORKERS,
                sync,
            )
        )
    total, _per_shard, _port = sharded_bounds(
        hw.pcie, plans, multi and eng.shared_link
    )
    sim = total + hw.gpu.kernel_launch_overhead
    meta.update(
        pattern_on=pattern_on,
        pattern_fraction=m.pattern_fraction,
        reduce_volume=reduce_volume,
        features=m.feature_label,
    )
    if multi:
        merge = eng._merge_time(app, data, hw, len(shards))
        sim = sim + merge
        meta.update(
            n_gpus=len(shards),
            shared_link=eng.shared_link,
            numa_aware=eng.numa_aware,
            workers_per_gpu=workers,
            merge_time=merge,
        )
    return GridPrediction(eng.name, app.name, keys, values, sim, base, meta)


def suggest_grid(
    n_points: int, base_chunk: int = 64 * 1024, chunk_step: int = 16 * 1024
) -> Dict[str, List[int]]:
    """A deterministic ≥``n_points`` sweep grid over sane geometry ranges."""
    if n_points < 1:
        raise ReproError("n_points must be positive")
    num_blocks = [1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64]
    ring_depth = [2, 3, 4, 5, 6, 7, 8, 9]
    compute_threads = [32 * i for i in range(1, 17)]
    per_chunk = len(num_blocks) * len(ring_depth) * len(compute_threads)
    n_chunks = max(1, -(-n_points // per_chunk))
    chunk_bytes = [base_chunk + i * chunk_step for i in range(n_chunks)]
    return {
        "chunk_bytes": chunk_bytes,
        "compute_threads": compute_threads,
        "num_blocks": num_blocks,
        "ring_depth": ring_depth,
    }
