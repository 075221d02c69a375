"""Sharded multi-GPU pipeline execution on one simulated timeline.

:func:`run_pipeline_sharded` wires K per-shard 4/6-stage pipelines into a
single :class:`~repro.sim.core.Environment` so cross-shard contention
*emerges* from the event queue instead of being asserted:

* every shard gets its own GPU resource (capacity 2: addr-gen + compute
  warps) and its own CPU assembly pool, exactly as the single-GPU
  pipeline wires them;
* with ``shared_link=True`` all shards' DMAs queue on **one**
  :class:`~repro.hw.pcie.PcieLink` — the FIFO grant queue per direction
  is the root-complex port, so transfers of different shards serialize
  the way the SUMMA D2H serial-collection bottleneck does. Dedicated
  links give each shard a private queue (dual-x16 style boards).

Because ``copy_with_flag`` enqueues a chunk's data DMA and its flag
write in the caller's step, the paper's in-order completion-signalling
trick survives link sharing: another shard's transfer may slot between
two *chunks*, never between a chunk and its flag.

Each shard's stage records land in that shard's own
:class:`~repro.sim.trace.TraceRecorder` (dispatched on the ``block``
meta the stage processes and the DMA requests both carry), so the
standard invariant checkers can audit each shard's pipeline — capacity,
ordering, backpressure, byte conservation — independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import RuntimeConfigError
from repro.hw.pcie import D2H, H2D, DmaEngine, PcieLink
from repro.hw.spec import HardwareSpec
from repro.runtime.pipeline import (
    ChunkWork,
    PipelineConfig,
    PipelineResult,
    _spawn_block_processes,
)
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.sim.trace import TraceRecorder


class ShardTraceRouter:
    """Trace sink dispatching records to per-shard recorders.

    The stage processes tag every record (and every DMA request's meta)
    with ``block=<shard>``; the router forwards each interval to that
    shard's :class:`TraceRecorder` so per-shard invariant checking sees
    exactly one pipeline per trace.
    """

    def __init__(self, shard_traces: list[TraceRecorder]):
        self._shards = shard_traces

    def record(self, track, label, start, end, **meta):
        shard = meta.get("block")
        if shard is None or not 0 <= shard < len(self._shards):
            raise RuntimeConfigError(
                f"sharded trace record without a shard tag: {track}/{label}"
            )
        return self._shards[shard].record(track, label, start, end, **meta)


@dataclass
class ShardedPipelineResult:
    """Outcome of one K-shard pipeline run on the combined timeline."""

    #: end of the combined timeline (slowest shard's finish)
    total_time: float
    #: per-shard results, each carrying that shard's own trace
    shards: list[PipelineResult] = field(default_factory=list)


def _trace_bytes(trace: TraceRecorder, track: str) -> int:
    return sum(int(iv.meta.get("nbytes", 0)) for iv in trace.by_track(track))


def run_pipeline_sharded(
    hardware: HardwareSpec,
    shard_chunks: list[list[ChunkWork]],
    shard_configs: list[PipelineConfig],
    shared_link: bool = False,
) -> ShardedPipelineResult:
    """Simulate K per-shard pipelines contending on the host fabric.

    ``shard_chunks[g]`` is shard ``g``'s chunk sequence (templated
    schedules are materialized); ``shard_configs[g]`` its scheduling
    knobs. ``shared_link`` routes every shard's DMAs through one PCIe
    root-complex port; otherwise each shard gets a dedicated link.

    NUMA/memory-bandwidth contention is *not* modeled here — it is a
    static derating of each shard's assembly costs (the engine prices
    shard chunks against :func:`repro.hw.topology.shard_mem_bandwidth`),
    which keeps the DES event count linear in chunks, not shards².
    """
    if not shard_chunks or not all(len(c) for c in shard_chunks):
        raise RuntimeConfigError("each shard needs at least one chunk")
    if len(shard_chunks) != len(shard_configs):
        raise RuntimeConfigError("one PipelineConfig per shard required")
    from repro.runtime.fastpath import TemplatedChunks

    shard_chunks = [
        c.materialize() if isinstance(c, TemplatedChunks) else c
        for c in shard_chunks
    ]
    env = Environment()
    traces = [TraceRecorder() for _ in shard_chunks]
    router = ShardTraceRouter(traces)

    if shared_link:
        link = PcieLink(env, hardware.pcie, trace=router)
        links = [link] * len(shard_chunks)
        dmas = [DmaEngine(link)] * len(shard_chunks)
    else:
        links = [
            PcieLink(env, hardware.pcie, trace=router) for _ in shard_chunks
        ]
        dmas = [DmaEngine(lk) for lk in links]

    for g, (chunks, cfg) in enumerate(zip(shard_chunks, shard_configs)):
        gpu = Resource(env, capacity=2, name=f"gpu{g}")
        cpu = Resource(env, capacity=cfg.cpu_workers, name=f"cpu{g}")
        _spawn_block_processes(
            env, links[g], dmas[g], gpu, cpu, chunks, cfg, router, block=g
        )
    env.run()

    shards = []
    for g, (chunks, trace) in enumerate(zip(shard_chunks, traces)):
        stage_totals = {
            label: trace.total_time(label)
            for label in trace.labels()
            if not label.endswith("-flag")
        }
        shards.append(
            PipelineResult(
                total_time=max((iv.end for iv in trace), default=0.0),
                n_chunks=len(chunks),
                trace=trace,
                stage_totals=stage_totals,
                bytes_h2d=_trace_bytes(trace, f"pcie-{H2D}"),
                bytes_d2h=_trace_bytes(trace, f"pcie-{D2H}"),
            )
        )
    # the link counters must agree with the per-shard trace sums — a
    # routing bug would silently mis-attribute bytes otherwise
    moved_h2d = sum(lk.bytes_moved[H2D] for lk in set(links))
    moved_d2h = sum(lk.bytes_moved[D2H] for lk in set(links))
    got_h2d = sum(s.bytes_h2d for s in shards)
    got_d2h = sum(s.bytes_d2h for s in shards)
    if (moved_h2d, moved_d2h) != (got_h2d, got_d2h):
        raise RuntimeConfigError(
            f"shard byte attribution mismatch: link moved "
            f"({moved_h2d}, {moved_d2h}) vs shard traces ({got_h2d}, {got_d2h})"
        )
    return ShardedPipelineResult(total_time=env.now, shards=shards)
