"""GPU single-buffer implementation: transfers and kernels serialized.

One staging buffer, one device buffer: for each chunk the host copies data
into the pinned staging buffer, the DMA moves it to the device, the kernel
runs, and (for writers) results come back — all strictly in sequence. This
is the scheme Fig. 4(b)'s computation/communication ratio is reported for.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.base import AccessProfile, AppData, Application
from repro.engines.base import Engine, EngineConfig, RunMetrics, RunResult
from repro.engines.gpu_common import chunk_plan, kernel_chunk_cost
from repro.hw.cpu import CpuDevice
from repro.hw.elementwise import any_true, trunc_int, where
from repro.hw.gpu import GpuDevice
from repro.hw.spec import HardwareSpec


def chunk_costs(profile: AccessProfile, hw: HardwareSpec, u, threads):
    """(comm, comp, bytes_h2d, bytes_d2h) of one ``u``-unit chunk.

    ``u`` and ``threads`` may be arrays (one chunk per element)."""
    cpu = CpuDevice(hw.cpu)
    gpu = GpuDevice(hw.gpu)
    raw = u * profile.record_bytes
    comm = cpu.staging_copy_time(raw) + hw.pcie.transfer_time(raw, pinned=True)
    cost = kernel_chunk_cost(profile, u, coalesced=False)
    comp = gpu.stage_time(cost, threads) + gpu.spec.kernel_launch_overhead
    wb = u * profile.write_bytes_per_record
    # writers ship results back and apply them into the source
    written = wb > 0
    comm = where(
        written,
        comm + hw.pcie.transfer_time(wb, pinned=True) + cpu.staging_copy_time(wb),
        comm,
    )
    return comm, comp, trunc_int(raw), where(written, trunc_int(wb), 0)


def serial_totals(profile: AccessProfile, hw: HardwareSpec, units: int, upc, threads):
    """(comm, comp, bytes_h2d, bytes_d2h, launches) of a whole run.

    Serialized execution has no cross-chunk coupling, so per-pass cost is
    just (full chunks) x (template cost) + (tail cost): the two chunk
    kinds are priced once instead of looping over every chunk. ``upc``
    and ``threads`` may be arrays (one run per element)."""
    n_full, rem = divmod(units, upc)
    tail = rem > 0
    # a chunk kind no run has is not priced
    none = (0.0, 0.0, 0, 0)
    comm_f, comp_f, h2d_f, d2h_f = (
        chunk_costs(profile, hw, upc, threads) if any_true(n_full > 0) else none
    )
    comm_t, comp_t, h2d_t, d2h_t = (
        chunk_costs(profile, hw, rem, threads) if any_true(tail) else none
    )
    passes = profile.passes
    return (
        passes * (n_full * comm_f + where(tail, comm_t, 0.0)),
        passes * (n_full * comp_f + where(tail, comp_t, 0.0)),
        passes * (n_full * h2d_f + where(tail, h2d_t, 0)),
        passes * (n_full * d2h_f + where(tail, d2h_t, 0)),
        passes * (n_full + tail),
    )


class GpuSingleBufferEngine(Engine):
    """Serialized chunked execution (no overlap)."""

    name = "gpu_single"
    display_name = "GPU Single Buffer"

    def run(
        self,
        app: Application,
        data: AppData,
        config: Optional[EngineConfig] = None,
    ) -> RunResult:
        config = config or EngineConfig()
        profile = app.access_profile(data)
        units = app.n_units(data)
        upc, n_chunks = chunk_plan(units, config.chunk_bytes, profile.record_bytes)
        comm, comp, bytes_h2d, bytes_d2h, launches = serial_totals(
            profile, config.hardware, units, upc, config.total_compute_threads
        )
        sim_time = comm + comp

        output = None
        if config.functional:
            bounds = app.chunk_bounds(data, upc)
            output = self._functional_output(app, data, bounds)
        metrics = RunMetrics(
            n_chunks=n_chunks * profile.passes,
            bytes_h2d=bytes_h2d,
            bytes_d2h=bytes_d2h,
            comp_time=comp,
            comm_time=comm,
            kernel_launches=launches,
            notes={"units_per_chunk": upc},
        )
        return RunResult(self.name, app.name, output, sim_time, metrics)
