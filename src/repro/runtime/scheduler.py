"""Thread-block planning: warp-segregated layout and active-block policy.

BigKernel launches twice as many GPU threads as the original program: half
generate addresses, half compute. Warps must be *homogeneous* — an
addr-gen thread and a compute thread in the same warp would diverge on the
role branch of Fig. 3 and serialize both halves. Buffers are allocated only
for thread blocks that can actually be resident (Section IV-D), so they can
be made larger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RuntimeConfigError
from repro.hw.elementwise import any_true
from repro.hw.gpu import BlockResources, GpuDevice
from repro.runtime.buffers import BufferConfig


@dataclass(frozen=True)
class ThreadLayout:
    """Thread organization of one BigKernel thread block.

    ``compute_threads`` may be an array (one block shape per element).
    """

    #: computation threads per block in the *original* program
    compute_threads: int
    warp_size: int = 32

    def __post_init__(self):
        if any_true(self.compute_threads < 1):
            raise RuntimeConfigError("compute_threads must be >= 1")
        if any_true(self.compute_threads % self.warp_size != 0):
            raise RuntimeConfigError(
                f"compute_threads ({self.compute_threads}) must be a multiple "
                f"of the warp size ({self.warp_size}) for warp-homogeneous "
                "role assignment"
            )

    @property
    def addrgen_threads(self) -> int:
        """One addr-gen thread per compute thread (same virtual tid)."""
        return self.compute_threads

    @property
    def total_threads(self) -> int:
        return 2 * self.compute_threads

    @property
    def warps(self) -> int:
        return self.total_threads // self.warp_size

    def role_of_warp(self, warp_index: int) -> str:
        """First half of the block's warps generate addresses, second half
        compute; every warp is role-homogeneous (no divergence)."""
        if not 0 <= warp_index < self.warps:
            raise RuntimeConfigError(f"warp index {warp_index} out of range")
        return "addrgen" if warp_index < self.warps // 2 else "compute"

    def is_divergence_free(self) -> bool:
        """No warp mixes roles (true by construction; kept for tests)."""
        half = self.warps // 2
        return self.warps == 2 * half


@dataclass(frozen=True)
class BlockPlan:
    """Resolved launch plan for one BigKernel run."""

    active_blocks: int
    requested_blocks: int
    layout: ThreadLayout
    buffers: BufferConfig

    @property
    def total_compute_threads(self) -> int:
        return self.active_blocks * self.layout.compute_threads

    @property
    def total_gpu_threads(self) -> int:
        return self.active_blocks * self.layout.total_threads


def plan_blocks(
    gpu: GpuDevice,
    layout: ThreadLayout,
    buffers: BufferConfig,
    num_set_blocks: int,
    shared_mem_per_block: int = 0,
    registers_per_thread: int = 32,
) -> BlockPlan:
    """Compute active blocks: ``min(numSetBlocks, Rgpu / Rtb)``.

    ``Rtb`` (per-block resource needs) is known at compile time; the GPU's
    resources are probed at run time — the paper's hybrid method. Buffers
    are then sized/allocated for *active* blocks only.
    """
    if num_set_blocks < 1:
        raise RuntimeConfigError("num_set_blocks must be >= 1")
    req = BlockResources(
        threads=layout.total_threads,
        shared_mem_bytes=shared_mem_per_block,
        registers_per_thread=registers_per_thread,
    )
    active = gpu.active_blocks(req, num_set_blocks)
    return BlockPlan(
        active_blocks=active,
        requested_blocks=num_set_blocks,
        layout=layout,
        buffers=buffers,
    )
