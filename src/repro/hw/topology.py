"""Host-side fabric topology for multi-GPU scale-out.

One GPU sees the whole host: the full socket memory bandwidth feeds its
assembly threads and a dedicated PCIe x16 link feeds its DMA engine. K
GPUs do not scale that picture linearly — they share two host resources:

* **NUMA memory bandwidth.** The testbed's socket bandwidth is split
  across NUMA nodes; each shard's assembly threads stream mapped data
  from the node their GPU is attached to. With NUMA-aware placement a
  shard gets its node's bandwidth divided by the shards pinned there;
  without it, remote accesses pay ``remote_mem_penalty`` on top.
* **The PCIe root complex.** With ``shared_link`` every DMA crosses one
  root-complex port, so transfers of different shards serialize on the
  same FIFO :class:`~repro.hw.pcie.PcieLink` grant queue (modeled as an
  emergent property of the DES, not a bandwidth division). Dedicated
  links (dual-x16 style boards) give each shard its own queue.

The same SUMMA-style contention shapes apply to the cross-GPU merge:
collecting per-shard accumulator states is a serial D2H gather on a
shared root complex but parallel over dedicated links, and the host-side
reduction streams at socket memory bandwidth either way
(:func:`merge_cost` prices both, and is shared by the engine and the
closed-form predictor so they agree to the bit on this component).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RuntimeConfigError
from repro.hw.spec import CpuSpec, HardwareSpec


@dataclass(frozen=True)
class FabricSpec:
    """Shared host-resource topology for a K-GPU configuration.

    ``n_gpus`` modeled devices hang off a host with ``numa_nodes`` memory
    nodes. ``shared_link`` puts every device behind one PCIe root-complex
    port (transfers serialize); ``False`` models one x16 link per device.
    ``numa_aware`` places each shard's assembly threads on the node its
    GPU is attached to; ``False`` leaves them unplaced, paying
    ``remote_mem_penalty`` (fraction of local bandwidth kept) on the
    node-interconnect hop.
    """

    n_gpus: int = 1
    shared_link: bool = False
    numa_nodes: int = 2
    numa_aware: bool = True
    remote_mem_penalty: float = 0.6

    def __post_init__(self):
        if self.n_gpus < 1:
            raise RuntimeConfigError("n_gpus must be >= 1")
        if self.numa_nodes < 1:
            raise RuntimeConfigError("numa_nodes must be >= 1")
        if not 0.0 < self.remote_mem_penalty <= 1.0:
            raise RuntimeConfigError(
                "remote_mem_penalty must be in (0, 1]"
            )


def node_of_shard(shard: int, fabric: FabricSpec) -> int:
    """NUMA node shard ``shard``'s GPU (and assembly threads) sit on.

    Shards are spread contiguously: with 4 GPUs on 2 nodes, shards 0-1
    land on node 0 and shards 2-3 on node 1 (matching how dual-root
    boards wire their PCIe slots).
    """
    return shard * fabric.numa_nodes // fabric.n_gpus


def shards_on_node(node: int, fabric: FabricSpec) -> int:
    """How many shards contend for ``node``'s memory controller."""
    return sum(
        1 for g in range(fabric.n_gpus) if node_of_shard(g, fabric) == node
    )


def shard_mem_bandwidth(cpu: CpuSpec, shard: int, fabric: FabricSpec) -> float:
    """Host memory bandwidth shard ``shard``'s assembly threads see.

    A single shard keeps the whole socket (the one-GPU model must stay
    bit-identical to the base engine). Beyond that, each node's share of
    the socket bandwidth is divided among the shards placed on it;
    NUMA-blind placement additionally pays the interconnect penalty.
    """
    if fabric.n_gpus == 1:
        return cpu.mem_bandwidth
    node = node_of_shard(shard, fabric)
    local = cpu.mem_bandwidth / fabric.numa_nodes
    share = local / max(1, shards_on_node(node, fabric))
    if not fabric.numa_aware:
        share *= fabric.remote_mem_penalty
    return share


def shard_split(units: int, fabric: FabricSpec) -> list[tuple[int, int]]:
    """``(shard, units)`` of each non-empty shard: contiguous ceil-sized
    slices of the unit range, in device order."""
    per_shard = -(-units // fabric.n_gpus)  # ceil
    shards = []
    remaining = units
    for g in range(fabric.n_gpus):
        su = min(per_shard, remaining)
        if su <= 0:
            break
        remaining -= su
        shards.append((g, su))
    return shards


def shard_workers(cpu: CpuSpec, fabric: FabricSpec) -> int:
    """Host assembly threads available to each shard's pipeline."""
    return max(1, cpu.threads // fabric.n_gpus)


def state_nbytes(state) -> int:
    """Size of an app's global accumulator state on the wire.

    Arrays travel at their buffer size; scalars as one 8-byte word. Used
    to price the cross-GPU merge (D2H collection + host reduction).
    """
    if not isinstance(state, dict):
        return 8
    total = 0
    for value in state.values():
        if isinstance(value, np.ndarray):
            total += int(value.nbytes)
        else:
            total += 8
    return total


def merge_cost(
    hw: HardwareSpec,
    fabric: FabricSpec,
    state_bytes: int,
    n_passes: int = 1,
) -> float:
    """Simulated seconds of the cross-GPU reduce/merge stage.

    Per synchronization point every shard's accumulator state crosses
    D2H — serially over a shared root complex, concurrently over
    dedicated links — and the host reduces K partials at socket memory
    bandwidth (read both operands, write one: the same 2x-traffic floor
    the assembly model uses). Pass boundaries additionally broadcast the
    merged state back H2D. The final merge (after the last pass) has no
    broadcast. One GPU needs no merge at all.
    """
    k = fabric.n_gpus
    if k == 1 or state_bytes <= 0:
        return 0.0
    t_xfer = hw.pcie.transfer_time(state_bytes, pinned=True)
    collect = k * t_xfer if fabric.shared_link else t_xfer
    reduce_t = 2.0 * state_bytes * (k - 1) / hw.cpu.mem_bandwidth
    broadcast = k * t_xfer if fabric.shared_link else t_xfer
    boundary = collect + reduce_t + broadcast
    final = collect + reduce_t
    return (n_passes - 1) * boundary + final
