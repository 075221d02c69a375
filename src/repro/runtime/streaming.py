"""The streaming programming model: ``streamingMalloc`` / ``streamingMap``.

This is the API surface the paper's Section III-A example uses: the
programmer declares an arbitrarily large device array and maps it to a host
structure; BigKernel manages chunking, buffering and transfer behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import RuntimeConfigError
from repro.kernelc.ir import RecordSchema


@dataclass
class StreamingArray:
    """A pseudo-virtual device array backed by host memory.

    ``host`` is a structured NumPy array whose dtype matches ``schema``.
    ``writable`` marks arrays whose mapped records the kernel modifies
    (K-means' clusterIds), which activates the two write-back pipeline
    stages.
    """

    name: str
    schema: RecordSchema
    host: np.ndarray
    writable: bool = False

    def __post_init__(self):
        if self.host.dtype.itemsize != self.schema.record_size:
            raise RuntimeConfigError(
                f"host dtype itemsize {self.host.dtype.itemsize} != record "
                f"size {self.schema.record_size} for {self.name!r}"
            )

    @property
    def n_records(self) -> int:
        return int(self.host.shape[0])

    @property
    def nbytes(self) -> int:
        return self.n_records * self.schema.record_size

    def byte_view(self) -> np.ndarray:
        """Flat uint8 view for byte-addressed gathering."""
        return self.host.view(np.uint8).reshape(-1)


class StreamingRegistry:
    """Tracks declared streaming arrays for one kernel launch.

    Mirrors the ``streamingMalloc`` (declare size) + ``streamingMap`` (bind
    host memory) call pair from the paper's CPU-side example.
    """

    def __init__(self) -> None:
        self._declared: dict[str, int] = {}
        self._arrays: dict[str, StreamingArray] = {}

    def streaming_malloc(self, name: str, nbytes: int) -> str:
        """Declare a pseudo-virtual device array of ``nbytes``."""
        if nbytes <= 0:
            raise RuntimeConfigError(f"streamingMalloc({name!r}): size must be > 0")
        if name in self._declared:
            raise RuntimeConfigError(f"streamingMalloc({name!r}): already declared")
        self._declared[name] = int(nbytes)
        return name

    def streaming_map(
        self,
        name: str,
        host: np.ndarray,
        schema: RecordSchema,
        writable: bool = False,
    ) -> StreamingArray:
        """Bind host memory to a declared array."""
        if name not in self._declared:
            raise RuntimeConfigError(f"streamingMap({name!r}): not declared")
        arr = StreamingArray(name, schema, host, writable)
        if arr.nbytes > self._declared[name]:
            raise RuntimeConfigError(
                f"streamingMap({name!r}): host data ({arr.nbytes} B) exceeds "
                f"declared size ({self._declared[name]} B)"
            )
        self._arrays[name] = arr
        return arr

    def get(self, name: str) -> StreamingArray:
        try:
            return self._arrays[name]
        except KeyError:
            raise RuntimeConfigError(f"streaming array {name!r} is not mapped")
