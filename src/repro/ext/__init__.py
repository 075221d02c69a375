"""Extensions beyond the paper's evaluated system.

* :mod:`repro.ext.mapreduce` — the paper's stated future work ("we plan on
  applying BigKernel to MapReduce"): a map/reduce front end that compiles a
  record-wise mapper + associative reducer into a streaming
  :class:`~repro.apps.base.Application`, so arbitrary MapReduce jobs run on
  every execution scheme (including BigKernel) unchanged.

Two extensions that started here are now engines and are re-exported from
:mod:`repro.engines`: ``MultiGpuBigKernelEngine`` (sharding the stream
across several simulated GPUs, :mod:`repro.engines.multigpu`) and the
fault-driven unified-memory baseline ``GpuUvmEngine``/``UvmSpec`` (the
mechanism that later delivered BigKernel's programming model in the
driver, :mod:`repro.engines.uvm`).
"""

from repro.engines import GpuUvmEngine, MultiGpuBigKernelEngine, UvmSpec
from repro.ext.mapreduce import MapReduceSpec, MapReduceApp, make_clickstream_job

__all__ = [
    "MapReduceSpec",
    "MapReduceApp",
    "make_clickstream_job",
    "MultiGpuBigKernelEngine",
    "GpuUvmEngine",
    "UvmSpec",
]
