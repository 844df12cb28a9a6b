"""Parallel CPU transposition (Section 5.1).

The decomposition's passes are embarrassingly parallel: every row (or
column) permutes independently, so a pass is a parallel-for over rows or
columns with *perfect static load balance* — the property the paper
contrasts with cycle-following algorithms, whose poorly distributed cycle
lengths thwart parallelization.

* :mod:`~repro.parallel.partition` — balanced static chunking.
* :mod:`~repro.parallel.executor` — the OpenMP-analogue thread-pool
  parallel-for (numpy releases the GIL on array copies, so threads overlap).
* :mod:`~repro.parallel.cpu` — the parallel in-place transpose used by the
  Table 1 / Fig. 3 benchmarks.  Compiled chunks release the GIL for their
  whole duration, so the threads share one address space with no staging
  copy (docs/PARALLEL.md).
* :mod:`~repro.parallel.shm` — named shared-memory segments for the
  serving tier's zero-copy ingress.
"""

from .cpu import ParallelTranspose, parallel_transpose_inplace
from .executor import ParallelExecutor, PassExecutionError, default_worker_count
from .partition import balanced_chunks

__all__ = [
    "ParallelExecutor",
    "ParallelTranspose",
    "PassExecutionError",
    "balanced_chunks",
    "default_worker_count",
    "parallel_transpose_inplace",
]
