"""Parallel partitioned extraction engine.

The paper names "dealing with big network traffic data" as the open
scaling problem; this package answers it with three layers:

* :mod:`repro.parallel.executor` - pluggable ``serial`` / ``thread`` /
  ``process`` backends behind one ``map``-shaped surface;
* :mod:`repro.parallel.son` - a two-pass partitioned frequent item-set
  miner (SON) provably equivalent to the serial miners;
* :mod:`repro.parallel.bank` / :mod:`repro.parallel.engine` - the
  per-feature detector fan-out and the engine tying both stages to one
  shared executor.
"""

from repro.parallel.bank import ParallelDetectorBank
from repro.parallel.engine import ParallelEngine
from repro.parallel.executor import (
    EXECUTOR_BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    resolve_jobs,
)
from repro.parallel.son import son

__all__ = [
    "EXECUTOR_BACKENDS",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "resolve_jobs",
    "son",
    "ParallelDetectorBank",
    "ParallelEngine",
]
