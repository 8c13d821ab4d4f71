"""A generic in-memory, iterative MapReduce engine.

This package is the MapReduce substrate the paper builds on: a faithful,
dependency-free implementation of the programming model (map, shuffle,
reduce), extended with

* **iteration** — the output of the reduce step can be fed into the next map
  step (``IterativeMapReduce``), matching the paper's iterated formulation;
* **map–reduce–reduce** — the second reduce pass used when simulations have
  non-local effect assignments (the identity second map task of Table 1 is
  elided, as the paper notes it can be);
* **simulation jobs** — executable versions of the formal map/reduce
  functions of Appendix A (:mod:`repro.mapreduce.simulation_job`), used to
  cross-check the optimized BRACE runtime.
"""

from repro.mapreduce.types import KeyValue
from repro.mapreduce.executor import (
    Executor,
    SerialExecutor,
    ThreadExecutor,
    TaskResult,
    make_executor,
    stable_hash_partition,
)
from repro.mapreduce.engine import (
    MapReduceEngine,
    MapReduceJob,
    MapReduceReduceJob,
    IterativeMapReduce,
    JobStatistics,
    TaskStatistics,
)
from repro.mapreduce.simulation_job import (
    LocalEffectSimulationJob,
    NonLocalEffectSimulationJob,
)

__all__ = [
    "KeyValue",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "TaskResult",
    "make_executor",
    "stable_hash_partition",
    "MapReduceEngine",
    "MapReduceJob",
    "MapReduceReduceJob",
    "IterativeMapReduce",
    "JobStatistics",
    "TaskStatistics",
    "LocalEffectSimulationJob",
    "NonLocalEffectSimulationJob",
]


def __getattr__(name: str):
    # Lazy for the reason given in :mod:`repro.mapreduce.executor`: the class
    # lives with the wire client, which imports this package.
    if name == "ProcessExecutor":
        from repro.mapreduce.executor import ProcessExecutor

        return ProcessExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
