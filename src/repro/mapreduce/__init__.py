"""The executor contract BRACE runs its shard rounds on.

BRACE extends MapReduce: a tick is three shard rounds (distribute, query,
update) over resident shards, the map–reduce–reduce passes of the paper's
Appendix A run where each shard lives.  This package supplies *where* the
rounds run — the :class:`Executor` backends and their shard-host contract
(:mod:`repro.mapreduce.executor`); the rounds themselves are the BRACE
runtime's (:mod:`repro.brace`).
"""

from repro.mapreduce.executor import (
    Executor,
    SerialExecutor,
    ThreadExecutor,
    TaskResult,
    make_executor,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "TaskResult",
    "make_executor",
]


def __getattr__(name: str):
    # Lazy for the reason given in :mod:`repro.mapreduce.executor`: the class
    # lives with the wire client, which imports this package.
    if name == "ProcessExecutor":
        from repro.mapreduce.executor import ProcessExecutor

        return ProcessExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
