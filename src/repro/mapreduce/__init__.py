"""The executors BRACE runs its shard rounds on.

BRACE extends MapReduce: a tick is three shard rounds (distribute, query,
update) over resident shards, the map–reduce–reduce passes of the paper's
Appendix A run where each shard lives.  This package supplies *where* the
rounds run — the four :class:`Executor` backends, every one a shard host
under the contract of :mod:`repro.core.executor`, and :func:`make_executor`,
which builds the one a :class:`~repro.brace.config.BraceConfig` names with
``max_workers`` parallel hosts (threads, or node processes on the wire).
On ``executor="cluster"`` an explicit ``max_workers`` is the node count;
it used to be ignored there in favour of a separate node-count setting.
The rounds themselves are the BRACE runtime's (:mod:`repro.brace`).
"""

from repro.mapreduce.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    TaskResult,
    ThreadExecutor,
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
