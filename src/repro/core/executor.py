"""The shard-host contract every executor implements.

BRACE runs a tick as three shard rounds over resident shards
(:mod:`repro.brace.runtime`); an :class:`Executor` is *where* those shards
live:

* :meth:`Executor.init_shards` builds one state object per shard from a
  picklable factory;
* :meth:`Executor.run_sharded_tasks` runs ``fn(state, payload)`` calls *where
  each shard lives*, returning one :class:`ShardTaskResult` per task in
  submission order;
* :meth:`Executor.teardown_shards` releases the states.

The base class hosts the states in the caller's process, which is correct
for every memory-sharing backend (:mod:`repro.mapreduce.executor`).  The
wire executors (:mod:`repro.cluster.client`) override it with residency on
node processes.  This module imports nothing of either, so both can build
on it without importing each other.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.errors import ExecutorError

#: The values ``BraceConfig.executor`` accepts.
EXECUTOR_KINDS = ("serial", "thread", "process", "cluster")


def default_worker_count() -> int:
    """A sensible default parallelism level: the machine's CPU count."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one executed in-process task (:meth:`Executor.run_tasks`)."""

    index: int          #: Position of the task in the submitted batch.
    value: Any          #: The task's return value.
    wall_seconds: float  #: Wall-clock time spent running the task body.


@dataclass(frozen=True)
class ShardTaskResult:
    """Outcome of one shard-affine task (:meth:`Executor.run_sharded_tasks`).

    ``payload_bytes``/``result_bytes`` are the *measured* encoded sizes of
    what crossed a process boundary; both are 0 on backends that share the
    caller's memory.

    ``serialize_seconds``/``transport_seconds`` split the non-compute IPC
    cost: time spent encoding/decoding payloads and results (both ends) and
    time the driver spent writing the encoded command to the node's socket
    (the reply's trip back is not separately observable and folds into wait
    time at the caller).
    """

    shard_id: int        #: Shard the task ran against.
    value: Any           #: The task function's return value.
    wall_seconds: float  #: Wall-clock time of the task body, where it ran.
    payload_bytes: int = 0  #: Encoded payload size shipped to the shard.
    result_bytes: int = 0   #: Encoded result size shipped back.
    serialize_seconds: float = 0.0  #: Encode + decode time, both ends.
    transport_seconds: float = 0.0  #: Socket send time of the command frame.
    #: Rows the task wrote onto agent objects from columns that were ahead
    #: of them (:func:`materialized_rows`), counted where the shard lives.
    rows_materialized: int = 0


def _timed_shard_call(fn: Callable[[Any, Any], Any], state: Any, payload: Any) -> tuple[Any, float]:
    """Run one shard task and measure the wall-clock time of its body."""
    start = time.perf_counter()
    value = fn(state, payload)
    return value, time.perf_counter() - start


def materialized_rows(state: Any) -> int:
    """A shard state's running count of rows it wrote onto agent objects
    (its ``rows_materialized``; 0 for a state that keeps none)."""
    return getattr(state, "rows_materialized", 0)


def _shard_task(
    shard_id: int, fn: Callable[[Any, Any], Any], state: Any, payload: Any
) -> ShardTaskResult:
    """Run one shard task in process: its value, timing and materialized rows."""
    before = materialized_rows(state)
    value, seconds = _timed_shard_call(fn, state, payload)
    return ShardTaskResult(
        shard_id, value, seconds, rows_materialized=max(0, materialized_rows(state) - before)
    )


def _is_pickling_error(error: BaseException) -> bool:
    """Whether an exception actually stems from (un)pickling.

    Serialization failures surface as :class:`pickle.PickleError` for
    module-level objects, ``AttributeError`` for locally defined
    functions/classes and ``TypeError`` for unpicklable values (locks,
    generators...).  Only errors that *talk about* pickling are classified,
    so a genuine ``AttributeError``/``TypeError`` raised inside a task is
    never swallowed.
    """
    if isinstance(error, pickle.PickleError):
        return True
    if isinstance(error, (AttributeError, TypeError)):
        return "pickle" in str(error).lower()
    return False


class Executor:
    """Base class of the execution backends: a shard host.

    ``max_workers`` is the number of parallel hosts (``None`` for the CPU
    count).  The default shard implementation keeps states in the caller's
    process; :meth:`run_tasks` is the in-process task loop only the
    memory-sharing backends provide.
    """

    #: Short name used in statistics and configuration ("serial", ...).
    name: str = "abstract"
    #: True when tasks run in the caller's address space: shard payloads
    #: and results are handed over by reference, and in-place mutation of
    #: shared objects is visible to the caller.  The BRACE runtime reads
    #: this — and nothing else — to tell the by-reference transport from
    #: the wire.
    shares_memory: bool = True

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and int(max_workers) < 1:
            raise ExecutorError("max_workers must be at least 1 (or None for the CPU count)")
        self.max_workers = int(max_workers) if max_workers is not None else default_worker_count()
        self._shards: dict[int, Any] | None = None

    def run_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[TaskResult]:
        """Execute zero-argument callables in process, results in submission order."""
        raise ExecutorError(
            f"the {self.name} executor runs shard rounds only; "
            "ship work to its shards with run_sharded_tasks()"
        )

    # ------------------------------------------------------------------
    # Resident shards
    # ------------------------------------------------------------------
    def init_shards(
        self,
        factory: Callable[[int, Any], Any],
        payloads: dict[int, Any],
    ) -> None:
        """Create one durable shard state per entry of ``payloads``.

        ``factory(shard_id, payload)`` builds the state *where the shard will
        live*; on a wire backend both the factory and the payload must be
        picklable.  Shards stay alive across :meth:`run_sharded_tasks`
        calls until :meth:`teardown_shards`.  Memory-sharing backends hand
        the payloads to the factory by reference.
        """
        if self._shards is not None:
            raise ExecutorError(
                "resident shards are already initialized; call teardown_shards() first"
            )
        self._shards = {
            shard_id: factory(shard_id, payloads[shard_id]) for shard_id in sorted(payloads)
        }

    def has_shards(self) -> bool:
        """True when resident shards are currently initialized."""
        return self._shards is not None

    def run_sharded_tasks(
        self,
        tasks: Sequence[tuple[int, Callable[[Any, Any], Any], Any]],
    ) -> list[ShardTaskResult]:
        """Run ``(shard_id, fn, payload)`` tasks against their resident states.

        Each ``fn(state, payload)`` executes where its shard lives; results
        come back in submission order.  Tasks addressing the *same* shard
        within one batch run sequentially in submission order (shard state is
        never mutated concurrently); tasks addressing different shards may
        run in parallel.  Memory-sharing backends pass ``payload`` and the
        returned value by reference; the others encode both as columnar
        frames and report the measured bytes.
        """
        states = self._require_shards(tasks)
        return [
            _shard_task(shard_id, fn, states[shard_id], payload)
            for shard_id, fn, payload in tasks
        ]

    def teardown_shards(self) -> None:
        """Drop every resident shard state (idempotent)."""
        self._shards = None

    def _require_shards(self, tasks) -> dict[int, Any]:
        """The shard-state map, validating that every addressed shard exists."""
        if self._shards is None:
            raise ExecutorError("no resident shards are initialized; call init_shards() first")
        for shard_id, _fn, _payload in tasks:
            if shard_id not in self._shards:
                raise ExecutorError(f"unknown resident shard {shard_id!r}")
        return self._shards

    def shutdown(self) -> None:
        """Release pooled workers and resident shards (idempotent)."""
        self.teardown_shards()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} max_workers={self.max_workers}>"
