"""Pluggable parallel execution backends for the BRACE shard rounds.

The paper's central performance claim is that behavioral simulations scale
near-linearly when expressed as iterated map-reduce-reduce passes.  The
BRACE runtime (:mod:`repro.brace.runtime`) expresses the passes as shard
rounds; this module supplies the *executors* that actually run them:

* :class:`SerialExecutor` — runs every task inline in the calling thread
  (the original single-process behavior, and the default);
* :class:`ThreadExecutor` — a :class:`concurrent.futures.ThreadPoolExecutor`
  backend; tasks share the interpreter, so it preserves in-place mutation
  semantics but is limited by the GIL for pure-Python work;
* :class:`ProcessExecutor` — ``max_workers`` forked node processes; tasks
  and their inputs are pickled to them, so CPU-bound map/reduce work runs
  genuinely in parallel.  It is the zero-configuration local case of the
  cluster executor and lives next to it in :mod:`repro.cluster.client`
  (resolved lazily here, because that module builds on this one).

All backends share one contract, :meth:`Executor.run_tasks`: execute a
list of zero-argument callables and return one :class:`TaskResult` per task,
*in submission order*, with per-task wall-clock timing measured where the
task ran.  Keeping results in submission order is what lets the runtime
produce bit-identical output regardless of the backend.

Beyond the stateless contract, every backend is a **shard host** — durable,
executor-hosted state with shard-affine dispatch:

* :meth:`Executor.init_shards` builds one state object per shard from a
  picklable factory;
* :meth:`Executor.run_sharded_tasks` runs ``fn(state, payload)`` calls *where
  each shard lives* (inline for the serial backend, on the shared pool for
  the thread backend, and on the node process the shard is pinned to for
  the process and cluster backends), returning one :class:`ShardTaskResult`
  per task in submission order;
* :meth:`Executor.teardown_shards` releases the states.

Shard hosts differ only in their *transport*.  The serial and thread
backends hand payloads and results over **by reference** (``shares_memory``
is true: no copy, no bytes).  The process and cluster backends are the
*wire*: one client (:class:`~repro.cluster.client.ClusterExecutor`) and one
host (:mod:`repro.cluster.server`) that encode every payload and result
exactly once as a columnar frame (:mod:`repro.ipc.frames`), so
:class:`ShardTaskResult` carries the *measured* bytes that crossed the
process boundary — the number the BRACE runtime reports as real IPC traffic
per tick.  This is the substrate for the paper's collocation argument: a
shard's agents stay resident in its host across ticks, and only deltas
(migrations, boundary replicas, effect partials) are shipped.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.errors import ExecutorError

#: Executor kinds accepted by :func:`make_executor` and ``BraceConfig.executor``.
EXECUTOR_KINDS = ("serial", "thread", "process", "cluster")


def default_worker_count() -> int:
    """A sensible default parallelism level: the machine's CPU count."""
    return os.cpu_count() or 1


def wall_clock_imbalance(seconds: Sequence[float]) -> float:
    """Max-over-mean ratio of per-task wall-clock times (1.0 = perfectly even).

    The load-skew summary of the BRACE per-worker phase statistics.
    """
    if not seconds:
        return 1.0
    mean = sum(seconds) / len(seconds)
    if mean <= 0.0:
        return 1.0
    return max(seconds) / mean


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one executed task."""

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


def _timed_call(task: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``task`` and measure its wall-clock time where it executes.

    The timing is taken where the task runs, excluding queueing overhead.
    """
    start = time.perf_counter()
    value = task()
    return value, time.perf_counter() - start


def _timed_shard_call(fn: Callable[[Any, Any], Any], state: Any, payload: Any) -> tuple[Any, float]:
    """Run one shard task and measure the wall-clock time of its body."""
    start = time.perf_counter()
    value = fn(state, payload)
    return value, time.perf_counter() - start


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
    """Base class of the execution backends.

    Subclasses implement :meth:`run_tasks`; everything else (context-manager
    protocol, resident-shard hosting, idempotent shutdown) is shared.  The
    default shard implementation keeps states in the caller's process, which
    is correct for every memory-sharing backend; the wire executors
    (:mod:`repro.cluster.client`) override it with real per-process
    residency.
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
        """Execute every task and return per-task results in submission order."""
        raise NotImplementedError

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
        results = []
        for shard_id, fn, payload in tasks:
            value, seconds = _timed_shard_call(fn, states[shard_id], payload)
            results.append(ShardTaskResult(shard_id, value, seconds))
        return results

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


class SerialExecutor(Executor):
    """Runs every task inline in the calling thread (the default backend)."""

    name = "serial"
    shares_memory = True

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers=1)

    def run_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[TaskResult]:
        results = []
        for index, task in enumerate(tasks):
            value, seconds = _timed_call(task)
            results.append(TaskResult(index, value, seconds))
        return results


class ThreadExecutor(Executor):
    """Runs tasks on a shared, lazily created :class:`ThreadPoolExecutor`.

    Preserves in-place mutation semantics (tasks see the caller's objects),
    which makes it a drop-in parallel backend for the BRACE worker phases.
    Pure-Python work is GIL-bound, so expect overlap rather than speedup
    unless tasks release the GIL (NumPy kernels, I/O).
    """

    name = "thread"
    shares_memory = True

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="mapreduce"
            )
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().shutdown()

    def run_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[TaskResult]:
        if not tasks:
            return []
        if len(tasks) == 1:
            # One task cannot overlap with anything and has the same
            # semantics inline, so skip the pool.
            value, seconds = _timed_call(tasks[0])
            return [TaskResult(0, value, seconds)]
        futures = [self._ensure_pool().submit(_timed_call, task) for task in tasks]
        wait(futures, return_when=FIRST_EXCEPTION)
        results = []
        for index, future in enumerate(futures):
            value, seconds = future.result()
            results.append(TaskResult(index, value, seconds))
        return results

    def run_sharded_tasks(
        self,
        tasks: Sequence[tuple[int, Callable[[Any, Any], Any], Any]],
    ) -> list[ShardTaskResult]:
        """Run shard tasks on the thread pool, one serialized chain per shard.

        Grouping by shard keeps a shard's state single-threaded while
        distinct shards overlap, matching the wire backends' concurrency
        contract without copying anything.
        """
        states = self._require_shards(tasks)
        if not tasks:
            return []
        groups: dict[int, list[tuple[int, Callable, Any]]] = {}
        for index, (shard_id, fn, payload) in enumerate(tasks):
            groups.setdefault(shard_id, []).append((index, fn, payload))

        def run_group(shard_id: int, items):
            state = states[shard_id]
            out = []
            for index, fn, payload in items:
                value, seconds = _timed_shard_call(fn, state, payload)
                out.append((index, ShardTaskResult(shard_id, value, seconds)))
            return out

        pool = self._ensure_pool()
        futures = [
            pool.submit(run_group, shard_id, items) for shard_id, items in sorted(groups.items())
        ]
        wait(futures, return_when=FIRST_EXCEPTION)
        results: list[ShardTaskResult | None] = [None] * len(tasks)
        for future in futures:
            for index, result in future.result():
                results[index] = result
        return results  # type: ignore[return-value]


def make_executor(
    executor: "Executor | str | None", max_workers: int | None = None
) -> Executor:
    """Coerce a backend name (or an existing executor) into an :class:`Executor`.

    ``None`` and ``"serial"`` yield the serial backend; ``"thread"`` a
    thread pool and ``"process"`` forked node processes, each with
    ``max_workers`` parallel slots (defaulting to the CPU count).
    ``"cluster"`` yields the socket-based multi-node backend with its
    defaults — two auto-spawned localhost nodes; construct
    :class:`~repro.cluster.client.ClusterExecutor` directly (or configure
    ``BraceConfig``) for real topologies.
    """
    if isinstance(executor, Executor):
        return executor
    if executor is None or executor == "serial":
        return SerialExecutor()
    if executor == "thread":
        return ThreadExecutor(max_workers)
    if executor in ("process", "cluster"):
        from repro.cluster import client  # builds on this module: import late

        wire = client.ProcessExecutor if executor == "process" else client.ClusterExecutor
        return wire(max_workers)
    raise ExecutorError(
        f"unknown executor {executor!r}; expected one of {', '.join(EXECUTOR_KINDS)}"
    )


def __getattr__(name: str):
    # ``from repro.mapreduce.executor import ProcessExecutor`` keeps working:
    # the class is defined with the wire client, which imports this module.
    if name == "ProcessExecutor":
        from repro.cluster.client import ProcessExecutor

        return ProcessExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
