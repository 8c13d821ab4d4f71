"""The in-process executors, and the one place an executor is built.

The paper's central performance claim is that behavioral simulations scale
near-linearly when expressed as iterated map-reduce-reduce passes.  The
BRACE runtime (:mod:`repro.brace.runtime`) expresses the passes as three
shard rounds per tick; an executor is *where* the shards live.  Every
backend is a **shard host** under the contract of
:mod:`repro.core.executor` (``init_shards`` / ``run_sharded_tasks`` /
``teardown_shards``), and they differ only in their transport:

* :class:`SerialExecutor` — shards live in the caller and every task runs
  inline (the default);
* :class:`ThreadExecutor` — shards live in the caller and distinct shards
  run on a shared :class:`concurrent.futures.ThreadPoolExecutor` of
  ``max_workers`` threads;
* :class:`ProcessExecutor` and :class:`ClusterExecutor` — the *wire*: one
  client (:mod:`repro.cluster.client`) and one shard host
  (:mod:`repro.cluster.server`) on ``max_workers`` node processes, forked
  over socketpairs or dialing in over TCP.  Every payload and result is
  encoded exactly once as a columnar frame (:mod:`repro.ipc.frames`), so
  :class:`ShardTaskResult` carries the *measured* bytes that crossed the
  process boundary — the number the BRACE runtime reports as real IPC
  traffic per tick.

The serial and thread backends hand payloads and results over **by
reference** (``shares_memory`` is true: no copy, no bytes).  They also keep
:meth:`Executor.run_tasks`, a loop over zero-argument callables in
submission order; a wire node runs shard commands and nothing else.

:func:`make_executor` builds every backend from a
:class:`~repro.brace.config.BraceConfig`.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.cluster.client import ClusterExecutor, ProcessExecutor
from repro.core.executor import (
    Executor,
    ShardTaskResult,
    TaskResult,
    _shard_task,
    _timed_shard_call,
    default_worker_count,
)

if TYPE_CHECKING:
    from repro.brace.config import BraceConfig
    from repro.cluster.network import NetworkModel


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


def _timed_call(task: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``task`` and measure its wall-clock time where it executes.

    The timing is taken where the task runs, excluding queueing overhead.
    """
    start = time.perf_counter()
    value = task()
    return value, time.perf_counter() - start


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
                out.append((index, _shard_task(shard_id, fn, state, payload)))
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


def make_executor(config: BraceConfig, network: NetworkModel | None = None) -> Executor:
    """Build the executor ``config`` describes.

    ``config.max_workers`` is the number of parallel hosts: threads for
    ``"thread"``, node processes for ``"process"`` and ``"cluster"``
    (``"serial"`` has one).  Unset, it is ``min(num_workers, cpu count)``,
    or 2 nodes for ``"cluster"``.  The wire executors take their heartbeat,
    readmission and (for ``"cluster"``) listen, spawn and secret settings
    from the config; ``network`` is the model that scores shard placement
    (the stock :class:`~repro.cluster.network.NetworkModel` when ``None``).
    """
    config.validate()
    kind, hosts = config.executor, config.max_workers
    if kind == "serial":
        return SerialExecutor()
    if hosts is None:
        hosts = 2 if kind == "cluster" else min(config.num_workers, default_worker_count())
    if kind == "thread":
        return ThreadExecutor(hosts)
    options: dict[str, Any] = {
        "heartbeat_interval": config.heartbeat_interval_seconds,
        "heartbeat_timeout": config.heartbeat_timeout_seconds,
        "readmission_timeout": config.readmission_timeout_seconds,
        "network": network,
    }
    if kind == "process":
        return ProcessExecutor(hosts, **options)
    return ClusterExecutor(
        hosts,
        listen=config.cluster_listen,
        spawn=config.cluster_spawn,
        secret=config.cluster_secret,
        **options,
    )
