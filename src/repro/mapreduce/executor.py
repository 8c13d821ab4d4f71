"""Pluggable parallel execution backends for the MapReduce engine.

The paper's central performance claim is that behavioral simulations scale
near-linearly when expressed as iterated map-reduce-reduce passes.  The
engine in :mod:`repro.mapreduce.engine` expresses the passes; this module
supplies the *executors* that actually run the map and reduce tasks:

* :class:`SerialExecutor` — runs every task inline in the calling thread
  (the original single-process behavior, and the default);
* :class:`ThreadExecutor` — a :class:`concurrent.futures.ThreadPoolExecutor`
  backend; tasks share the interpreter, so it preserves in-place mutation
  semantics but is limited by the GIL for pure-Python work;
* :class:`ProcessExecutor` — a
  :class:`concurrent.futures.ProcessPoolExecutor` backend; tasks and their
  inputs are pickled to worker processes, so CPU-bound map/reduce work runs
  genuinely in parallel.

All three backends share one contract, :meth:`Executor.run_tasks`: execute a
list of zero-argument callables and return one :class:`TaskResult` per task,
*in submission order*, with per-task wall-clock timing measured where the
task ran.  Keeping results in submission order is what lets the engine
produce bit-identical output regardless of the backend.

Beyond the stateless contract, every backend is a **shard host** — durable,
executor-hosted state with shard-affine dispatch:

* :meth:`Executor.init_shards` builds one state object per shard from a
  picklable factory;
* :meth:`Executor.run_sharded_tasks` runs ``fn(state, payload)`` calls *where
  each shard lives* (inline for the serial backend, on the shared pool for
  the thread backend, and pinned to a dedicated pool process for the process
  backend), returning one :class:`ShardTaskResult` per task in submission
  order;
* :meth:`Executor.teardown_shards` releases the states (and, for the process
  backend, the host processes).

Shard hosts differ only in their *transport*.  The serial and thread
backends hand payloads and results over **by reference** (``shares_memory``
is true: no copy, no bytes).  The process backend encodes every payload and
result exactly once as a columnar frame (:mod:`repro.ipc.frames`), so
:class:`ShardTaskResult` carries the *measured* bytes that crossed the
process boundary — the number the BRACE runtime reports as real IPC traffic
per tick.  This is the substrate for the paper's collocation argument: a
shard's agents stay resident in its host across ticks, and only deltas
(migrations, boundary replicas, effect partials) are shipped.

The module also provides :func:`stable_hash_partition`, a deterministic
(process-independent) hash partitioner used for the parallel shuffle.
Python's builtin ``hash`` is salted per interpreter for strings, so it would
assign keys to different reduce partitions in different worker processes;
CRC-32 over ``repr(key)`` is stable everywhere.
"""

from __future__ import annotations

import os
import pickle
import time
import zlib
from concurrent.futures import FIRST_EXCEPTION, Future, ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Sequence

from repro.core.errors import ExecutorError
from repro.ipc.frames import ColumnarCodec

#: Executor kinds accepted by :func:`make_executor` and ``BraceConfig.executor``.
EXECUTOR_KINDS = ("serial", "thread", "process", "cluster")


def stable_hash_partition(key: Hashable, num_partitions: int) -> int:
    """Deterministically assign ``key`` to one of ``num_partitions`` buckets.

    Uses CRC-32 of ``repr(key)`` so the assignment is identical across
    interpreter instances and worker processes (unlike the salted builtin
    ``hash``).
    """
    if num_partitions <= 1:
        return 0
    data = repr(key).encode("utf-8", "backslashreplace")
    return zlib.crc32(data) % num_partitions


def default_worker_count() -> int:
    """A sensible default parallelism level: the machine's CPU count."""
    return os.cpu_count() or 1


def available_parallelism() -> int:
    """CPUs this process may actually run on (affinity-aware).

    Scheduling decisions like comm/compute overlap key off this rather than
    the raw CPU count: inside a restricted cpuset the extra concurrency only
    buys context switches.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def wall_clock_imbalance(seconds: Sequence[float]) -> float:
    """Max-over-mean ratio of per-task wall-clock times (1.0 = perfectly even).

    The load-skew summary shared by the MapReduce task statistics and the
    BRACE per-worker phase statistics.
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
    time spent moving the encoded bytes (shared-memory parking/mapping; the
    pool pipe's copy cost is not separately observable and folds into wait
    time at the caller).
    """

    shard_id: int        #: Shard the task ran against.
    value: Any           #: The task function's return value.
    wall_seconds: float  #: Wall-clock time of the task body, where it ran.
    payload_bytes: int = 0  #: Encoded payload size shipped to the shard.
    result_bytes: int = 0   #: Encoded result size shipped back.
    serialize_seconds: float = 0.0  #: Encode + decode time, both ends.
    transport_seconds: float = 0.0  #: Shared-memory write/map time, both ends.


def _timed_call(task: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``task`` and measure its wall-clock time where it executes.

    Module-level so the :class:`ProcessExecutor` can pickle it; the timing is
    taken inside the worker, excluding queueing and serialization overhead.
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
    is correct for every memory-sharing backend; :class:`ProcessExecutor`
    overrides it with real per-process residency.
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
        live*; on the process backend both the factory and the payload must
        be picklable.  Shards stay alive across :meth:`run_sharded_tasks`
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


class _PooledExecutor(Executor):
    """Shared machinery of the thread and process backends (lazy pool reuse)."""

    shares_memory = True

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool = None

    def _make_pool(self):
        raise NotImplementedError

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().shutdown()

    def run_tasks(self, tasks: Sequence[Callable[[], Any]]) -> list[TaskResult]:
        if not tasks:
            return []
        if len(tasks) == 1 and self.shares_memory:
            # One thread-pool task cannot overlap with anything and has the
            # same semantics inline, so skip the pool.  The process backend
            # must NOT shortcut: its pickling contract (and isolation) has to
            # hold for one task exactly as for many.
            value, seconds = _timed_call(tasks[0])
            return [TaskResult(0, value, seconds)]
        pool = self._ensure_pool()
        futures: list[Future] = [pool.submit(_timed_call, task) for task in tasks]
        wait(futures, return_when=FIRST_EXCEPTION)
        results = []
        for index, future in enumerate(futures):
            try:
                value, seconds = future.result()
            # A worker that dies deserializing a task (e.g. the task's
            # function lives in a __main__ the child cannot re-import) takes
            # the whole pool down.  Drop the broken pool so the next call
            # starts fresh, and explain the likely cause.
            except BrokenProcessPool as error:
                self._pool = None
                raise ExecutorError(
                    f"a {self.name} executor worker died while receiving a task "
                    "(most often the task's function could not be re-imported in "
                    "the worker process — define map/reduce functions in an "
                    "importable module, not in __main__ or a REPL). "
                    f"Original error: {error}"
                ) from error
            # Only the process backend pickles tasks, and only errors that
            # actually stem from pickling are classified (see
            # _is_pickling_error), so a genuine AttributeError/TypeError
            # raised *inside* a task passes through.
            except (pickle.PickleError, AttributeError, TypeError) as error:
                if self.shares_memory or not _is_pickling_error(error):
                    raise
                for pending in futures:
                    pending.cancel()
                raise ExecutorError(
                    f"the {self.name} executor could not serialize a task: {error}. "
                    "Map/reduce functions and the records flowing through them must "
                    "be picklable (module-level functions or classes); use the "
                    "serial or thread executor for closures and dynamic classes."
                ) from error
            results.append(TaskResult(index, value, seconds))
        return results


class ThreadExecutor(_PooledExecutor):
    """Runs tasks on a shared :class:`ThreadPoolExecutor`.

    Preserves in-place mutation semantics (tasks see the caller's objects),
    which makes it a drop-in parallel backend for the BRACE worker phases.
    Pure-Python work is GIL-bound, so expect overlap rather than speedup
    unless tasks release the GIL (NumPy kernels, I/O).
    """

    name = "thread"
    shares_memory = True

    def _make_pool(self):
        return ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="mapreduce"
        )

    def run_sharded_tasks(
        self,
        tasks: Sequence[tuple[int, Callable[[Any, Any], Any], Any]],
    ) -> list[ShardTaskResult]:
        """Run shard tasks on the thread pool, one serialized chain per shard.

        Grouping by shard keeps a shard's state single-threaded while
        distinct shards overlap, matching the process backend's concurrency
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


# ---------------------------------------------------------------------------
# Resident-shard host machinery (runs inside the process backend's workers).
# ---------------------------------------------------------------------------

#: Per-process registry of resident shard states, keyed by shard id.  Each
#: host process of a :class:`ProcessExecutor` owns a disjoint subset of the
#: shards; the registry lives for the lifetime of the host process, which is
#: exactly what makes the shards "resident".
_RESIDENT_SHARD_STATES: dict[int, Any] = {}


def _host_init_shards(items: list, codec) -> int:
    """Build shard states inside a host process; returns the host's pid.

    ``items`` is a list of ``(shard_id, factory, payload_blob)`` with the
    payload pre-encoded by the driver's ``codec`` (so serialization happens
    exactly once and its size can be measured there).
    """
    for shard_id, factory, blob in items:
        _RESIDENT_SHARD_STATES[shard_id] = factory(shard_id, codec.decode(blob))
    return os.getpid()


def _host_shard_state(shard_id: int):
    """The resident state for ``shard_id`` in this host process, or raise."""
    try:
        return _RESIDENT_SHARD_STATES[shard_id]
    except KeyError:
        raise ExecutorError(
            f"resident shard {shard_id!r} is not initialized in this host process"
        ) from None


def _host_run_framed_task(codec, shard_id: int, fn, frame, release_names, use_shm: bool):
    """Run one columnar-framed shard task inside its host process.

    ``frame`` is either a :class:`repro.ipc.transport.FrameToken` naming a
    driver-owned shared-memory segment or raw blob bytes (pipe fallback).
    ``release_names`` returns this host's *result* segments from earlier
    rounds to its pool — the driver piggybacks them on the next submission,
    which is what makes the segment lifecycle double-buffered.  Returns
    ``(result_ref, result_bytes, wall_seconds, codec_seconds, shm_seconds)``
    where ``result_ref`` is a token into this host's own segment pool when
    shared memory is usable, else the encoded blob itself.
    """
    from repro.ipc import transport as ipc_transport

    if release_names:
        ipc_transport.release_process_segments(release_names)
    state = _host_shard_state(shard_id)
    shm_seconds = 0.0
    start = time.perf_counter()
    if isinstance(frame, ipc_transport.FrameToken):
        view = ipc_transport.process_cache().view(frame)
        shm_seconds = time.perf_counter() - start
        start = time.perf_counter()
        try:
            payload = codec.decode(view)
        finally:
            view.release()
    else:
        payload = codec.decode(frame)
    codec_seconds = time.perf_counter() - start
    value, seconds = _timed_shard_call(fn, state, payload)
    start = time.perf_counter()
    blob = codec.encode(value)
    codec_seconds += time.perf_counter() - start
    result_ref = blob
    if use_shm and ipc_transport.shm_available():
        start = time.perf_counter()
        try:
            result_ref = ipc_transport.process_pool().write(blob)
        except OSError:  # no room in /dev/shm: the pipe still works
            result_ref = blob
        shm_seconds += time.perf_counter() - start
    return result_ref, len(blob), seconds, codec_seconds, shm_seconds


def _host_close_transport() -> int:
    """Tear down a host's shared-memory transport; returns the host's pid.

    Runs as the last task on each host before executor teardown so the
    host's own result segments are unlinked by their creating process.
    """
    from repro.ipc import transport as ipc_transport

    ipc_transport.close_process_transport()
    return os.getpid()


class ProcessExecutor(_PooledExecutor):
    """Runs tasks on a shared :class:`ProcessPoolExecutor`.

    Tasks, their inputs and their results cross process boundaries by
    pickling; a task that cannot be pickled raises :class:`ExecutorError`
    with a pointer at the offending pattern.  The pool is created lazily and
    reused across calls so repeated jobs (one per simulation tick) amortize
    the worker start-up cost.

    Resident shards get *real* process affinity: :meth:`init_shards` creates
    dedicated single-worker host pools and assigns each shard to one host for
    its whole lifetime, so shard state built there never moves.  Every
    payload and result is encoded exactly once as a columnar frame (whatever
    the columns cannot carry rides in the codec's pickle escape column), and
    the measured sizes are reported on each :class:`ShardTaskResult` — the
    actual bytes on the wire.
    """

    name = "process"
    shares_memory = False

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._shard_hosts: list[ProcessPoolExecutor] | None = None
        self._shard_to_host: dict[int, int] = {}
        self._host_pids: dict[int, int] = {}
        self._codec = ColumnarCodec()
        #: Ship each frame as soon as it is encoded so hosts decode and
        #: compute while later frames still serialize.  Overlap only helps
        #: when driver and hosts can actually run simultaneously; on a
        #: single-CPU machine the eager submissions just add context
        #: switches, so it stays off there.
        self._overlap = available_parallelism() > 1
        self._shm_pool = None   # driver-owned command segments (lazily built)
        self._shm_cache = None  # driver attachments to host result segments
        self._host_release: dict[int, list[str]] = {}

    def _make_pool(self):
        return ProcessPoolExecutor(max_workers=self.max_workers)

    # ------------------------------------------------------------------
    # Resident shards with process affinity
    # ------------------------------------------------------------------
    def init_shards(
        self,
        factory: Callable[[int, Any], Any],
        payloads: dict[int, Any],
    ) -> None:
        if self._shard_hosts is not None:
            raise ExecutorError(
                "resident shards are already initialized; call teardown_shards() first"
            )
        if not payloads:
            raise ExecutorError("init_shards needs at least one shard payload")
        shard_ids = sorted(payloads)
        num_hosts = max(1, min(self.max_workers, len(shard_ids)))
        self._shard_hosts = [ProcessPoolExecutor(max_workers=1) for _ in range(num_hosts)]
        self._shard_to_host = {
            shard_id: position % num_hosts for position, shard_id in enumerate(shard_ids)
        }
        per_host: dict[int, list] = {}
        try:
            for shard_id in shard_ids:
                blob = self._encode(payloads[shard_id], "resident shard seed")
                per_host.setdefault(self._shard_to_host[shard_id], []).append(
                    (shard_id, factory, blob)
                )
            futures = {
                host: self._shard_hosts[host].submit(_host_init_shards, items, self._codec)
                for host, items in sorted(per_host.items())
            }
            wait(list(futures.values()), return_when=FIRST_EXCEPTION)
            for host, future in sorted(futures.items()):
                self._host_pids[host] = self._shard_result(future)
        except BaseException:
            self.teardown_shards()
            raise

    def has_shards(self) -> bool:
        return self._shard_hosts is not None

    def run_sharded_tasks(
        self,
        tasks: Sequence[tuple[int, Callable[[Any, Any], Any], Any]],
    ) -> list[ShardTaskResult]:
        """Ship each task to its shard's host as one columnar frame.

        With shared memory the frame parks in a driver-owned pooled segment
        and only a tiny token crosses the pipe; hosts return their results
        the same way (tokens into host-owned pools), and each side's
        segments recycle — command segments when their round's future
        completes, result segments via the release list piggybacked on the
        host's next task.  With more than one CPU each task is submitted
        the moment its frame is encoded, so hosts decode and compute while
        the driver is still encoding later frames.
        """
        if self._shard_hosts is None:
            raise ExecutorError("no resident shards are initialized; call init_shards() first")
        if not tasks:
            return []
        from repro.ipc import transport as ipc_transport

        use_shm = ipc_transport.shm_available()
        if use_shm and self._shm_pool is None:
            self._shm_pool = ipc_transport.SegmentPool()
            self._shm_cache = ipc_transport.SegmentCache()
        pending: list = []
        for index, (shard_id, fn, payload) in enumerate(tasks):
            host = self._shard_to_host.get(shard_id)
            if host is None:
                raise ExecutorError(f"unknown resident shard {shard_id!r}")
            start = time.perf_counter()
            blob = self._encode(payload, "resident shard payload")
            encode_seconds = time.perf_counter() - start
            token = None
            shm_seconds = 0.0
            if use_shm:
                start = time.perf_counter()
                try:
                    token = self._shm_pool.write(blob)
                except OSError:  # no room in /dev/shm: the pipe still works
                    token = None
                shm_seconds = time.perf_counter() - start
            entry = {
                "index": index,
                "shard_id": shard_id,
                "host": host,
                "fn": fn,
                "frame": token if token is not None else blob,
                "token": token,
                "payload_bytes": len(blob),
                "serialize": encode_seconds,
                "transport": shm_seconds,
                "future": None,
            }
            if self._overlap:
                self._submit_framed(entry, use_shm)
            pending.append(entry)
        for entry in pending:
            if entry["future"] is None:
                self._submit_framed(entry, use_shm)
        wait([entry["future"] for entry in pending], return_when=FIRST_EXCEPTION)
        results: list[ShardTaskResult | None] = [None] * len(tasks)
        for entry in pending:
            result_ref, result_bytes, seconds, host_codec, host_shm = self._shard_result(
                entry["future"]
            )
            start = time.perf_counter()
            if isinstance(result_ref, ipc_transport.FrameToken):
                view = self._shm_cache.view(result_ref)
                shm_seconds = time.perf_counter() - start
                start = time.perf_counter()
                try:
                    value = self._codec.decode(view)
                finally:
                    view.release()
                decode_seconds = time.perf_counter() - start
                self._host_release.setdefault(entry["host"], []).append(result_ref.name)
            else:
                value = self._codec.decode(result_ref)
                decode_seconds = time.perf_counter() - start
                shm_seconds = 0.0
            if entry["token"] is not None:
                # The host consumed the command frame before its future
                # resolved, so the segment can host next round's command.
                self._shm_pool.release(entry["token"].name)
            results[entry["index"]] = ShardTaskResult(
                entry["shard_id"],
                value,
                seconds,
                payload_bytes=entry["payload_bytes"],
                result_bytes=result_bytes,
                serialize_seconds=entry["serialize"] + host_codec + decode_seconds,
                transport_seconds=entry["transport"] + host_shm + shm_seconds,
            )
        return results  # type: ignore[return-value]

    def _submit_framed(self, entry: dict, use_shm: bool) -> None:
        host = entry["host"]
        release_names = self._host_release.pop(host, [])
        entry["future"] = self._shard_hosts[host].submit(
            _host_run_framed_task,
            self._codec,
            entry["shard_id"],
            entry["fn"],
            entry["frame"],
            release_names,
            use_shm,
        )

    def shard_host_pid(self, shard_id: int) -> int:
        """Pid of the host process a shard is pinned to (affinity probe)."""
        if self._shard_hosts is None:
            raise ExecutorError("no resident shards are initialized")
        return self._host_pids[self._shard_to_host[shard_id]]

    def teardown_shards(self) -> None:
        hosts, self._shard_hosts = self._shard_hosts, None
        self._shard_to_host = {}
        self._host_pids = {}
        self._host_release = {}
        if self._shm_cache is not None:
            # Drop driver attachments before the hosts unlink their segments.
            self._shm_cache.close()
            self._shm_cache = None
        if hosts:
            for host in hosts:
                try:
                    host.submit(_host_close_transport).result(timeout=30)
                except Exception:
                    pass  # a broken host cannot clean up; nothing to do
                host.shutdown(wait=True)
        if self._shm_pool is not None:
            self._shm_pool.close()
            self._shm_pool = None

    def _shard_result(self, future: Future):
        """Unwrap a host future, converting infrastructure failures.

        A dead host process takes its resident shard states with it, so the
        hosts are torn down and the caller must re-seed (for BRACE: restore a
        checkpoint and re-initialize the shards).
        """
        try:
            return future.result()
        except BrokenProcessPool as error:
            self.teardown_shards()
            raise ExecutorError(
                "a resident shard host process died; its shard state is lost and "
                "must be re-seeded (for BRACE runs: recover from the last "
                f"checkpoint). Original error: {error}"
            ) from error
        except (pickle.PickleError, AttributeError, TypeError) as error:
            if not _is_pickling_error(error):
                raise
            self.teardown_shards()
            raise ExecutorError(
                f"the {self.name} executor could not serialize a shard task: {error}. "
                "Shard factories, task functions and payloads must be picklable "
                "(module-level functions and importable classes)."
            ) from error

    def _encode(self, value: Any, what: str) -> bytes:
        """Encode ``value`` as one columnar frame, classifying failures."""
        try:
            return self._codec.encode(value)
        except (pickle.PickleError, AttributeError, TypeError) as error:
            if not _is_pickling_error(error):
                raise
            raise ExecutorError(
                f"the process executor could not serialize a {what}: {error}. "
                "Everything crossing the shard boundary must be picklable "
                "(module-level functions and importable classes; dynamic classes "
                "need a __reduce__ hook)."
            ) from error


def make_executor(
    executor: "Executor | str | None", max_workers: int | None = None
) -> Executor:
    """Coerce a backend name (or an existing executor) into an :class:`Executor`.

    ``None`` and ``"serial"`` yield the serial backend; ``"thread"`` and
    ``"process"`` yield the pooled backends with ``max_workers`` parallel
    slots (defaulting to the CPU count).  ``"cluster"`` yields the
    socket-based multi-node backend (:mod:`repro.cluster.client`) with its
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
    if executor == "process":
        return ProcessExecutor(max_workers)
    if executor == "cluster":
        from repro.cluster.client import ClusterExecutor

        return ClusterExecutor(max_workers)
    raise ExecutorError(
        f"unknown executor {executor!r}; expected one of {', '.join(EXECUTOR_KINDS)}"
    )
