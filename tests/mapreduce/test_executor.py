"""Tests for how executors are built, and the in-process task loop.

The contract under test: ``make_executor`` builds every backend from a
``BraceConfig`` with one host count, ``max_workers`` (threads for
``thread``, node processes for ``process`` and ``cluster``), whose unset
default is pinned per executor; ``ProcessExecutor`` is a plain import in
either import order; and the memory-sharing backends' ``run_tasks`` returns
results in submission order with per-task timing (a word count run as a map
batch and a reduce batch comes out identical on serial and thread), task
errors surface with their original type, and executor failures are
MapReduce errors.  A wire executor runs shard rounds only; the shard-host
half of the contract has its own suite, ``test_shard_contract.py``.
"""

import os
import subprocess
import sys
import threading
from collections import defaultdict
from functools import partial

import pytest

import repro.mapreduce
import repro.mapreduce.executor
from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.core.errors import BraceError, ExecutorError, MapReduceError
from repro.mapreduce.executor import (
    ClusterExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_worker_count,
    make_executor,
    wall_clock_imbalance,
)
from tests.conftest import make_boid_world

BACKENDS = ["serial", "thread"]


class TestExecutorBasics:
    @pytest.mark.parametrize(
        "kind, cls",
        [
            ("serial", SerialExecutor),
            ("thread", ThreadExecutor),
            ("process", ProcessExecutor),
            ("cluster", ClusterExecutor),
        ],
    )
    def test_make_executor_kinds(self, kind, cls):
        # Wire nodes start at the first round, so building one starts none.
        with make_executor(BraceConfig(executor=kind, max_workers=2)) as executor:
            assert type(executor) is cls

    def test_make_executor_rejects_unknown(self):
        with pytest.raises(BraceError, match="unknown executor"):
            make_executor(BraceConfig(executor="quantum"))

    def test_serial_executor_is_single_slot(self):
        assert SerialExecutor(max_workers=8).max_workers == 1

    def test_run_tasks_preserves_submission_order(self):
        with ThreadExecutor(max_workers=4) as executor:
            results = executor.run_tasks(
                [(lambda value=value: value * 10) for value in range(16)]
            )
        assert [result.value for result in results] == [value * 10 for value in range(16)]
        assert [result.index for result in results] == list(range(16))

    def test_task_timing_recorded(self):
        results = SerialExecutor().run_tasks([lambda: sum(range(1000))])
        assert results[0].wall_seconds >= 0.0

    def test_executor_error_is_a_mapreduce_error(self):
        assert issubclass(ExecutorError, MapReduceError)


class TestHostCount:
    """One host count, ``max_workers``, with a pinned default per executor."""

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_unset_count_is_min_of_workers_and_cpus(self, kind):
        for num_workers in (1, 64):
            config = BraceConfig(num_workers=num_workers, executor=kind)
            with make_executor(config) as executor:
                assert executor.max_workers == min(num_workers, default_worker_count())

    def test_unset_count_is_one_for_serial(self):
        with make_executor(BraceConfig(num_workers=8)) as executor:
            assert executor.max_workers == 1

    def test_unset_count_is_two_nodes_for_cluster(self):
        with make_executor(BraceConfig(num_workers=8, executor="cluster")) as executor:
            assert executor.max_workers == 2

    def test_an_explicit_count_sets_the_cluster_node_count(self):
        with make_executor(BraceConfig(executor="cluster", max_workers=3)) as executor:
            assert executor.max_workers == 3

    def test_with_nodes_and_with_executor_write_the_same_field(self):
        world = make_boid_world(4)
        by_nodes = Simulation.from_agents(world).with_executor("cluster").with_nodes(3)
        by_executor = Simulation.from_agents(world).with_executor("cluster", max_workers=3)
        assert by_nodes.config.max_workers == by_executor.config.max_workers == 3

    def test_with_nodes_forks_that_many_process_nodes(self):
        session = (
            Simulation.from_agents(make_boid_world(12))
            .with_workers(3)
            .with_executor("process")
            .with_nodes(3)
        )
        with session:
            session.run(1)
            pids = session.runtime.executor.node_pids()
        assert len(pids) == 3 and len(set(pids.values())) == 3


class TestImports:
    """``ProcessExecutor`` is a plain import: no module ``__getattr__``."""

    @pytest.mark.parametrize(
        "first, second",
        [
            ("repro.cluster.client", "repro.mapreduce.executor"),
            ("repro.mapreduce.executor", "repro.cluster.client"),
        ],
    )
    def test_either_import_order_works_in_a_fresh_interpreter(self, first, second):
        script = (
            f"import {first}, {second}, repro.mapreduce\n"
            "from repro.mapreduce.executor import "
            "Executor, ProcessExecutor, SerialExecutor, ThreadExecutor\n"
            "assert repro.mapreduce.ProcessExecutor is repro.cluster.client.ProcessExecutor\n"
            "assert ProcessExecutor is repro.cluster.client.ProcessExecutor\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))}
        subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=120)

    @pytest.mark.parametrize("module", [repro.mapreduce, repro.mapreduce.executor])
    def test_no_module_getattr(self, module):
        assert "__getattr__" not in vars(module)


# Module-level task bodies.
def word_count_map(line):
    return [(word, 1) for word in line.split()]


def word_count_reduce(word, counts):
    return (word, sum(counts))


def identity(value):
    return value


def raise_key_error(name):
    raise KeyError(name)


WORD_COUNT_INPUT = [
    "the quick brown fox",
    "the lazy dog",
    "the quick dog jumps",
    "fox and dog and fox",
]

EXPECTED_COUNTS = [
    ("and", 2), ("brown", 1), ("dog", 3), ("fox", 3),
    ("jumps", 1), ("lazy", 1), ("quick", 2), ("the", 3),
]


@pytest.fixture(scope="module", params=BACKENDS)
def backend(request):
    executor = make_executor(BraceConfig(executor=request.param, max_workers=2))
    yield executor
    executor.shutdown()


def map_reduce(executor, lines):
    """One map pass and one reduce pass as two ``run_tasks`` batches."""
    mapped = executor.run_tasks([partial(word_count_map, line) for line in lines])
    groups = defaultdict(list)
    for result in mapped:
        for word, count in result.value:
            groups[word].append(count)
    reduced = executor.run_tasks(
        [partial(word_count_reduce, word, groups[word]) for word in sorted(groups)]
    )
    return mapped, [result.value for result in reduced]


class TestBackendEquivalence:
    """Results come back intact and in submission order."""

    def test_word_count_identical_across_backends(self, backend):
        _mapped, output = map_reduce(backend, WORD_COUNT_INPUT)
        assert output == EXPECTED_COUNTS

    def test_two_pass_job_identical_across_backends(self, backend):
        # A second reduce pass over the first one's output, on the same
        # executor: consecutive batches must not leak results into each other.
        _mapped, first = map_reduce(backend, WORD_COUNT_INPUT)
        second = backend.run_tasks(
            [partial(word_count_reduce, "total", [count for _word, count in first])]
        )
        assert [result.value for result in second] == [("total", 16)]
        _mapped, again = map_reduce(backend, WORD_COUNT_INPUT[:1])
        assert again == [("brown", 1), ("fox", 1), ("quick", 1), ("the", 1)]

    def test_statistics_equivalent_across_backends(self, backend):
        mapped, _output = map_reduce(backend, WORD_COUNT_INPUT)
        assert [result.index for result in mapped] == [0, 1, 2, 3]
        assert sum(len(result.value) for result in mapped) == 16
        assert all(result.wall_seconds >= 0.0 for result in mapped)

    def test_empty_batch_returns_no_results(self, backend):
        assert backend.run_tasks([]) == []


class TestTaskErrors:
    def test_task_error_surfaces_original_type(self, backend):
        with pytest.raises(KeyError, match="missing-word"):
            backend.run_tasks([partial(identity, 1), partial(raise_key_error, "missing-word")])
        # The executor survives a failed batch.
        assert [result.value for result in backend.run_tasks([partial(identity, 2)])] == [2]


class TestTaskAccounting:
    def test_map_and_reduce_tasks_recorded(self):
        with ThreadExecutor(max_workers=2) as executor:
            mapped, output = map_reduce(executor, WORD_COUNT_INPUT)
        assert executor.name == "thread"
        assert output == EXPECTED_COUNTS
        seconds = [result.wall_seconds for result in mapped]
        assert len(seconds) == 4
        assert all(value >= 0.0 for value in seconds)
        assert wall_clock_imbalance(seconds) >= 1.0


class TestWallClockImbalance:
    @pytest.mark.parametrize(
        "seconds, expected",
        [([], 1.0), ([0.0, 0.0], 1.0), ([2.0, 2.0, 2.0], 1.0), ([1.0, 3.0], 1.5)],
        ids=["empty", "all-zero", "even", "skewed"],
    )
    def test_max_over_mean(self, seconds, expected):
        assert wall_clock_imbalance(seconds) == pytest.approx(expected)


class TestWorkerCount:
    @pytest.mark.parametrize("cls", [ThreadExecutor, ProcessExecutor])
    def test_zero_workers_rejected(self, cls):
        with pytest.raises(ExecutorError, match="max_workers"):
            cls(0)

    def test_default_is_the_cpu_count(self):
        assert ThreadExecutor().max_workers == default_worker_count() >= 1


class TestThreadExecutorPool:
    def test_single_task_runs_inline_without_a_pool(self):
        executor = ThreadExecutor(max_workers=2)
        (result,) = executor.run_tasks([threading.current_thread])
        assert result.value is threading.current_thread()
        assert executor._pool is None

    def test_shutdown_is_idempotent_and_the_pool_comes_back(self):
        executor = ThreadExecutor(max_workers=2)
        pair = [partial(identity, 1), partial(identity, 2)]
        assert [result.value for result in executor.run_tasks(pair)] == [1, 2]
        executor.shutdown()
        executor.shutdown()
        assert executor._pool is None
        assert [result.value for result in executor.run_tasks(pair)] == [1, 2]
        executor.shutdown()
