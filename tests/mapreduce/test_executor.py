"""Tests for the stateless half of the executor contract.

The contract under test: ``make_executor`` resolves every backend name,
``run_tasks`` returns results in submission order with per-task timing on
every backend (a word count run as a map batch and a reduce batch comes out
identical on serial, thread and process), task errors surface with their
original type, and executor failures are MapReduce errors.  The resident-shard half of the
contract has its own suite, ``test_shard_contract.py``.
"""

import threading
from collections import defaultdict
from functools import partial

import pytest

from repro.core.errors import ExecutorError, MapReduceError
from repro.mapreduce.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_worker_count,
    make_executor,
    wall_clock_imbalance,
)

BACKENDS = ["serial", "thread", "process"]


class TestExecutorBasics:
    def test_make_executor_kinds(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("thread", 2), ThreadExecutor)
        assert isinstance(make_executor("process", 2), ProcessExecutor)

    def test_make_executor_passthrough(self):
        executor = SerialExecutor()
        assert make_executor(executor) is executor

    def test_make_executor_rejects_unknown(self):
        with pytest.raises(MapReduceError):
            make_executor("quantum")

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


# Module-level task bodies: the process backend pickles them by name.
def word_count_map(line):
    return [(word, 1) for word in line.split()]


def word_count_reduce(word, counts):
    return (word, sum(counts))


def identity(value):
    return value


def raise_key_error(name):
    raise KeyError(name)


def raise_type_error(message):
    raise TypeError(message)


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
    executor = make_executor(request.param, max_workers=2)
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
    """Results cross every backend intact and in submission order."""

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

    def test_genuine_type_error_is_not_reported_as_pickling(self, backend):
        # Only errors that talk about pickling become ExecutorErrors; a
        # TypeError raised by the task body itself passes through unchanged.
        with pytest.raises(TypeError, match="bad operand") as raised:
            backend.run_tasks([partial(raise_type_error, "bad operand")])
        assert not isinstance(raised.value, ExecutorError)


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
    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_zero_workers_rejected(self, kind):
        with pytest.raises(ExecutorError, match="max_workers"):
            make_executor(kind, 0)

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
