"""Tests for the pluggable executor backends of the MapReduce engine.

The contract under test: a job produces *bit-identical* output and
equivalent statistics on every backend, per-task accounting is recorded, and
the process backend fails loudly (not mysteriously) on unpicklable tasks.
The resident-shard half of the executor contract has its own suite,
``test_shard_contract.py``.
"""

import pytest

from repro.core.errors import ExecutorError, MapReduceError
from repro.mapreduce.engine import MapReduceEngine, MapReduceJob, MapReduceReduceJob
from repro.mapreduce.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    stable_hash_partition,
)
from repro.mapreduce.simulation_job import LocalEffectSimulationJob
from repro.simulations.traffic.vehicle import Vehicle
from repro.simulations.traffic.workload import build_traffic_world
from repro.spatial.partitioning import StripPartitioning

BACKENDS = ["serial", "thread", "process"]


# Module-level map/reduce functions: picklable for the process backend.
def word_count_map(_key, line):
    return [(word, 1) for word in line.split()]


def word_count_reduce(word, counts):
    return [(word, sum(counts))]


WORD_COUNT_INPUT = [
    (0, "the quick brown fox"),
    (1, "the lazy dog"),
    (2, "the quick dog jumps"),
    (3, "fox and dog and fox"),
]


@pytest.fixture(params=BACKENDS)
def engine(request):
    engine = MapReduceEngine(executor=make_executor(request.param, max_workers=2))
    yield engine
    engine.shutdown()


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


class TestStableHashPartition:
    def test_in_range_and_deterministic(self):
        keys = ["a", "b", 17, (3, "x"), None]
        for key in keys:
            bucket = stable_hash_partition(key, 4)
            assert 0 <= bucket < 4
            assert bucket == stable_hash_partition(key, 4)

    def test_single_partition(self):
        assert stable_hash_partition("anything", 1) == 0

    def test_spreads_keys(self):
        buckets = {stable_hash_partition(key, 8) for key in range(100)}
        assert len(buckets) > 1


class TestBackendEquivalence:
    def test_word_count_identical_across_backends(self, engine):
        output = engine.run(MapReduceJob(word_count_map, word_count_reduce), WORD_COUNT_INPUT)
        serial_engine = MapReduceEngine()
        expected = serial_engine.run(
            MapReduceJob(word_count_map, word_count_reduce), WORD_COUNT_INPUT
        )
        assert [pair.as_tuple() for pair in output] == [pair.as_tuple() for pair in expected]

    def test_statistics_equivalent_across_backends(self, engine):
        engine.run(MapReduceJob(word_count_map, word_count_reduce), WORD_COUNT_INPUT)
        statistics = engine.last_statistics
        assert statistics.map_input_pairs == 4
        assert statistics.map_output_pairs == 16
        assert statistics.shuffle.pairs == 16
        assert statistics.reduce_output_pairs == statistics.shuffle.distinct_keys

    def test_two_pass_job_identical_across_backends(self, engine):
        job = MapReduceReduceJob(
            word_count_map,
            word_count_reduce,
            word_count_reduce,
        )
        output = engine.run(job, WORD_COUNT_INPUT)
        expected = MapReduceEngine().run(job, WORD_COUNT_INPUT)
        assert [pair.as_tuple() for pair in output] == [pair.as_tuple() for pair in expected]


class TestCombiner:
    def test_combiner_cuts_shuffle_traffic_without_changing_output(self, engine):
        plain = MapReduceJob(word_count_map, word_count_reduce)
        combined = MapReduceJob(
            word_count_map, word_count_reduce, combiner_fn=word_count_reduce
        )
        expected = MapReduceEngine().run(plain, WORD_COUNT_INPUT)
        output = engine.run(combined, WORD_COUNT_INPUT)
        assert [pair.as_tuple() for pair in output] == [pair.as_tuple() for pair in expected]
        statistics = engine.last_statistics
        assert statistics.combined_pairs > 0
        # The shuffle moved only the combined pairs, not the raw emissions.
        assert statistics.shuffle.pairs == statistics.map_output_pairs - statistics.combined_pairs


class TestTaskAccounting:
    def test_map_and_reduce_tasks_recorded(self):
        with ThreadExecutor(max_workers=2) as executor:
            engine = MapReduceEngine(executor=executor)
            engine.run(MapReduceJob(word_count_map, word_count_reduce), WORD_COUNT_INPUT)
            statistics = engine.last_statistics
        assert statistics.executor == "thread"
        assert 1 <= statistics.map_task_count <= 4
        assert 1 <= statistics.reduce_partition_count <= 2
        assert sum(task.pairs_in for task in statistics.map_tasks) == 4
        assert all(task.wall_seconds >= 0.0 for task in statistics.map_tasks)
        assert sum(task.pairs_out for task in statistics.reduce_partitions) == (
            statistics.reduce_output_pairs
        )
        assert statistics.map_imbalance >= 1.0
        assert statistics.reduce_imbalance >= 1.0


class TestSimulationJobAcrossBackends:
    """The Appendix A formal jobs must agree bit-for-bit on every backend."""

    @staticmethod
    def _final_states(executor):
        world = build_traffic_world(seed=13, vehicle_class=Vehicle, num_vehicles=40)
        partitioning = StripPartitioning.uniform(world.bounds, 0, 4)
        job = LocalEffectSimulationJob(
            partitioning, seed=world.seed, check_visibility=False, executor=executor
        )
        try:
            agents = job.run(world.agents(), ticks=2)
        finally:
            job.shutdown()
        return [agent.state_dict() for agent in agents]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_match_serial_bit_for_bit(self, backend):
        serial = self._final_states("serial")
        other = self._final_states(make_executor(backend, max_workers=2))
        assert other == serial


class TestProcessExecutorErrorPath:
    def test_unpicklable_map_function_raises_executor_error(self):
        with ProcessExecutor(max_workers=2) as executor:
            engine = MapReduceEngine(executor=executor)
            job = MapReduceJob(lambda key, value: [(key, value)], word_count_reduce)
            with pytest.raises(ExecutorError, match="picklable"):
                engine.run(job, WORD_COUNT_INPUT)

    def test_executor_error_is_a_mapreduce_error(self):
        assert issubclass(ExecutorError, MapReduceError)
