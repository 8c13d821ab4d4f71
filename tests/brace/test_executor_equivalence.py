"""Equivalence of the BRACE runtime across executor backends.

There is one tick protocol; the executor only changes *where* the shards
live and how deltas reach them (by reference, or as columnar frames).  Every
backend must therefore produce agent states bit-identical to the naive
:class:`~repro.core.engine.SequentialEngine` and identical deterministic
statistics.  ``"codec"`` is the in-process wire double
(:mod:`tests.wire_double`): the full columnar wire without pools.
"""

import json
from pathlib import Path

import pytest

from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.core.engine import SequentialEngine
from repro.core.errors import BraceError, ExecutorError
from repro.simulations.fish.fish import Fish
from repro.simulations.fish.workload import build_fish_world
from repro.simulations.predator.workload import build_predator_world
from repro.simulations.traffic.workload import build_traffic_world

from tests.wire_double import CodecRoundTripExecutor

TICKS = 3


def run_brace(world, executor, ticks, **options):
    """Run ``world`` on ``executor`` ("codec" = the in-process wire double)."""
    config = BraceConfig(
        executor="serial" if executor == "codec" else executor, max_workers=2, **options
    )
    with BraceRuntime(world, config) as runtime:
        if executor == "codec":
            runtime.executor = CodecRoundTripExecutor()
        runtime.run(ticks)
        return world, runtime.metrics


def run_traffic(executor):
    world = build_traffic_world(seed=11, num_vehicles=80)
    return run_brace(
        world, executor, TICKS, num_workers=4, ticks_per_epoch=TICKS, check_visibility=False
    )


def run_predator(executor):
    # Births, deaths and the second reduce pass, on dynamically built classes.
    world = build_predator_world(50, seed=5)
    return run_brace(
        world, executor, 4, num_workers=2, ticks_per_epoch=4, non_local_effects=True
    )


def sequential(world, ticks):
    SequentialEngine(world).run(ticks)
    return world


#: Tick-statistics fields that must match exactly across backends
#: (everything except wall-clock timings, which necessarily differ).
DETERMINISTIC_TICK_FIELDS = (
    "tick",
    "num_agents",
    "bytes_replicated",
    "bytes_effects",
    "bytes_migrated",
    "replicas_created",
    "agents_migrated",
    "max_worker_agents",
    "min_worker_agents",
    "num_passes",
    "spawned",
    "killed",
    "virtual_seconds",
)


class TestTrafficEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process", "codec"])
    def test_states_bit_identical_to_sequential(self, backend):
        reference = sequential(build_traffic_world(seed=11, num_vehicles=80), TICKS)
        world, _ = run_traffic(backend)
        assert world.same_state_as(reference, tolerance=0.0)

    @pytest.mark.parametrize("backend", ["thread", "process", "codec"])
    def test_statistics_identical_to_serial(self, backend):
        _, serial_metrics = run_traffic("serial")
        _, other_metrics = run_traffic(backend)
        assert len(serial_metrics.ticks) == len(other_metrics.ticks) == TICKS
        for serial_tick, other_tick in zip(serial_metrics.ticks, other_metrics.ticks):
            for field in DETERMINISTIC_TICK_FIELDS:
                assert getattr(serial_tick, field) == getattr(other_tick, field), field

    def test_per_worker_wall_clock_recorded(self):
        _, metrics = run_traffic("thread")
        for tick in metrics.ticks:
            assert tick.executor == "thread"
            assert len(tick.query_seconds_per_worker) == 4
            assert len(tick.update_seconds_per_worker) == 4
            assert all(seconds >= 0.0 for seconds in tick.query_seconds_per_worker)
            assert tick.query_wall_imbalance >= 1.0
        assert metrics.mean_query_wall_imbalance() >= 1.0


#: Epoch fields of the same contract (Figure 8's seconds-per-epoch and the
#: load balancer's decisions).
DETERMINISTIC_EPOCH_FIELDS = (
    "epoch",
    "first_tick",
    "ticks",
    "virtual_seconds",
    "agent_ticks",
    "rebalanced",
    "agents_migrated_by_balancer",
)

#: name -> (world builder, BraceConfig options, ticks), as recorded.
PINNED_SCENARIOS = {
    "traffic": (
        lambda: build_traffic_world(seed=11, num_vehicles=80),
        dict(num_workers=4, ticks_per_epoch=3, check_visibility=False),
        7,
    ),
    "fish": (
        lambda: build_fish_world(60, seed=3),
        dict(num_workers=4, ticks_per_epoch=2, load_balance_threshold=1.05),
        6,
    ),
}


class TestVirtualTimeDidNotMove:
    """Figures 6-8 are virtual time: the single tick protocol must charge
    exactly what the in-place tick it replaced charged.

    ``fixtures/inplace_tick_fields.json`` was recorded at the last commit
    that still had ``_run_tick_inplace`` (PR 11, 07c4efa), on the serial
    executor; JSON floats round-trip exactly.
    """

    @pytest.mark.parametrize("scenario", sorted(PINNED_SCENARIOS))
    def test_serial_statistics_equal_the_in_place_recording(self, scenario):
        recorded = json.loads(
            (Path(__file__).parent / "fixtures" / "inplace_tick_fields.json").read_text()
        )[scenario]
        build, options, ticks = PINNED_SCENARIOS[scenario]
        with BraceRuntime(build(), BraceConfig(**options)) as runtime:
            metrics = runtime.run(ticks)
        assert [
            {field: getattr(tick, field) for field in DETERMINISTIC_TICK_FIELDS}
            for tick in metrics.ticks
        ] == recorded["ticks"]
        assert [
            {field: getattr(epoch, field) for field in DETERMINISTIC_EPOCH_FIELDS}
            for epoch in metrics.epochs
        ] == recorded["epochs"]
        assert sum(tick["agents_migrated"] for tick in recorded["ticks"]) > 0


class TestTransports:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_by_reference_measures_no_ipc(self, backend):
        _, metrics = run_traffic(backend)
        assert metrics.total_ipc_bytes() == 0
        for tick in metrics.ticks:
            assert tick.ipc_bytes_total == 0
            assert tick.ipc_serialize_seconds == tick.ipc_transport_seconds == 0.0
            assert tick.ipc_compute_seconds == tick.ipc_wait_seconds == 0.0

    @pytest.mark.parametrize("backend", ["process", "codec"])
    def test_a_wire_measures_real_frame_bytes_both_ways(self, backend):
        _, metrics = run_traffic(backend)
        assert all(tick.ipc_bytes_sent > 0 for tick in metrics.ticks)
        assert all(tick.ipc_bytes_received > 0 for tick in metrics.ticks)
        assert all(tick.ipc_compute_seconds > 0 for tick in metrics.ticks)
        assert metrics.total_ipc_bytes() > 0


class TestDynamicPopulationEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread", "codec"])
    def test_births_deaths_and_second_reduce_match_sequential(self, backend):
        # The codec double pushes spawn/kill round trips and routed
        # second-reduce partials through the frame transforms, on agent
        # classes that need the escape paths.
        reference = sequential(build_predator_world(50, seed=5), 4)
        world, metrics = run_predator(backend)
        assert sum(tick.spawned + tick.killed for tick in metrics.ticks) > 0
        assert world.agent_count() == reference.agent_count()
        assert world.same_state_as(reference, tolerance=0.0)


class TestRebalanceEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process", "codec"])
    def test_fish_with_rebalancing_matches_sequential(self, backend):
        # The importable Fish: the process wire pickles classes by name.
        def build():
            return build_fish_world(60, seed=3, fish_class=Fish)

        world, metrics = run_brace(
            build(), backend, 6, num_workers=4, ticks_per_epoch=2, load_balance_threshold=1.05
        )
        assert any(epoch.rebalanced for epoch in metrics.epochs)
        assert world.same_state_as(sequential(build(), 6), tolerance=0.0)


class TestProcessBackendErrorPath:
    def test_dynamic_agent_class_raises_executor_error(self):
        # The predator classes are built dynamically (not importable by
        # name), so the process backend must refuse them with a clear error
        # instead of a bare pickling traceback.
        world = build_predator_world(20, seed=5)
        config = BraceConfig(
            num_workers=2,
            ticks_per_epoch=2,
            non_local_effects=True,
            executor="process",
            max_workers=2,
        )
        with BraceRuntime(world, config) as runtime:
            with pytest.raises(ExecutorError, match="picklable"):
                runtime.run_tick()


class TestConfigValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(BraceError):
            BraceConfig(executor="gpu").validate()

    def test_bad_max_workers_rejected(self):
        with pytest.raises(BraceError):
            BraceConfig(max_workers=0).validate()

    @pytest.mark.parametrize("knob", ["resident_shards", "ipc_backend"])
    def test_transport_knobs_are_gone(self, knob):
        # One tick protocol, transport read off the executor: nothing to set.
        with pytest.raises(TypeError):
            BraceConfig(**{knob: None})
        world = build_traffic_world(seed=11, num_vehicles=8)
        with BraceRuntime(world, BraceConfig(num_workers=2)) as runtime:
            assert not hasattr(runtime, "resident") and not hasattr(runtime, knob)
