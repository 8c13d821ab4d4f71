"""Differential replay: ``History.state_at(t)`` == a fresh run truncated at t.

The history store's contract is *bit-identical time travel*: for every
recorded tick ``t``, replaying the store must reproduce exactly the agent
states a fresh run of the same model would report after ``t`` ticks.  These
tests enforce the contract differentially across the full execution matrix —

    {fish school, traffic ring} x {serial, process executor}
        x {python, vectorized spatial backend}

— with a pause/resume boundary in the middle of every recorded run, plus
checkpoint recovery (``recover()``) and a dynamic population (births and
deaths) as separate scenarios.  The reference is always the naive
:class:`~repro.core.engine.SequentialEngine`: equivalence to it is the
repo's standing invariant, so any deviation localizes to the
recording/replay layer itself.

Process-executor combinations spin up pools and are marked ``slow`` (the CI
history-smoke job runs with ``-m "not slow"``).
"""

from __future__ import annotations

import pytest

from repro.api import Simulation
from repro.core.engine import SequentialEngine
from repro.history import History
from repro.simulations.fish.fish import Fish
from repro.simulations.fish.workload import build_fish_world
from repro.simulations.traffic.ring import build_ring_world
from tests.conftest import SpawningAgent, make_boid_world

TICKS = 10
PAUSE_AT = 4


def fish_world():
    # The canonical Fish class is importable by name, as pickling (process
    # executor payloads and recorded clones alike) requires.
    return build_fish_world(24, seed=5, fish_class=Fish)


def ring_world():
    return build_ring_world(20, seed=3)


WORLDS = {"fish": fish_world, "ring": ring_world}


def reference_states(world_builder, ticks):
    """Tick -> states of a sequential run: {0: initial, t+1: after tick t}."""
    world = world_builder()
    engine = SequentialEngine(world)
    reference = {}
    for tick in range(ticks + 1):
        reference[tick] = {agent.agent_id: agent.state_dict() for agent in world.agents()}
        engine.run(1)
    return reference


def record_run(world_builder, path, *, executor, backend, ticks=TICKS):
    """Record ``ticks`` ticks with a pause/resume boundary in the middle."""
    session = (
        Simulation.from_agents(world_builder())
        .with_executor(executor, max_workers=2)
        .with_workers(2)
        .with_spatial_backend(backend)
        .with_history(path, checkpoint_every=4)
    )
    with session:
        session.run(PAUSE_AT)
        session.pause()
        session.resume()
        session.run(ticks - PAUSE_AT)
    return session


MATRIX = [
    pytest.param(
        executor,
        backend,
        marks=[pytest.mark.slow] if executor == "process" else [],
        id=f"{executor}-{backend}",
    )
    for executor in ("serial", "process")
    for backend in ("python", "vectorized")
]


# Every matrix cell compares against the same deterministic sequential
# reference, so compute it once per workload instead of once per cell.
@pytest.fixture(scope="module")
def cached_references():
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = reference_states(WORLDS[workload], TICKS)
        return cache[workload]

    return get


# The serial/default-backend recording is read-only for its consumers, so one
# recording per workload serves every test that replays it.
@pytest.fixture(scope="module", params=sorted(WORLDS))
def serial_recording(request, tmp_path_factory):
    workload = request.param
    path = tmp_path_factory.mktemp(f"replay-{workload}") / "run"
    record_run(WORLDS[workload], path, executor="serial", backend="vectorized")
    return workload, History.open(path)


@pytest.mark.parametrize("workload", sorted(WORLDS))
@pytest.mark.parametrize("executor,backend", MATRIX)
def test_state_at_matches_fresh_run_across_backends(
    tmp_path, cached_references, workload, executor, backend
):
    """Every recorded tick replays bit-identically, on every combination."""
    path = tmp_path / "run"
    record_run(WORLDS[workload], path, executor=executor, backend=backend)
    reference = cached_references(workload)
    history = History.open(path)

    assert history.base_tick == 0
    assert history.last_tick == TICKS
    for tick in range(TICKS + 1):
        assert history.state_at(tick) == reference[tick], (
            f"replay diverged at tick {tick} ({workload}, {executor}, {backend})"
        )


def test_walk_matches_state_at(serial_recording):
    """Sequential replay and per-tick replay reconstruct the same states."""
    _, history = serial_recording
    walked = dict(history.walk())
    assert sorted(walked) == list(range(TICKS + 1))
    for tick, states in walked.items():
        assert states == history.state_at(tick)


def test_state_at_equals_literally_truncated_fresh_runs(serial_recording):
    """The acceptance criterion verbatim: state_at(t) == a run stopped at t."""
    workload, history = serial_recording
    for tick in (0, 3, PAUSE_AT, 7, TICKS):
        fresh = Simulation.from_agents(WORLDS[workload]())
        with fresh:
            fresh.run(tick)
            assert history.state_at(tick) == fresh.states(), (
                f"history disagrees with a fresh {tick}-tick run"
            )


@pytest.mark.parametrize(
    "executor",
    ["serial", pytest.param("process", marks=pytest.mark.slow)],
)
def test_recovery_rewinds_the_store_and_rerecords(tmp_path, executor):
    """recover() truncates the stale tail; the re-run records bit-identically.

    A failure at tick 7 rewinds to the runtime checkpoint at tick 6; the
    re-executed ticks overwrite the truncated frames, so the final history
    matches an uninterrupted run over its entire range.
    """
    total = 11
    session = (
        Simulation.from_agents(fish_world())
        .with_executor(executor, max_workers=2)
        .with_workers(2)
        .with_epochs(3)
        .with_checkpointing(every_epochs=1)
        .with_history(tmp_path / "run", checkpoint_every=4)
    )
    with session:
        session.run(7)
        ticks_lost = session.runtime.recover()
        assert ticks_lost == 1
        assert session.history.last_tick == 6  # the stale tick-7 frame is gone
        session.run(total - session.tick)
        assert session.tick == total

    reference = reference_states(fish_world, total)
    history = History.open(tmp_path / "run")
    for tick in range(total + 1):
        assert history.state_at(tick) == reference[tick], (
            f"post-recovery replay diverged at tick {tick} ({executor})"
        )


def test_recovery_across_pause_resume_boundary(tmp_path):
    """pause/resume then recover then more ticks — the full lifecycle gauntlet."""
    total = 12
    session = (
        Simulation.from_agents(ring_world())
        .with_epochs(3)
        .with_checkpointing(every_epochs=1)
        .with_history(tmp_path / "run", checkpoint_every=5)
    )
    with session:
        session.run(4)
        session.pause()
        session.resume()
        session.run(4)  # now at tick 8, runtime checkpoint at tick 6
        session.runtime.recover()
        assert session.tick == 6
        session.run(total - session.tick)

    reference = reference_states(ring_world, total)
    history = History.open(tmp_path / "run")
    for tick in range(total + 1):
        assert history.state_at(tick) == reference[tick]


def test_dynamic_population_replays_births_deaths_and_ids(tmp_path):
    """Spawns, kills and id allocation all round-trip through the store."""
    ticks = 12

    def world_builder():
        return make_boid_world(num_agents=30, seed=11, agent_class=SpawningAgent)

    session = (
        Simulation.from_agents(world_builder())
        .with_history(tmp_path / "run", checkpoint_every=5)
    )
    with session:
        session.run(ticks)
        final_population = set(session.states())

    reference = reference_states(world_builder, ticks)
    history = History.open(tmp_path / "run")
    populations = set()
    for tick in range(ticks + 1):
        states = history.state_at(tick)
        assert states == reference[tick]
        populations.add(frozenset(states))
    # The scenario exercised real population churn, not a fixed roster.
    assert len(populations) > 1
    assert set(history.state_at(ticks)) == final_population
    # A reconstructed world resumes id allocation where the run left off.
    replayed = history.world_at(ticks)
    live = Simulation.from_agents(world_builder())
    with live:
        live.run(ticks)
        assert replayed.next_agent_id == live.world.next_agent_id


def test_history_readable_while_the_run_is_live(tmp_path):
    """A reader in (conceptually) another process sees every completed tick."""
    session = Simulation.from_agents(ring_world()).with_history(tmp_path / "run")
    with session:
        seen = []
        for event in session.stream(6):
            assert event.persisted
            # Re-open from disk each tick: nothing is held back in memory.
            reader = History.open(tmp_path / "run")
            assert reader.last_tick == event.tick + 1
            seen.append(reader.state_at(event.tick + 1))
        assert seen[-1] == session.states()
