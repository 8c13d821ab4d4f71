"""Session lifecycle, observers and the unified RunResult."""

import pytest

from repro.api import Provenance, RunResult, Simulation, TickEvent
from repro.brace.metrics import EpochStatistics
from repro.brasil import kernel_fallback_reasons
from repro.core.errors import BraceError, SimulationSessionError
from repro.simulations.traffic import RING_LENGTH, RingCar, build_ring_world
from repro.simulations.traffic.brasil_scripts import TRAFFIC_SCRIPT

TICKS = 8
NUM_CARS = 24
SEED = 3


def agent_session():
    return Simulation.from_agents(build_ring_world(NUM_CARS, SEED)).with_workers(2)


def script_session():
    return Simulation.from_script(
        TRAFFIC_SCRIPT, num_agents=NUM_CARS, seed=SEED, bounds=((0.0, RING_LENGTH),)
    ).with_workers(2)


class TestConstruction:
    def test_from_agents_accepts_bare_agents_with_bounds(self):
        agents = [RingCar(x=float(position)) for position in (10.0, 400.0, 900.0)]
        with Simulation.from_agents(agents, bounds=((0.0, RING_LENGTH),)) as sim:
            result = sim.run(2)
        assert result.num_agents == 3

    def test_from_agents_without_bounds_fails_actionably(self):
        with pytest.raises(BraceError, match="needs bounds"):
            Simulation.from_agents([RingCar(x=1.0)])

    def test_from_script_compiles_eagerly(self):
        from repro.core.errors import BrasilError

        with pytest.raises(BrasilError):
            Simulation.from_script("class Broken {")

    def test_script_session_adopts_compiler_config(self):
        session = script_session()
        assert session.compiled is not None
        # The traffic script is all-local: one reduce pass.
        assert session.config.non_local_effects is False

    def test_direct_constructor_is_rejected_for_bad_source(self):
        with pytest.raises(SimulationSessionError):
            Simulation(build_ring_world(2, 0), "nonsense")


# One full deterministic run serves every test that only *reads* its
# RunResult (populated-result shape, resolved-provenance assertions) —
# lifecycle tests that need their own session keep building one.
@pytest.fixture(scope="module")
def full_run_result():
    with agent_session() as sim:
        return sim.run(TICKS)


class TestLifecycle:
    def test_run_returns_populated_result(self, full_run_result):
        result = full_run_result
        assert isinstance(result, RunResult)
        assert result.ticks == TICKS
        assert result.num_agents == NUM_CARS
        assert len(result.metrics.ticks) == TICKS
        assert result.throughput() > 0
        assert result.bytes_over_network() > 0
        provenance = result.provenance
        assert isinstance(provenance, Provenance)
        assert provenance.source == "agents"
        assert provenance.model == ("RingCar",)
        assert provenance.backend == "serial"
        assert provenance.seed == SEED
        assert provenance.script_hash is None
        assert "RingCar" in provenance.describe()

    def test_script_provenance_has_hash(self):
        with script_session() as sim:
            provenance = sim.run(2).provenance
        assert provenance.source == "script"
        assert provenance.script_hash is not None and len(provenance.script_hash) == 64
        assert provenance.script_label == "<script>"

    def test_run_accumulates_across_calls(self):
        with agent_session() as sim:
            sim.run(3)
            result = sim.run(2)
        assert result.ticks == 5
        assert sim.tick == 5

    def test_context_manager_closes(self):
        sim = agent_session()
        with sim:
            sim.run(1)
        assert sim.closed
        with pytest.raises(SimulationSessionError, match="closed"):
            sim.run(1)
        with pytest.raises(SimulationSessionError, match="closed"):
            sim.runtime

    def test_close_is_idempotent_and_works_unstarted(self):
        sim = agent_session()
        sim.close()
        sim.close()
        assert sim.closed

    def test_stream_yields_tick_events(self):
        with agent_session().with_epochs(3) as sim:
            events = list(sim.stream(7))
        assert len(events) == 7
        assert all(isinstance(event, TickEvent) for event in events)
        assert [event.tick for event in events] == list(range(7))
        boundaries = [event.tick for event in events if event.is_epoch_boundary]
        assert boundaries == [2, 5]

    def test_stream_with_state_snapshots(self):
        with agent_session() as sim:
            events = list(sim.stream(2, snapshot_states=True))
        assert all(event.states is not None for event in events)
        assert set(events[0].states) == set(events[1].states)
        assert events[0].states != events[1].states  # cars moved

    def test_new_stream_finalizes_the_previous_one(self):
        with agent_session() as sim:
            first = sim.stream(4)
            next(first)
            second = sim.stream(2)
            # Starting a new stream closed the first at its tick boundary.
            assert list(first) == []
            assert sum(1 for _ in second) == 2
            assert sim.tick == 3

    def test_abandoned_stream_does_not_wedge_the_session(self):
        with agent_session() as sim:
            for event in sim.stream(6):
                break  # abandon without closing — must not wedge run()
            result = sim.run(2)
            assert result.ticks == 3

    def test_pause_then_abandoned_stream_is_still_honoured(self):
        with agent_session() as sim:
            stream = sim.stream(6)
            next(stream)
            sim.pause()  # between pulls: takes effect at the next boundary
            with pytest.raises(SimulationSessionError, match="resume"):
                sim.run(1)  # finalizing the stream applied the pause
            assert sim.paused
            sim.resume()
            assert sim.run(1).ticks == 2

    def test_abandoned_stream_syncs_world(self):
        with agent_session().with_executor("process", max_workers=2) as sim:
            stream = sim.stream(6)
            for _ in range(2):
                next(stream)
            stream.close()
            # The driver world reflects the two executed ticks.
            assert sim.tick == 2
            states_after_break = sim.states()
        with agent_session() as reference:
            expected = reference.run(2).final_states
        assert states_after_break == expected


class TestObservers:
    def test_on_tick_on_epoch_on_checkpoint_fire(self):
        ticks_seen, epochs_seen, checkpoints_seen = [], [], []
        session = (
            agent_session()
            .with_epochs(2)
            .with_checkpointing(every_epochs=2)
            .on_tick(lambda event: ticks_seen.append(event.tick))
            .on_epoch(lambda epoch: epochs_seen.append(epoch.epoch))
            .on_checkpoint(lambda epoch: checkpoints_seen.append(epoch.epoch))
        )
        with session as sim:
            result = sim.run(8)
        assert ticks_seen == list(range(8))
        assert len(epochs_seen) == 4
        assert epochs_seen == sorted(epochs_seen)
        assert all(isinstance(epoch, int) for epoch in checkpoints_seen)
        assert checkpoints_seen  # the every-2-epochs schedule fired
        assert result.checkpoints_taken == checkpoints_seen

    def test_observers_fire_on_blocking_run_and_stream_alike(self):
        counts = {"run": 0, "stream": 0}
        with agent_session().on_tick(lambda e: counts.__setitem__("run", counts["run"] + 1)) as sim:
            sim.run(3)
        assert counts["run"] == 3
        with agent_session().on_tick(lambda e: counts.__setitem__("stream", counts["stream"] + 1)) as sim:
            list(sim.stream(3))
        assert counts["stream"] == 3

    def test_epoch_event_rides_on_tick_event(self):
        with agent_session().with_epochs(4) as sim:
            events = list(sim.stream(4))
        assert events[-1].epoch is not None
        assert isinstance(events[-1].epoch, EpochStatistics)
        assert all(event.epoch is None for event in events[:-1])


class TestPauseResume:
    def test_pause_before_start_is_an_error(self):
        with pytest.raises(SimulationSessionError, match="nothing to pause"):
            agent_session().pause()

    def test_resume_without_pause_is_an_error(self):
        with agent_session() as sim:
            sim.run(1)
            with pytest.raises(SimulationSessionError, match="not paused"):
                sim.resume()

    def test_run_while_paused_is_an_error(self):
        with agent_session() as sim:
            sim.run(2)
            sim.pause()
            with pytest.raises(SimulationSessionError, match="resume"):
                sim.run(1)
            sim.resume()
            sim.run(1)
            assert sim.tick == 3

    def test_pause_from_observer_stops_stream(self):
        session = agent_session()
        session.on_tick(lambda event: session.pause() if event.tick == 2 else None)
        with session as sim:
            events = list(sim.stream(10))
        assert len(events) == 3  # ticks 0, 1, 2
        assert sim.paused

    def test_pause_is_idempotent(self):
        with agent_session() as sim:
            sim.run(1)
            sim.pause()
            sim.pause()
            assert sim.paused

    def test_pause_releases_resident_shards(self):
        with agent_session().with_executor("process", max_workers=2) as sim:
            sim.run(2)
            assert sim.runtime.executor.has_shards()
            sim.pause()
            assert not sim.runtime.executor.has_shards()
            sim.resume()
            sim.run(1)


class TestRepr:
    def test_repr_reflects_lifecycle(self):
        sim = agent_session()
        assert "state=ready" in repr(sim)
        sim.run(1)
        assert "state=running" in repr(sim)
        sim.pause()
        assert "state=paused" in repr(sim)
        sim.close()
        assert "state=closed" in repr(sim)


class TestProvenanceRoundTrip:
    """result.provenance.config must reproduce the run without re-deriving
    any automatic default: the seed is recorded as the effective one, next
    to the spatial and plan backends every shard ran."""

    def test_automatic_knobs_are_recorded_resolved(self, full_run_result):
        result = full_run_result
        config = result.provenance.config
        # The session never set these; the provenance must hold what
        # actually executed instead of an automatic default.
        assert config.spatial_backend == "vectorized"
        # The configured plan backend is recorded.  Hand-written RingCar
        # has no plan kernels, which the proof's report says per phase.
        assert config.plan_backend == "compiled"
        assert set(kernel_fallback_reasons(RingCar)) == {"query", "update"}
        assert config.seed == result.provenance.seed

    def test_resolution_matches_the_runtime(self):
        sim = (
            agent_session()
            .with_executor("process", max_workers=2)
            .with_seed(23)
        )
        with sim:
            result = sim.run(2)
            runtime = sim.runtime
            config = result.provenance.config
            assert config.seed == runtime.seed == 23
            assert config.executor == runtime.executor.name == "process"

    def test_config_round_trips_into_an_identical_run(self):
        """A session built from the recorded config replays bit-identically."""
        with agent_session().with_workers(2).with_epochs(3) as first:
            result = first.run(6)

        replayed = Simulation.from_agents(
            build_ring_world(NUM_CARS, SEED), config=result.provenance.config
        )
        with replayed:
            # The recorded config carries every resolved knob verbatim...
            assert replayed.config == result.provenance.config
            rerun = replayed.run(6)
        # ...and its provenance re-resolves to the same choices (fixpoint).
        assert rerun.provenance.config == result.provenance.config
        assert rerun.final_states == result.final_states
