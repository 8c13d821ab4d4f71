"""The analytics surface: series, aggregates, diffs, retention, provenance.

Everything here runs against real recorded trajectories (small ring/fish
runs), so the queries are tested end to end — session recording included —
not against hand-built store fixtures.
"""

from __future__ import annotations

import math

import pytest

from repro.api import Simulation
from repro.core.agent import Agent
from repro.core.errors import HistoryError, SimulationSessionError
from repro.core.fields import StateField
from repro.core.soa import states_equal
from repro.core.world import World
from repro.harness.table2 import rmspe_from_histories
from repro.history import History, HistoryStore
from repro.simulations.traffic.ring import RING_LENGTH, build_ring_world
from repro.spatial.bbox import BBox


class Gauge(Agent):
    """Moves along x; ``reading`` is carried unchanged from tick to tick."""

    x = StateField(0.0, spatial=True, visibility=1.0, reachability=1.0)
    reading = StateField(0.0)

    def update(self, ctx):
        self.x = self.x + 0.25


def record_gauges(path, reading):
    world = World(bounds=BBox(((0.0, 30.0),)), seed=1)
    for index in range(3):
        world.add_agent(Gauge(x=10.0 * index, reading=reading))
    with Simulation.from_agents(world).with_history(path) as session:
        session.run(3)
    return History.open(path)


def record_ring(path, *, seed=3, cars=12, ticks=10, **history_options):
    session = (
        Simulation.from_agents(build_ring_world(cars, seed=seed))
        .with_history(path, **history_options)
    )
    with session:
        result = session.run(ticks)
    return result


# Module-scoped: recording is deterministic and every consumer is read-only
# (series, aggregates, the left side of diffs), so one 10-tick simulation
# serves the whole module instead of one per test.
@pytest.fixture(scope="module")
def history(tmp_path_factory):
    root = tmp_path_factory.mktemp("queries-history")
    record_ring(root / "run", checkpoint_every=4)
    return History.open(root / "run")


@pytest.fixture(scope="module")
def twin_history(tmp_path_factory):
    """A bit-identical second recording (same seed) for diff/RMSPE tests."""
    root = tmp_path_factory.mktemp("queries-twin")
    record_ring(root / "twin", checkpoint_every=4)
    return History.open(root / "twin")


class TestSeries:
    def test_single_field_series_covers_every_tick(self, history):
        series = history.series(0, "x")
        assert [tick for tick, _ in series] == list(range(11))
        assert all(0.0 <= value < RING_LENGTH for _, value in series)

    def test_multi_field_series_yields_dicts(self, history):
        series = history.series(0, ["x", "v"], start=2, stop=5)
        assert [tick for tick, _ in series] == [2, 3, 4, 5]
        assert set(series[0][1]) == {"x", "v"}

    def test_series_matches_state_at(self, history):
        for tick, value in history.series(3, "v"):
            assert value == history.state_at(tick)[3]["v"]

    def test_absent_agent_is_skipped(self, history):
        assert history.series(999, "x") == []


class TestAggregates:
    def test_named_reducers(self, history):
        mean = history.aggregate_series("v", "mean")
        total = history.aggregate_series("v", "sum")
        count = history.aggregate_series("v", "count")
        assert len(mean) == len(total) == len(count) == 11
        for (_, m), (_, s), (_, c) in zip(mean, total, count):
            assert c == 12.0
            assert m == pytest.approx(s / c)

    def test_callable_reducer_and_where_filter(self, history):
        upper_half = history.aggregate_series(
            "x",
            reduce=lambda values: max(values, default=0.0),
            where=lambda agent_id, state: state["x"] >= RING_LENGTH / 2,
        )
        full = history.aggregate_series("x", "max")
        assert [tick for tick, _ in upper_half] == [tick for tick, _ in full]

    def test_unknown_reducer_raises(self, history):
        with pytest.raises(HistoryError, match="unknown reducer"):
            history.aggregate_series("v", "median")

    def test_window_aggregate_reduces_consecutive_windows(self, history):
        series = history.aggregate_series("v", "mean")
        windows = history.window_aggregate(series, 4, "mean")
        assert [tick for tick, _ in windows] == [0, 4, 8]
        assert windows[0][1] == pytest.approx(
            sum(value for _, value in series[:4]) / 4
        )
        with pytest.raises(HistoryError, match="window"):
            history.window_aggregate(series, 0)


class TestDiff:
    def test_identical_runs_diff_clean(self, history, twin_history):
        diff = history.diff(twin_history)
        assert diff.identical
        assert diff.first_divergent_tick is None
        assert "identical" in diff.summary()

    def test_divergent_runs_report_first_tick_and_agent_deltas(self, tmp_path, history):
        record_ring(tmp_path / "other", seed=4, checkpoint_every=4)
        diff = history.diff(History.open(tmp_path / "other"))
        # Different seeds place the cars differently from the very start.
        assert diff.first_divergent_tick == 0
        assert diff.agent_deltas
        agent_id, deltas = next(iter(diff.agent_deltas.items()))
        left, right = deltas["x"]
        assert left != right
        assert history.state_at(0)[agent_id]["x"] == left
        assert f"tick {diff.first_divergent_tick}" in diff.summary()

    def test_population_mismatch_is_reported(self, tmp_path, history):
        record_ring(tmp_path / "bigger", cars=14, checkpoint_every=4)
        diff = history.diff(History.open(tmp_path / "bigger"))
        assert diff.first_divergent_tick == 0
        assert diff.only_in_right == (12, 13)

    def test_disjoint_ranges_raise(self, tmp_path, history):
        with pytest.raises(HistoryError, match="no ticks"):
            history.diff(history, start=5, stop=2)

    def test_nan_field_does_not_diverge_from_itself(self, tmp_path):
        # ``nan != nan``: under dict equality a NaN field "differed" on
        # every tick of two bit-identical runs.
        left = record_gauges(tmp_path / "left", float("nan"))
        right = record_gauges(tmp_path / "right", float("nan"))
        assert math.isnan(left.state_at(left.last_tick)[0]["reading"])
        assert left.diff(right).identical

    def test_zero_sign_flip_is_a_divergence(self, tmp_path):
        # ``0.0 == -0.0``: dict equality could not see the flip at all.
        left = record_gauges(tmp_path / "left", 0.0)
        right = record_gauges(tmp_path / "right", -0.0)
        diff = left.diff(right)
        assert diff.first_divergent_tick == 0
        assert set(diff.agent_deltas) == {0, 1, 2}
        assert set(diff.agent_deltas[0]) == {"reading"}
        ours, theirs = diff.agent_deltas[0]["reading"]
        assert (math.copysign(1.0, ours), math.copysign(1.0, theirs)) == (1.0, -1.0)


class TestRetention:
    def test_max_ticks_thins_to_a_checkpoint_floor(self, tmp_path):
        record_ring(tmp_path / "run", ticks=20, checkpoint_every=4, max_ticks=6)
        history = History.open(tmp_path / "run")
        # Deltas survive only past the highest checkpoint <= (20 - 6).
        assert history.store.delta_ticks() == list(range(13, 21))
        # Checkpoint ticks and the recent window stay queryable...
        for tick in (0, 4, 8, 12, 16, 20) + tuple(range(13, 21)):
            assert history.state_at(tick)
        # ...but thinned delta ticks are gone, loudly.
        with pytest.raises(HistoryError, match="thinned"):
            history.state_at(9)
        assert 9 not in history.ticks()

    def test_thin_to_checkpoints_keeps_only_checkpoint_ticks(self, tmp_path):
        record_ring(
            tmp_path / "run", ticks=12, checkpoint_every=5, thin_to_checkpoints=True
        )
        history = History.open(tmp_path / "run")
        assert history.ticks() == [0, 5, 10, 11, 12]
        assert history.state_at(5)

    def test_out_of_range_requests_name_the_range(self, tmp_path):
        record_ring(tmp_path / "run", ticks=5)
        history = History.open(tmp_path / "run")
        with pytest.raises(HistoryError, match="0..5"):
            history.state_at(6)
        with pytest.raises(HistoryError, match="0..5"):
            history.state_at(-1)


class TestSessionIntegration:
    def test_result_records_the_history_path(self, tmp_path):
        result = record_ring(tmp_path / "run")
        assert result.history_path == str(tmp_path / "run")
        no_history = Simulation.from_agents(build_ring_world(6, seed=1))
        with no_history:
            assert no_history.run(2).history_path is None

    def test_events_flag_persistence(self, tmp_path):
        recorded = Simulation.from_agents(build_ring_world(6, seed=1)).with_history(
            tmp_path / "run"
        )
        with recorded:
            assert all(event.persisted for event in recorded.stream(3))
        plain = Simulation.from_agents(build_ring_world(6, seed=1))
        with plain:
            assert not any(event.persisted for event in plain.stream(3))

    def test_history_property_requires_attachment(self):
        session = Simulation.from_agents(build_ring_world(6, seed=1))
        with pytest.raises(SimulationSessionError, match="with_history"):
            session.history

    def test_double_attachment_is_rejected(self, tmp_path):
        session = Simulation.from_agents(build_ring_world(6, seed=1)).with_history(
            tmp_path / "a"
        )
        with pytest.raises(SimulationSessionError, match="already attached"):
            session.with_history(tmp_path / "b")

    def test_attachment_after_start_is_rejected(self, tmp_path):
        session = Simulation.from_agents(build_ring_world(6, seed=1))
        with session:
            session.run(1)
            with pytest.raises(SimulationSessionError, match="frozen"):
                session.with_history(tmp_path / "late")

    def test_existing_store_is_not_clobbered(self, tmp_path):
        record_ring(tmp_path / "run", ticks=3)
        with pytest.raises(HistoryError, match="overwrite=True"):
            Simulation.from_agents(build_ring_world(6, seed=1)).with_history(
                tmp_path / "run"
            )

    def test_escape_hatch_ticks_break_continuity_loudly(self, tmp_path):
        session = Simulation.from_agents(build_ring_world(6, seed=1)).with_history(
            tmp_path / "run"
        )
        with session:
            session.run(2)
            session.runtime.run_tick()  # bypasses the recording session
            with pytest.raises(HistoryError, match="recording gap"):
                session.run(1)

    def test_history_usable_after_close(self, tmp_path):
        session = Simulation.from_agents(build_ring_world(6, seed=1)).with_history(
            tmp_path / "run"
        )
        with session:
            session.run(4)
            final = session.states()
        assert states_equal(session.history.state_at(4), final)


class TestProvenanceManifest:
    def test_manifest_provenance_describes_the_run(self, tmp_path):
        session = (
            Simulation.from_agents(build_ring_world(8, seed=2))
            .with_seed(2)
            .with_history(tmp_path / "run")
        )
        with session:
            session.run(3)
        provenance = History.open(tmp_path / "run").provenance
        assert provenance["source"] == "agents"
        assert provenance["model"] == ["RingCar"]
        assert provenance["seed"] == 2
        # Automatic knobs are stored resolved, never as None/auto.
        assert provenance["config"]["spatial_backend"] in ("python", "vectorized")

    def test_world_at_reconstructs_bounds_seed_and_tick(self, tmp_path):
        record_ring(tmp_path / "run", ticks=6)
        world = History.open(tmp_path / "run").world_at(6)
        assert world.tick == 6
        assert world.seed == 3
        assert world.bounds.intervals == ((0.0, RING_LENGTH),)
        assert world.agent_count() == 12


class TestRmspeAsQuery:
    def test_identical_histories_have_zero_rmspe(self, history, twin_history):
        assert rmspe_from_histories(history, twin_history, "v", start=1) == 0.0

    def test_divergent_histories_have_positive_rmspe(self, tmp_path, history):
        record_ring(tmp_path / "other", seed=9, checkpoint_every=4)
        other = History.open(tmp_path / "other")
        error = rmspe_from_histories(history, other, "x", window=2)
        assert error > 0.0

    def test_misaligned_ranges_raise(self, tmp_path, history):
        record_ring(tmp_path / "short", ticks=4)
        short = History.open(tmp_path / "short")
        with pytest.raises(ValueError, match="tick ranges"):
            rmspe_from_histories(history, short, "v")
        # Explicit alignment works.
        assert rmspe_from_histories(history, short, "v", start=1, stop=4) == 0.0


def test_store_reuse_via_simulation_history_matches_reopen(tmp_path):
    """session.history and History.open(path) answer identically."""
    session = Simulation.from_agents(build_ring_world(8, seed=6)).with_history(
        tmp_path / "run"
    )
    with session:
        session.run(5)
        live = session.history
        reopened = History.open(tmp_path / "run")
        for tick in range(6):
            assert states_equal(live.state_at(tick), reopened.state_at(tick))


def test_history_store_exported_from_package():
    assert HistoryStore is not None
