"""The fluent builder must validate every knob at the call that sets it."""

import dataclasses

import pytest

from repro.api import Simulation
from repro.api.builder import ConfigBuilder
from repro.brace.config import BraceConfig
from repro.core.errors import BraceError
from repro.simulations.traffic import build_ring_world


def make_session():
    return Simulation.from_agents(build_ring_world(8, seed=1))


class TestFailFast:
    def test_unknown_executor_fails_at_the_call(self):
        with pytest.raises(BraceError, match="unknown executor 'proces'"):
            make_session().with_executor("proces")

    @pytest.mark.parametrize("index", ["rtree", "kdtree", "quadtree", "auto"])
    def test_unknown_index_fails_at_the_call(self, index):
        with pytest.raises(BraceError, match="expected 'grid' .* or None"):
            make_session().with_index(index)

    @pytest.mark.parametrize("backend", [None, "auto", "kdtree"])
    def test_spatial_backend_takes_two_values(self, backend):
        with pytest.raises(BraceError, match="unknown spatial backend"):
            make_session().with_spatial_backend(backend)

    def test_unknown_partitioning_scheme(self):
        with pytest.raises(BraceError, match="unknown partitioning scheme"):
            make_session().with_partitioning("hexes")

    def test_grid_partitioning_requires_matching_cells(self):
        with pytest.raises(BraceError, match="product of grid_cells"):
            make_session().with_partitioning("grid", num_workers=4, grid_cells=(3, 2))

    def test_grid_cells_rejected_for_strip(self):
        with pytest.raises(BraceError, match="grid_cells only applies"):
            make_session().with_options(grid_cells=(2, 2))

    @pytest.mark.parametrize("option", ["index", "cell_size"])
    def test_removed_index_options_are_rejected(self, option):
        with pytest.raises(BraceError, match=f"unknown configuration option '{option}'"):
            make_session().with_options(**{option: "kdtree" if option == "index" else 2.0})

    def test_unknown_option_lists_valid_fields(self):
        with pytest.raises(BraceError, match="unknown configuration option 'bogus'"):
            make_session().with_options(bogus=1)

    def test_bad_threshold_message_is_actionable(self):
        with pytest.raises(BraceError, match="load_balance_threshold"):
            make_session().with_load_balancing(threshold=0.5)

    def test_failed_call_leaves_builder_usable(self):
        session = make_session()
        with pytest.raises(BraceError):
            session.with_executor("bogus")
        # The bad override was not recorded; the session still runs.
        session.with_executor("serial")
        with session:
            assert session.run(1).ticks == 1

    def test_runtime_init_still_validates(self):
        # The non-builder path fails fast too (satellite requirement).
        from repro.brace.runtime import BraceRuntime

        with pytest.raises(BraceError, match="unknown executor"):
            BraceRuntime(build_ring_world(4, seed=0), BraceConfig(executor="nope"))


class TestBuilderCompilation:
    def test_overrides_compile_down_to_braceconfig(self):
        session = (
            make_session()
            .with_executor("thread", max_workers=3)
            .with_workers(2)
            .with_epochs(7)
            .with_seed(99)
            .with_load_balancing(False)
            .with_checkpointing(every_epochs=2)
        )
        config = session.config
        assert isinstance(config, BraceConfig)
        assert config.executor == "thread"
        assert config.max_workers == 3
        assert config.num_workers == 2
        assert config.ticks_per_epoch == 7
        assert config.seed == 99
        assert config.load_balance is False
        assert config.checkpointing is True
        assert config.checkpoint_interval_epochs == 2

    def test_base_config_passes_through_untouched_fields(self):
        base = BraceConfig(num_workers=6, latency_seconds=1e-3)
        session = Simulation.from_agents(build_ring_world(8, seed=1), config=base)
        config = session.with_epochs(4).config
        assert config.num_workers == 6
        assert config.latency_seconds == 1e-3
        assert config.ticks_per_epoch == 4
        # The base object itself was never mutated.
        assert base.ticks_per_epoch == BraceConfig().ticks_per_epoch

    def test_builder_set_returns_validated_copy(self):
        builder = ConfigBuilder()
        builder.set(num_workers=3)
        config = builder.build()
        assert config.num_workers == 3
        assert config.executor == BraceConfig().executor

    def test_every_braceconfig_field_is_reachable(self):
        builder = ConfigBuilder()
        for field in dataclasses.fields(BraceConfig):
            # set() accepts each field by name (with its current value).
            builder.set(**{field.name: getattr(BraceConfig(), field.name)})

    @pytest.mark.parametrize("source", ["agents", "script"])
    @pytest.mark.parametrize("index,backend", [(None, "python"), ("grid", "vectorized")])
    def test_with_index_writes_the_spatial_backend(self, source, index, backend):
        from repro.simulations.traffic import RING_LENGTH
        from repro.simulations.traffic.brasil_scripts import TRAFFIC_SCRIPT

        if source == "agents":
            session = make_session()
        else:
            session = Simulation.from_script(
                TRAFFIC_SCRIPT, num_agents=8, seed=1, bounds=((0.0, RING_LENGTH),)
            )
        # Start from the other value, so the call is what sets it.
        other = "vectorized" if backend == "python" else "python"
        session.with_spatial_backend(other).with_index(index)
        assert session.config.spatial_backend == backend

    def test_configuration_frozen_after_start(self):
        from repro.core.errors import SimulationSessionError

        with make_session() as session:
            session.run(1)
            with pytest.raises(SimulationSessionError, match="frozen"):
                session.with_workers(2)
