"""Snapshot of the public API surface — accidental changes must fail loudly.

These tests pin (a) the names exported from ``repro`` itself, (b) the
``repro.api`` package's exports and (c) the public methods and properties of
:class:`Simulation` and the fields of :class:`RunResult`/:class:`Provenance`.
Extending the surface is fine — update the snapshot here, deliberately, in
the same commit — but removals and renames should never happen by accident.
"""

import dataclasses

import pytest

import repro
import repro.api
from repro.api import Provenance, RunResult, Simulation
from repro.brace.config import BraceConfig
from repro.core.errors import BraceError

REPRO_EXPORTS = {
    "Agent",
    "StateField",
    "EffectField",
    "SUM",
    "COUNT",
    "MIN",
    "MAX",
    "MEAN",
    "PRODUCT",
    "ANY",
    "ALL",
    "COLLECT",
    "World",
    "SequentialEngine",
    "BraceRuntime",
    "BraceConfig",
    "Simulation",
    "RunResult",
    "Provenance",
    "TickEvent",
    "History",
    "__version__",
}

API_EXPORTS = {
    "Simulation",
    "RunResult",
    "Provenance",
    "TickEvent",
    "ConfigBuilder",
    "FluentConfig",
    "script_sha256",
}

SIMULATION_SURFACE = {
    # construction
    "from_agents",
    "from_script",
    # fluent configuration
    "with_executor",
    "with_nodes",
    "with_partitioning",
    "with_workers",
    "with_index",
    "with_spatial_backend",
    "with_plan_backend",
    "with_load_balancing",
    "with_epochs",
    "with_checkpointing",
    "with_seed",
    "with_non_local_effects",
    "with_options",
    "with_history",
    # observers
    "on_tick",
    "on_epoch",
    "on_checkpoint",
    "unsubscribe",
    # execution and lifecycle
    "run",
    "stream",
    "result",
    "states",
    "pause",
    "resume",
    "close",
    # introspection (``world`` reads through the runtime once it started)
    "world",
    "started",
    "paused",
    "closed",
    "tick",
    "compiled",
    "config",
    "metrics",
    "runtime",
    "history",
}

RUN_RESULT_FIELDS = {
    "final_states",
    "metrics",
    "ticks",
    "provenance",
    "checkpoints_taken",
    "fault_events",
    "history_path",
}

PROVENANCE_FIELDS = {
    "source",
    "model",
    "backend",
    "seed",
    "config",
    "script_hash",
    "script_label",
    "nodes",
}

BRACE_CONFIG_FIELDS = {
    "num_workers",
    "partitioning",
    "grid_cells",
    "executor",
    "max_workers",
    "cluster_listen",
    "cluster_spawn",
    "heartbeat_interval_seconds",
    "heartbeat_timeout_seconds",
    "cluster_secret",
    "readmission_timeout_seconds",
    "ticks_per_epoch",
    "non_local_effects",
    "check_visibility",
    "spatial_backend",
    "plan_backend",
    "load_balance",
    "load_balance_threshold",
    "checkpointing",
    "checkpoint_interval_epochs",
    "seed",
}

#: Cost-model constants that used to mirror the models' own defaults as
#: config fields; they live in repro.cluster and repro.brace.loadbalance.
COST_MODEL_CONSTANTS = (
    "load_balance_axis",
    "migration_cost_per_agent",
    "work_units_per_second",
    "bandwidth_bytes_per_second",
    "latency_seconds",
    "nodes_per_switch",
    "inter_switch_penalty",
    "barrier_seconds",
    "map_work_units_per_agent",
    "update_work_units_per_agent",
)


def test_repro_all_matches_snapshot():
    assert set(repro.__all__) == REPRO_EXPORTS
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ exports missing name {name}"


def test_repro_api_all_matches_snapshot():
    assert set(repro.api.__all__) == API_EXPORTS
    for name in repro.api.__all__:
        assert hasattr(repro.api, name)


def test_simulation_public_surface_matches_snapshot():
    public = {
        name
        for name in dir(Simulation)
        if not name.startswith("_")
    }
    assert public == SIMULATION_SURFACE


def test_transport_knobs_were_removed_deliberately():
    # PR 12: one tick protocol, transport read off the executor.
    session = Simulation.from_agents([], bounds=((0.0, 1.0),))
    assert not hasattr(session, "with_ipc_backend")
    with pytest.raises(TypeError):
        session.with_executor("serial", resident_shards=True)
    for knob in ("resident_shards", "ipc_backend"):
        with pytest.raises(BraceError, match="unknown configuration option"):
            session.with_options(**{knob: None})


@pytest.mark.parametrize("name", COST_MODEL_CONSTANTS)
def test_cost_model_constants_were_removed_deliberately(name):
    # One record per constant: the models own them, the config does not.
    session = Simulation.from_agents([], bounds=((0.0, 1.0),))
    with pytest.raises(BraceError, match="unknown configuration option"):
        session.with_options(**{name: 1})
    with pytest.raises(TypeError):
        BraceConfig(**{name: 1})


def test_run_result_fields_match_snapshot():
    assert {field.name for field in dataclasses.fields(RunResult)} == RUN_RESULT_FIELDS


def test_provenance_fields_match_snapshot():
    assert {field.name for field in dataclasses.fields(Provenance)} == PROVENANCE_FIELDS


def test_brace_config_fields_match_snapshot():
    assert {field.name for field in dataclasses.fields(BraceConfig)} == BRACE_CONFIG_FIELDS


def test_version_is_a_sane_string():
    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_setup_py_version_matches_package():
    from pathlib import Path

    setup_text = (Path(__file__).resolve().parents[2] / "setup.py").read_text()
    assert f'version="{repro.__version__}"' in setup_text
