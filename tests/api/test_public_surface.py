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
    # introspection (``world`` is a per-instance attribute, not listed here)
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


def test_run_result_fields_match_snapshot():
    assert {field.name for field in dataclasses.fields(RunResult)} == RUN_RESULT_FIELDS


def test_provenance_fields_match_snapshot():
    assert {field.name for field in dataclasses.fields(Provenance)} == PROVENANCE_FIELDS


def test_version_is_a_sane_string():
    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_setup_py_version_matches_package():
    from pathlib import Path

    setup_text = (Path(__file__).resolve().parents[2] / "setup.py").read_text()
    assert f'version="{repro.__version__}"' in setup_text
