"""Smoke tier of the reference benchmark: every workload, tiny, traced.

All four workloads run at N=200 for 3 ticks — including the two-node
loopback cluster — and must emit every metric ``BENCHMARK.json`` lists with
a finite value, fail no tick, and record spans that nest.
"""

import json
import math
import pickle
from pathlib import Path

import pytest

from bench import measure
from bench.digest import state_digest
from bench.trace import Tracer
from bench.workloads import WORKLOADS, Sensor

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
LISTED = [metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]]


def test_benchmark_json_names_the_workloads():
    assert [workload["name"] for workload in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_listed_metric(name, monkeypatch):
    # The full-size oracle world costs seconds under the naive reference.
    monkeypatch.setattr(measure, "ORACLE_AGENTS", 100)
    monkeypatch.setattr(measure, "ORACLE_TICKS", 3)
    tracer = Tracer()
    report = measure.run_workload(
        WORKLOADS[name], seed=1, ticks=3, agents=200, setup_repeats=1, tracer=tracer
    )

    assert report.errors == []
    assert report.correct and report.failed == 0 and len(report.samples) == 3
    assert report.metrics["failed_ticks"] == 0
    assert report.checks["oracle"]["ok"]
    for listed in LISTED:
        assert math.isfinite(report.metrics[listed]), listed
    assert report.metrics["brace.run_tick_s"] > 0
    assert not tracer.installed

    spans = tracer.spans
    assert spans and all(span is not None for span in spans)
    for span in spans:
        assert span.end >= span.start
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end, span


def test_interaction_table_holds_at_smoke_size(monkeypatch):
    monkeypatch.setattr(measure, "ORACLE_AGENTS", 60)
    monkeypatch.setattr(measure, "ORACLE_TICKS", 2)
    report = measure.run_workload(
        WORKLOADS["predator-serial"], 1, ticks=3, agents=200, setup_repeats=1, tracer=Tracer()
    )
    metrics = report.metrics
    assert metrics["brasil.kernel_hit_ratio"] == 1.0
    assert metrics["spatial.join_s"] > 0 and metrics["core.row_of_calls"] > 0
    for name, value in metrics.items():
        if name.startswith(("ipc.", "cluster.", "history.")):
            assert value == 0, name
    assert metrics["wire_bytes_per_tick"] == 0 and metrics["store_bytes_per_tick"] == 0


def test_cluster_class_compiles_to_two_kernels():
    from repro.brasil.kernels import kernels_for_class

    session = WORKLOADS["predator-cluster"].source(1, 10)
    query_kernel, update_kernel = kernels_for_class(session.compiled.agent_class)
    assert query_kernel is not None and update_kernel is not None
    assert session.compiled.has_non_local_effects


def test_sensor_pickles_by_module_name():
    payload = pickle.dumps(Sensor(agent_id=3, x=1.0))
    assert b"bench.workloads" in payload
    assert pickle.loads(payload).state_dict()["x"] == 1.0


def test_digest_is_exact_where_dict_equality_is_not():
    nan = float("nan")
    assert state_digest({1: {"w": nan}}) == state_digest({1: {"w": float("nan")}})
    assert state_digest({1: {"w": 0.0}}) != state_digest({1: {"w": -0.0}})
    assert state_digest({1: {"w": 1}}) != state_digest({1: {"w": 1.0}})
    assert state_digest({1: {"w": 1}}) != state_digest({1: {"w": True}})
    assert state_digest({2: {"a": 1.0}, 10: {"a": 2.0}}) == state_digest(
        {10: {"a": 2.0}, 2: {"a": 1.0}}
    )
