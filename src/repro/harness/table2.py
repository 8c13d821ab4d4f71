"""Table 2 — validation of the traffic model against the hand-coded baseline.

The paper validates its BRASIL reimplementation of MITSIM's lane-changing and
acceleration models by comparing, per lane, the lane changing frequency, the
average density and the average velocity, reported as RMSPE.  Here the agent
implementation (run on BRACE, one worker, with a fixed 200-unit lookahead and
the columnar grid) plays the role of the BRACE reimplementation and the
hand-coded per-lane nearest-neighbour simulator plays the role of MITSIM.
Both start from identical initial conditions and use the same per-vehicle
random streams, so the residual error comes from the same source the paper
identifies: the fixed lookahead approximation of the hand-coded simulator's
exact nearest-neighbour access.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.mitsim import HandCodedTrafficSimulator
from repro.harness.common import format_table, run_brace
from repro.simulations.traffic import (
    TrafficParameters,
    TrafficStatisticsCollector,
    build_traffic_world,
    compare_lane_statistics,
)
from repro.stats.rmspe import rmspe


@dataclass
class Table2Result:
    """Per-lane RMSPE between the agent implementation and the baseline."""

    parameters: TrafficParameters
    ticks: int
    per_lane: dict[int, dict[str, float]] = field(default_factory=dict)
    agent_summary: dict[int, dict[str, float]] = field(default_factory=dict)
    baseline_summary: dict[int, dict[str, float]] = field(default_factory=dict)

    def rows(self) -> list[dict[str, float]]:
        """One row per lane: change frequency / density / velocity RMSPE (in %)."""
        return [
            {
                "lane": lane + 1,
                "change_frequency_rmspe": metrics["change_frequency"] * 100.0,
                "average_density_rmspe": metrics["average_density"] * 100.0,
                "average_velocity_rmspe": metrics["average_velocity"] * 100.0,
            }
            for lane, metrics in sorted(self.per_lane.items())
        ]

    def format_table(self) -> str:
        """Text rendering matching the layout of Table 2."""
        rows = [
            [
                f"L{row['lane']}",
                f"{row['change_frequency_rmspe']:.2f}%",
                f"{row['average_density_rmspe']:.2f}%",
                f"{row['average_velocity_rmspe']:.3f}%",
            ]
            for row in self.rows()
        ]
        return format_table(
            ["Lane", "Change Frequency", "Avg. Density", "Avg. Velocity"],
            rows,
            title="Table 2: RMSPE for traffic simulation (agent model vs hand-coded baseline)",
        )


def rmspe_from_histories(
    observed,
    reference,
    field: str,
    *,
    reduce: str = "mean",
    window: int | None = None,
    start: int | None = None,
    stop: int | None = None,
    where=None,
) -> float:
    """Table 2's RMSPE measure computed from two recorded tick histories.

    Instead of collecting statistics while the simulators run, both series
    come from persisted trajectories (:class:`repro.history.History`): each
    history is reduced to a per-tick aggregate of ``field`` (optionally
    re-aggregated over ``window``-tick windows, optionally restricted by a
    ``where(agent_id, state)`` predicate — e.g. one lane), and the RMSPE of
    ``observed`` relative to ``reference`` is returned.  This is the
    record-once / analyze-later workflow: validation metrics become history
    queries over runs that already happened.
    """
    observed_series = observed.aggregate_series(
        field, reduce=reduce, start=start, stop=stop, where=where
    )
    reference_series = reference.aggregate_series(
        field, reduce=reduce, start=start, stop=stop, where=where
    )
    if window is not None:
        observed_series = observed.window_aggregate(observed_series, window, reduce)
        reference_series = reference.window_aggregate(reference_series, window, reduce)
    observed_ticks = [tick for tick, _ in observed_series]
    reference_ticks = [tick for tick, _ in reference_series]
    if observed_ticks != reference_ticks:
        raise ValueError(
            "the two histories cover different tick ranges "
            f"({observed_ticks[:1]}..{observed_ticks[-1:]} vs "
            f"{reference_ticks[:1]}..{reference_ticks[-1:]}); "
            "pass explicit start/stop to align them"
        )
    return rmspe(
        [value for _, value in observed_series],
        [value for _, value in reference_series],
    )


def run_table2(
    segment_length: float = 2000.0,
    ticks: int = 60,
    seed: int = 17,
    parameters: TrafficParameters | None = None,
) -> Table2Result:
    """Run both simulators from identical initial conditions and compare them."""
    parameters = (parameters or TrafficParameters()).scaled_to(segment_length)

    world = build_traffic_world(parameters, seed=seed)
    agent_collector = TrafficStatisticsCollector(parameters)

    baseline = HandCodedTrafficSimulator(parameters, seed=seed)
    baseline.load_from_world(world)
    baseline_collector = TrafficStatisticsCollector(parameters)

    run_brace(
        world, ticks, indexed=True, on_tick=lambda _event: agent_collector.observe(world.agents())
    )
    baseline.run(ticks, baseline_collector)

    comparison = compare_lane_statistics(baseline_collector, agent_collector)
    return Table2Result(
        parameters=parameters,
        ticks=ticks,
        per_lane=comparison,
        agent_summary=agent_collector.summary(),
        baseline_summary=baseline_collector.summary(),
    )
