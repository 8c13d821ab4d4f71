"""Figure 3 — traffic single-node performance: indexing vs segment length.

Three series, exactly as in the paper:

* **MITSIM** — the hand-coded baseline with per-lane nearest-neighbour
  arrays (the fastest single-node implementation);
* **BRACE - no indexing** — BRACE on one worker with the nested-loop join
  (every vehicle scans every other vehicle): quadratic in the number of
  vehicles, i.e. in the segment length;
* **BRACE - indexing** — BRACE on one worker with the columnar grid
  answering every vehicle's neighbour enumeration as a range query in one
  batched kernel per tick.

Total simulation time (wall-clock seconds of the ticks) is reported per
segment length.  Next to it, each BRACE series records its deterministic
work units, so the scan's quadratic growth against the grid's shows
without timing noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.mitsim import HandCodedTrafficSimulator
from repro.harness.common import format_table, run_brace
from repro.simulations.traffic import TrafficParameters, build_traffic_world


@dataclass
class Figure3Result:
    """Total simulation time per segment length for the three series, and
    the work units of the two BRACE series."""

    ticks: int
    segment_lengths: list[float] = field(default_factory=list)
    mitsim_seconds: list[float] = field(default_factory=list)
    no_index_seconds: list[float] = field(default_factory=list)
    index_seconds: list[float] = field(default_factory=list)
    no_index_work_units: list[int] = field(default_factory=list)
    index_work_units: list[int] = field(default_factory=list)

    def rows(self) -> list[dict[str, float]]:
        """One row per segment length."""
        return [
            {
                "segment_length": length,
                "mitsim_seconds": mitsim,
                "brace_no_index_seconds": no_index,
                "brace_index_seconds": indexed,
                "brace_no_index_work_units": no_index_work,
                "brace_index_work_units": index_work,
            }
            for length, mitsim, no_index, indexed, no_index_work, index_work in zip(
                self.segment_lengths,
                self.mitsim_seconds,
                self.no_index_seconds,
                self.index_seconds,
                self.no_index_work_units,
                self.index_work_units,
            )
        ]

    def format_table(self) -> str:
        """Text rendering of the three curves."""
        rows = [
            [row["segment_length"], row["mitsim_seconds"], row["brace_no_index_seconds"], row["brace_index_seconds"]]
            for row in self.rows()
        ]
        return format_table(
            ["Segment length", "MITSIM [s]", "BRACE no-indexing [s]", "BRACE indexing [s]"],
            rows,
            title="Figure 3: Traffic — total simulation time vs segment length",
        )


def run_figure3(
    segment_lengths: tuple[float, ...] = (500.0, 1000.0, 2000.0, 4000.0),
    ticks: int = 10,
    seed: int = 11,
    base_parameters: TrafficParameters | None = None,
) -> Figure3Result:
    """Sweep the segment length and time the three implementations.

    The un-indexed series is BRACE on the linear scan
    (``spatial_backend="python"``), the indexed one BRACE on the columnar
    grid (``"vectorized"``), both on one worker of the serial executor.
    """
    base_parameters = base_parameters or TrafficParameters()
    result = Figure3Result(ticks=ticks)
    for segment_length in segment_lengths:
        parameters = base_parameters.scaled_to(segment_length)
        result.segment_lengths.append(segment_length)

        baseline = HandCodedTrafficSimulator(parameters, seed=seed)
        baseline.populate()
        result.mitsim_seconds.append(baseline.run(ticks))

        for indexed, seconds, work_units in (
            (False, result.no_index_seconds, result.no_index_work_units),
            (True, result.index_seconds, result.index_work_units),
        ):
            world = build_traffic_world(parameters, seed=seed)
            metrics = run_brace(world, ticks, indexed=indexed).metrics
            seconds.append(metrics.total_wall_seconds)
            work_units.append(metrics.total_work_units)
    return result
