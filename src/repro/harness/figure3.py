"""Figure 3 — traffic single-node performance: indexing vs segment length.

Three series, exactly as in the paper:

* **MITSIM** — the hand-coded baseline with per-lane nearest-neighbour
  arrays (the fastest single-node implementation);
* **BRACE - no indexing** — the agent framework with the nested-loop join
  (every vehicle scans every other vehicle): quadratic in the number of
  vehicles, i.e. in the segment length;
* **BRACE - indexing** — the agent framework with the columnar grid
  answering every vehicle's neighbour enumeration as a range query in one
  batched kernel per tick.

Total simulation time (wall-clock seconds) is reported per segment length.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines.mitsim import HandCodedTrafficSimulator
from repro.core.engine import SequentialEngine
from repro.harness.common import format_table
from repro.simulations.traffic import TrafficParameters, build_traffic_world


@dataclass
class Figure3Result:
    """Total simulation time per segment length for the three series."""

    ticks: int
    segment_lengths: list[float] = field(default_factory=list)
    mitsim_seconds: list[float] = field(default_factory=list)
    no_index_seconds: list[float] = field(default_factory=list)
    index_seconds: list[float] = field(default_factory=list)

    def rows(self) -> list[dict[str, float]]:
        """One row per segment length."""
        return [
            {
                "segment_length": length,
                "mitsim_seconds": mitsim,
                "brace_no_index_seconds": no_index,
                "brace_index_seconds": indexed,
            }
            for length, mitsim, no_index, indexed in zip(
                self.segment_lengths, self.mitsim_seconds, self.no_index_seconds, self.index_seconds
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

    The un-indexed series is the linear scan (``spatial_backend="python"``),
    the indexed one the columnar grid (``"vectorized"``).
    """
    base_parameters = base_parameters or TrafficParameters()
    result = Figure3Result(ticks=ticks)
    for segment_length in segment_lengths:
        parameters = base_parameters.scaled_to(segment_length)
        result.segment_lengths.append(segment_length)

        baseline = HandCodedTrafficSimulator(parameters, seed=seed)
        baseline.populate()
        result.mitsim_seconds.append(baseline.run(ticks))

        world = build_traffic_world(parameters, seed=seed)
        engine = SequentialEngine(world, check_visibility=False, spatial_backend="python")
        start = time.perf_counter()
        engine.run(ticks)
        result.no_index_seconds.append(time.perf_counter() - start)

        world = build_traffic_world(parameters, seed=seed)
        engine = SequentialEngine(world, check_visibility=False)
        start = time.perf_counter()
        engine.run(ticks)
        result.index_seconds.append(time.perf_counter() - start)
    return result
