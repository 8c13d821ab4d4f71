"""Figure 4 — fish single-node performance: indexing vs visibility range.

The fish school simulation is run on BRACE with one worker, with and
without the columnar grid, while the visibility (attraction) radius ``rho``
grows.  As in the paper, indexing helps by a factor of two to three, but
its advantage shrinks as the visibility range grows because each index
probe returns more and more of the school.  Next to the wall time, each
series records the runtime's deterministic work units (what Figures 5–8
build their virtual time from): the scan charges a whole extent per probe
at every radius, the grid only the candidates near each probe, so the
shrinking advantage shows in them without timing noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.common import format_table, run_brace
from repro.simulations.fish import CouzinParameters, build_fish_world, make_fish_class


@dataclass
class Figure4Result:
    """Total simulation time and work units per visibility range, with and
    without indexing."""

    ticks: int
    num_fish: int
    visibility_ranges: list[float] = field(default_factory=list)
    no_index_seconds: list[float] = field(default_factory=list)
    index_seconds: list[float] = field(default_factory=list)
    no_index_work_units: list[int] = field(default_factory=list)
    index_work_units: list[int] = field(default_factory=list)

    def rows(self) -> list[dict[str, float]]:
        """One row per visibility range."""
        return [
            {
                "visibility": visibility,
                "brace_no_index_seconds": no_index,
                "brace_index_seconds": indexed,
                "brace_no_index_work_units": no_index_work,
                "brace_index_work_units": index_work,
            }
            for visibility, no_index, indexed, no_index_work, index_work in zip(
                self.visibility_ranges,
                self.no_index_seconds,
                self.index_seconds,
                self.no_index_work_units,
                self.index_work_units,
            )
        ]

    def format_table(self) -> str:
        """Text rendering of the two curves and their work units."""
        rows = [
            [
                row["visibility"],
                row["brace_no_index_seconds"],
                row["brace_index_seconds"],
                row["brace_no_index_work_units"],
                row["brace_index_work_units"],
            ]
            for row in self.rows()
        ]
        return format_table(
            [
                "Visibility range",
                "BRACE no-indexing [s]",
                "BRACE indexing [s]",
                "no-indexing work units",
                "indexing work units",
            ],
            rows,
            title="Figure 4: Fish — total simulation time vs visibility range",
        )


def run_figure4(
    visibility_ranges: tuple[float, ...] = (3.0, 6.0, 12.0, 24.0, 48.0),
    num_fish: int = 400,
    ticks: int = 5,
    seed: int = 5,
) -> Figure4Result:
    """Sweep the visibility radius and time BRACE with and without the grid.

    The un-indexed series is BRACE on the linear scan
    (``spatial_backend="python"``), the indexed one BRACE on the columnar
    grid (``"vectorized"``), both on one worker of the serial executor.
    """
    result = Figure4Result(ticks=ticks, num_fish=num_fish)
    for visibility in visibility_ranges:
        parameters = CouzinParameters(rho=visibility, seed_region=120.0)
        fish_class = make_fish_class(parameters)
        result.visibility_ranges.append(visibility)

        for indexed, seconds, work_units in (
            (False, result.no_index_seconds, result.no_index_work_units),
            (True, result.index_seconds, result.index_work_units),
        ):
            world = build_fish_world(num_fish, parameters, seed=seed, fish_class=fish_class)
            metrics = run_brace(world, ticks, indexed=indexed).metrics
            seconds.append(metrics.total_wall_seconds)
            work_units.append(metrics.total_work_units)
    return result
