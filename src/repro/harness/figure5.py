"""Figure 5 — predator simulation: the effect of indexing and effect inversion.

Four configurations of the predator simulation on a 16-worker BRACE cluster,
as in the paper:

* **No-Opt** — non-local bite assignments (two reduce passes) and no spatial
  index in the query phase (a linear scan per probe);
* **Idx-Only** — non-local assignments with the columnar grid;
* **Inv-Only** — the effect-inverted (local) formulation, no index, single
  reduce pass;
* **Idx+Inv** — inverted and indexed.

Throughput is reported in agent-ticks per (virtual) second from the cluster
cost model; the paper observes >20% improvement from inversion with or
without indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.common import format_table, run_brace
from repro.simulations.predator import PredatorParameters, build_predator_world


@dataclass
class Figure5Result:
    """Throughput of the four optimization configurations."""

    num_fish: int
    workers: int
    ticks: int
    throughputs: dict[str, float] = field(default_factory=dict)

    CONFIGURATIONS = ("No-Opt", "Idx-Only", "Inv-Only", "Idx+Inv")

    def rows(self) -> list[dict[str, float]]:
        """One row per configuration."""
        return [
            {"configuration": name, "throughput": self.throughputs.get(name, 0.0)}
            for name in self.CONFIGURATIONS
        ]

    def improvement_from_inversion(self, with_index: bool) -> float:
        """Relative throughput gain of inversion (e.g. 0.2 = +20%)."""
        if with_index:
            before, after = self.throughputs.get("Idx-Only", 0.0), self.throughputs.get("Idx+Inv", 0.0)
        else:
            before, after = self.throughputs.get("No-Opt", 0.0), self.throughputs.get("Inv-Only", 0.0)
        if before == 0:
            return 0.0
        return after / before - 1.0

    def format_table(self) -> str:
        """Text rendering of the four bars."""
        rows = [[row["configuration"], row["throughput"]] for row in self.rows()]
        return format_table(
            ["Configuration", "Throughput [agent ticks/s]"],
            rows,
            title="Figure 5: Predator — effect inversion and indexing (16 workers)",
        )


def run_figure5(
    num_fish: int = 600,
    workers: int = 16,
    ticks: int = 5,
    seed: int = 23,
    parameters: PredatorParameters | None = None,
) -> Figure5Result:
    """Run the four configurations and collect their throughputs."""
    parameters = parameters or PredatorParameters()
    result = Figure5Result(num_fish=num_fish, workers=workers, ticks=ticks)
    for name, non_local, indexed in (
        ("No-Opt", True, False),
        ("Idx-Only", True, True),
        ("Inv-Only", False, False),
        ("Idx+Inv", False, True),
    ):
        world = build_predator_world(num_fish, parameters, seed=seed, non_local=non_local)
        run = run_brace(world, ticks, indexed=indexed, workers=workers, non_local=non_local)
        result.throughputs[name] = run.throughput()
    return result
