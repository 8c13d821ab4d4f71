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

from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.harness.common import format_table
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


def _run_configuration(
    num_fish: int,
    workers: int,
    ticks: int,
    seed: int,
    parameters: PredatorParameters,
    non_local: bool,
    indexed: bool,
) -> float:
    world = build_predator_world(num_fish, parameters, seed=seed, non_local=non_local)
    config = BraceConfig(
        num_workers=workers,
        ticks_per_epoch=max(1, ticks),
        non_local_effects=non_local,
        spatial_backend="vectorized" if indexed else "python",
        check_visibility=False,
        load_balance=False,
    )
    with Simulation.from_agents(world, config=config) as session:
        return session.run(ticks).throughput()


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
    result.throughputs["No-Opt"] = _run_configuration(
        num_fish, workers, ticks, seed, parameters, non_local=True, indexed=False
    )
    result.throughputs["Idx-Only"] = _run_configuration(
        num_fish, workers, ticks, seed, parameters, non_local=True, indexed=True
    )
    result.throughputs["Inv-Only"] = _run_configuration(
        num_fish, workers, ticks, seed, parameters, non_local=False, indexed=False
    )
    result.throughputs["Idx+Inv"] = _run_configuration(
        num_fish, workers, ticks, seed, parameters, non_local=False, indexed=True
    )
    return result
