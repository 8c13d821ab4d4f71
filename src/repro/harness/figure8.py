"""Figure 8 — fish per-epoch time with and without load balancing.

A fixed-size cluster runs the fish school for many epochs.  With load
balancing the time per epoch stays essentially flat; without it the epochs
take longer as the school drifts into fewer and fewer strips, eventually
reflecting all the work being done by a couple of workers — the behaviour of
Figure 8 in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.harness.common import format_table
from repro.simulations.fish import CouzinParameters, build_fish_world, make_fish_class


@dataclass
class Figure8Result:
    """Per-epoch virtual time for the two configurations."""

    workers: int
    num_fish: int
    ticks_per_epoch: int
    epochs: list[int] = field(default_factory=list)
    seconds_with_lb: list[float] = field(default_factory=list)
    seconds_without_lb: list[float] = field(default_factory=list)

    def rows(self) -> list[dict[str, float]]:
        """One row per epoch."""
        return [
            {"epoch": epoch, "seconds_lb": with_lb, "seconds_no_lb": without_lb}
            for epoch, with_lb, without_lb in zip(
                self.epochs, self.seconds_with_lb, self.seconds_without_lb
            )
        ]

    def format_table(self) -> str:
        """Text rendering of the two epoch-time series."""
        rows = [
            [row["epoch"], row["seconds_lb"], row["seconds_no_lb"]] for row in self.rows()
        ]
        return format_table(
            ["Epoch", "Epoch time with LB [s]", "Epoch time without LB [s]"],
            rows,
            title="Figure 8: Fish — per-epoch simulation time (load balancing)",
        )


def _epoch_times(world, workers: int, epochs: int, ticks_per_epoch: int, load_balance: bool):
    config = BraceConfig(
        num_workers=workers,
        ticks_per_epoch=ticks_per_epoch,
        check_visibility=False,
        load_balance=load_balance,
        load_balance_threshold=1.1,
    )
    with Simulation.from_agents(world, config=config) as session:
        return session.run(epochs * ticks_per_epoch).metrics.epoch_times()


def run_figure8(
    workers: int = 16,
    num_fish: int = 800,
    epochs: int = 8,
    ticks_per_epoch: int = 3,
    seed: int = 47,
    parameters: CouzinParameters | None = None,
) -> Figure8Result:
    """Run the fish school for several epochs with and without load balancing."""
    parameters = parameters or CouzinParameters(seed_region=300.0)
    fish_class = make_fish_class(parameters)
    result = Figure8Result(workers=workers, num_fish=num_fish, ticks_per_epoch=ticks_per_epoch)

    world_lb = build_fish_world(num_fish, parameters, seed=seed, fish_class=fish_class)
    with_lb = _epoch_times(world_lb, workers, epochs, ticks_per_epoch, load_balance=True)
    world_no_lb = build_fish_world(num_fish, parameters, seed=seed, fish_class=fish_class)
    without_lb = _epoch_times(world_no_lb, workers, epochs, ticks_per_epoch, load_balance=False)

    for epoch_index in range(min(len(with_lb), len(without_lb))):
        result.epochs.append(epoch_index + 1)
        result.seconds_with_lb.append(with_lb[epoch_index])
        result.seconds_without_lb.append(without_lb[epoch_index])
    return result
