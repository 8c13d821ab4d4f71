"""Figure 7 — fish scale-up with and without load balancing.

The fish school starts concentrated in a small patch of the (large) ocean and
two groups of informed individuals pull it in opposite directions.  Without
load balancing only the few workers whose strips contain fish do any work, so
throughput stops growing with the cluster size; with the one-dimensional load
balancer the strips are re-drawn each epoch to hold roughly the same number
of fish and throughput keeps growing nearly linearly — the behaviour reported
in the paper.

:func:`run_figure7` uses the hand-written Couzin fish model;
:func:`run_figure7_brasil` draws the same comparison from the paper's
fish-school BRASIL script via :meth:`repro.api.Simulation.from_script`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.harness.common import format_table
from repro.simulations.fish import CouzinParameters, build_fish_world, make_fish_class


@dataclass
class Figure7Result:
    """Throughput per worker count, with and without load balancing."""

    ticks: int
    fish_per_worker: int
    worker_counts: list[int] = field(default_factory=list)
    throughput_with_lb: list[float] = field(default_factory=list)
    throughput_without_lb: list[float] = field(default_factory=list)

    def rows(self) -> list[dict[str, float]]:
        """One row per cluster size."""
        return [
            {
                "workers": workers,
                "throughput_lb": with_lb,
                "throughput_no_lb": without_lb,
            }
            for workers, with_lb, without_lb in zip(
                self.worker_counts, self.throughput_with_lb, self.throughput_without_lb
            )
        ]

    def format_table(self) -> str:
        """Text rendering of the two scale-up curves."""
        rows = [
            [row["workers"], row["throughput_lb"], row["throughput_no_lb"]]
            for row in self.rows()
        ]
        return format_table(
            ["Workers", "Throughput with LB", "Throughput without LB"],
            rows,
            title="Figure 7: Fish — scalability with and without load balancing",
        )


def _run(world, workers: int, ticks: int, load_balance: bool, ticks_per_epoch: int) -> float:
    config = BraceConfig(
        num_workers=workers,
        ticks_per_epoch=ticks_per_epoch,
        check_visibility=False,
        load_balance=load_balance,
        load_balance_threshold=1.1,
    )
    with Simulation.from_agents(world, config=config) as session:
        return session.run(ticks).throughput()


def run_figure7(
    worker_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 24, 32, 36),
    fish_per_worker: int = 60,
    ticks: int = 6,
    ticks_per_epoch: int = 2,
    seed: int = 41,
    parameters: CouzinParameters | None = None,
) -> Figure7Result:
    """Scale the school with the worker count, with and without load balancing."""
    parameters = parameters or CouzinParameters(seed_region=300.0)
    fish_class = make_fish_class(parameters)
    result = Figure7Result(ticks=ticks, fish_per_worker=fish_per_worker)
    for workers in worker_counts:
        num_fish = fish_per_worker * workers
        world_lb = build_fish_world(num_fish, parameters, seed=seed, fish_class=fish_class)
        world_no_lb = build_fish_world(num_fish, parameters, seed=seed, fish_class=fish_class)
        result.worker_counts.append(workers)
        result.throughput_with_lb.append(
            _run(world_lb, workers, ticks, load_balance=True, ticks_per_epoch=ticks_per_epoch)
        )
        result.throughput_without_lb.append(
            _run(world_no_lb, workers, ticks, load_balance=False, ticks_per_epoch=ticks_per_epoch)
        )
    return result


def run_figure7_brasil(
    worker_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 24, 32, 36),
    fish_per_worker: int = 60,
    ticks: int = 6,
    ticks_per_epoch: int = 2,
    seed: int = 41,
    patch_radius: float = 10.0,
    ocean_half_width: float = 300.0,
    executor: str = "serial",
    max_workers: int | None = None,
) -> Figure7Result:
    """Figure 7 from BRASIL source: the fish-school script with/without LB.

    The school starts concentrated in a ``patch_radius`` patch of a much
    larger ocean, so without load balancing only a few strips do any work.
    Both curves run the *same* compiled script on identical initial states;
    only the load-balancer flag differs.
    """
    from repro.simulations.predator.brasil_scripts import FISH_SCHOOL_SCRIPT

    result = Figure7Result(ticks=ticks, fish_per_worker=fish_per_worker)
    bounds = ((-ocean_half_width, ocean_half_width), (-ocean_half_width, ocean_half_width))
    for workers in worker_counts:
        num_fish = fish_per_worker * workers
        rng = np.random.default_rng([seed, num_fish])
        initial_states = [
            {
                "x": float(rng.uniform(-patch_radius, patch_radius)),
                "y": float(rng.uniform(-patch_radius, patch_radius)),
                "vx": float(rng.uniform(-1.0, 1.0)),
                "vy": float(rng.uniform(-1.0, 1.0)),
            }
            for _ in range(num_fish)
        ]

        def throughput(load_balance: bool) -> float:
            config = BraceConfig(
                num_workers=workers,
                ticks_per_epoch=ticks_per_epoch,
                check_visibility=False,
                load_balance=load_balance,
                load_balance_threshold=1.1,
                executor=executor,
                max_workers=max_workers,
            )
            with Simulation.from_script(
                FISH_SCHOOL_SCRIPT,
                config=config,
                initial_states=initial_states,
                bounds=bounds,
                seed=seed,
            ) as session:
                return session.run(ticks).throughput()

        result.worker_counts.append(workers)
        result.throughput_with_lb.append(throughput(load_balance=True))
        result.throughput_without_lb.append(throughput(load_balance=False))
    return result
