"""Figure 6 — traffic scale-up.

The traffic simulation represents a linear road segment whose load stays
uniform, so throughput grows nearly linearly with the number of workers even
with load balancing disabled.  The problem size (segment length, and with it
the number of vehicles) is scaled linearly with the worker count, so the
experiment measures *scale-up* rather than speed-up, exactly as in the paper.
The dip the paper observes around 20 nodes — when the job stops fitting on a
single switch — is reproduced by the network model's inter-switch penalty.

:func:`run_figure6` uses the hand-written Python ``Vehicle`` model;
:func:`run_figure6_brasil` reproduces the same curve *from BRASIL source*
through :func:`repro.brasil.runner.run_script` — the paper's end-to-end
claim that scripts, not hand-written agents, are what scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import Simulation
from repro.brace.config import BraceConfig
from repro.harness.common import format_table
from repro.simulations.traffic import TrafficParameters, build_traffic_world, make_vehicle_class
from repro.stats.summary import scaling_efficiency


@dataclass
class Figure6Result:
    """Throughput per worker count for the traffic scale-up."""

    ticks: int
    vehicles_per_worker: int
    worker_counts: list[int] = field(default_factory=list)
    throughputs: list[float] = field(default_factory=list)
    agents: list[int] = field(default_factory=list)

    def rows(self) -> list[dict[str, float]]:
        """One row per cluster size."""
        efficiencies = scaling_efficiency(self.throughputs, self.worker_counts)
        return [
            {
                "workers": workers,
                "agents": agents,
                "throughput": throughput,
                "scaleup_efficiency": efficiency,
            }
            for workers, agents, throughput, efficiency in zip(
                self.worker_counts, self.agents, self.throughputs, efficiencies
            )
        ]

    def format_table(self) -> str:
        """Text rendering of the scale-up curve."""
        rows = [
            [row["workers"], row["agents"], row["throughput"], row["scaleup_efficiency"]]
            for row in self.rows()
        ]
        return format_table(
            ["Workers", "Vehicles", "Throughput [agent ticks/s]", "Scale-up efficiency"],
            rows,
            title="Figure 6: Traffic — scalability (no load balancing)",
        )


def run_figure6(
    worker_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 24, 32, 36),
    vehicles_per_worker: int = 100,
    ticks: int = 3,
    seed: int = 31,
    base_parameters: TrafficParameters | None = None,
    executor: str = "serial",
    max_workers: int | None = None,
) -> Figure6Result:
    """Scale the segment with the worker count and measure throughput.

    ``executor``/``max_workers`` select the execution backend the simulated
    workers' phases actually run on (see ``BraceConfig``); virtual-time
    throughput is backend-independent, but wall-clock time is not.
    """
    base_parameters = base_parameters or TrafficParameters()
    result = Figure6Result(ticks=ticks, vehicles_per_worker=vehicles_per_worker)
    for workers in worker_counts:
        total_vehicles = vehicles_per_worker * workers
        segment_length = total_vehicles / (
            base_parameters.density_per_lane * base_parameters.num_lanes
        )
        parameters = base_parameters.scaled_to(segment_length)
        vehicle_class = make_vehicle_class(parameters)
        world = build_traffic_world(
            parameters, seed=seed, vehicle_class=vehicle_class, num_vehicles=total_vehicles
        )
        config = BraceConfig(
            num_workers=workers,
            ticks_per_epoch=max(1, ticks),
            check_visibility=False,
            load_balance=False,
            executor=executor,
            max_workers=max_workers,
        )
        with Simulation.from_agents(world, config=config) as session:
            run = session.run(ticks)
            result.worker_counts.append(workers)
            result.agents.append(total_vehicles)
            result.throughputs.append(run.throughput())
    return result


def run_figure6_brasil(
    worker_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 24, 32, 36),
    vehicles_per_worker: int = 100,
    ticks: int = 3,
    seed: int = 31,
    spacing: float = 20.0,
    executor: str = "serial",
    max_workers: int | None = None,
) -> Figure6Result:
    """Figure 6 from BRASIL source: scale a ring road with the worker count.

    The road length grows as ``vehicles_per_worker * workers * spacing`` so
    density stays constant, mirroring :func:`run_figure6`'s scale-up design.
    Each cluster size compiles a ring of the right length (BRASIL has no
    parameters, so the length is baked into the generated source) and runs
    it through ``run_script`` on the configured executor backend.
    """
    from repro.brasil.runner import run_script
    from repro.simulations.traffic.brasil_scripts import traffic_script

    result = Figure6Result(ticks=ticks, vehicles_per_worker=vehicles_per_worker)
    for workers in worker_counts:
        total_vehicles = vehicles_per_worker * workers
        length = total_vehicles * spacing
        config = BraceConfig(
            num_workers=workers,
            ticks_per_epoch=max(1, ticks),
            check_visibility=False,
            load_balance=False,
            executor=executor,
            max_workers=max_workers,
        )
        run = run_script(
            traffic_script(length=length),
            config,
            ticks=ticks,
            num_agents=total_vehicles,
            bounds=((0.0, length),),
            seed=seed,
        )
        result.worker_counts.append(workers)
        result.agents.append(total_vehicles)
        result.throughputs.append(run.throughput())
    return result
