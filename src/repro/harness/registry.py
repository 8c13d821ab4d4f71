"""Declarative registry of the paper's experiments.

One :class:`Experiment` per table/figure, with its laptop-sized and
paper-scale (``--full``) parameter sets declared side by side instead of
being hand-rolled into the CLI's lambda table.  Both the command line
(``python -m repro.harness``) and programmatic callers
(:func:`run_experiment`, :func:`run_all`) consume the same registry, so the
two can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.harness.figure3 import run_figure3
from repro.harness.figure4 import run_figure4
from repro.harness.figure5 import run_figure5
from repro.harness.figure6 import run_figure6, run_figure6_brasil
from repro.harness.figure7 import run_figure7, run_figure7_brasil
from repro.harness.figure8 import run_figure8
from repro.harness.table2 import run_table2

@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment: a runner plus its two parameter scales."""

    #: CLI name (``python -m repro.harness <name>``).
    name: str
    #: Which paper result the experiment regenerates.
    description: str
    #: The ``run_*`` harness function executed.
    runner: Callable[..., Any]
    #: Laptop-sized keyword arguments (seconds of runtime).
    laptop: dict[str, Any] = field(default_factory=dict)
    #: Parameters closer to paper scale (minutes of runtime); keys not
    #: present here fall back to the laptop values.
    full: dict[str, Any] = field(default_factory=dict)

    def parameters(self, full: bool = False) -> dict[str, Any]:
        """The keyword arguments for one scale (full overrides laptop)."""
        parameters = dict(self.laptop)
        if full:
            parameters.update(self.full)
        return parameters

    def run(self, full: bool = False) -> Any:
        """Execute the experiment; returns its ``*Result`` object."""
        return self.runner(**self.parameters(full))


_REGISTRY = [
    Experiment(
        "table2",
        "Table 2 — RMSPE validation of the traffic model vs the baseline",
        run_table2,
        laptop={"segment_length": 2000.0, "ticks": 60},
        full={"segment_length": 20000.0, "ticks": 200},
    ),
    Experiment(
        "figure3",
        "Figure 3 — traffic single-node time vs segment length",
        run_figure3,
        laptop={"segment_lengths": (500.0, 1000.0, 2000.0, 4000.0), "ticks": 10},
        full={"segment_lengths": (2500.0, 5000.0, 10000.0, 20000.0), "ticks": 20},
    ),
    Experiment(
        "figure4",
        "Figure 4 — fish single-node time vs visibility range",
        run_figure4,
        laptop={
            "visibility_ranges": (3.0, 6.0, 12.0, 24.0, 48.0),
            "num_fish": 400,
            "ticks": 5,
        },
        full={
            "visibility_ranges": (25.0, 50.0, 100.0, 200.0, 300.0),
            "num_fish": 2000,
            "ticks": 10,
        },
    ),
    Experiment(
        "figure5",
        "Figure 5 — predator throughput under the four optimizations",
        run_figure5,
        laptop={"num_fish": 600, "ticks": 5},
        full={"num_fish": 4000, "ticks": 10},
    ),
    Experiment(
        "figure6",
        "Figure 6 — traffic scale-up (throughput vs worker count)",
        run_figure6,
        laptop={"vehicles_per_worker": 100, "ticks": 3},
        full={"vehicles_per_worker": 400, "ticks": 5},
    ),
    Experiment(
        "figure7",
        "Figure 7 — fish scale-up with and without load balancing",
        run_figure7,
        laptop={"fish_per_worker": 60, "ticks": 6},
        full={"fish_per_worker": 200, "ticks": 10},
    ),
    Experiment(
        "figure8",
        "Figure 8 — fish per-epoch time with and without load balancing",
        run_figure8,
        laptop={"num_fish": 800, "epochs": 8},
        full={"num_fish": 3000, "epochs": 20},
    ),
    Experiment(
        "figure6-brasil",
        "Figure 6 from BRASIL source via the unified Simulation API",
        run_figure6_brasil,
        laptop={"vehicles_per_worker": 100, "ticks": 3},
        full={"vehicles_per_worker": 400, "ticks": 5},
    ),
    Experiment(
        "figure7-brasil",
        "Figure 7 from BRASIL source via the unified Simulation API",
        run_figure7_brasil,
        laptop={"fish_per_worker": 60, "ticks": 6},
        full={"fish_per_worker": 200, "ticks": 10},
    ),
]

#: Every experiment, keyed by CLI name, in presentation order.
EXPERIMENTS: dict[str, Experiment] = {
    experiment.name: experiment for experiment in _REGISTRY
}


def experiment_names() -> list[str]:
    """Registered experiment names, in presentation order."""
    return list(EXPERIMENTS)


def run_experiment(name: str, full: bool = False) -> Any:
    """Run one registered experiment by name; raises KeyError when unknown."""
    try:
        experiment = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment {name!r}; expected one of: {known}") from None
    return experiment.run(full)


def run_all(full: bool = False) -> dict[str, Any]:
    """Run every registered experiment, returning results keyed by name."""
    return {name: experiment.run(full) for name, experiment in EXPERIMENTS.items()}
