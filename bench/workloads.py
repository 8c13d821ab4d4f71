"""The four fixed workloads, their sizes, and the agents the benchmark owns.

Each workload is a *source* (how the world is built from ``--seed``) plus a
*configuration* (how the session runs it).  The correctness checks reuse the
source under reference configurations, so the world a check compares is
always the world the workload measured.

Agent counts are constants.  ``ticks`` is the measured window at
:data:`REFERENCE_SECONDS` on the 2-core reference box; ``--seconds`` scales
it proportionally (never the agent counts), so one ``--seconds`` value
always runs the same ticks and the golden digests stay comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.api import Simulation
from repro.core.agent import Agent
from repro.core.fields import StateField
from repro.core.world import World
from repro.simulations.predator.brasil_scripts import (
    PREDATOR_LOCAL_SCRIPT,
    PREDATOR_NON_LOCAL_SCRIPT,
)
from repro.simulations.traffic.workload import build_traffic_world
from repro.spatial.bbox import BBox

#: ``run_seconds`` of BENCHMARK.json: the window the tick counts below fill.
REFERENCE_SECONDS = 12
#: Ticks run (and discarded) before the timed window; part of set-up.
WARMUP_TICKS = 3
#: Fixed so node authentication (HMAC hello + per-frame MACs) is always on.
CLUSTER_SECRET = "bench-loopback-secret"

# ----------------------------------------------------------------------
# Sensor: wide state, unbounded visibility, sparse writers
# ----------------------------------------------------------------------
SENSOR_PAYLOAD_FIELDS = 48
#: 1 agent in 4 rewrites ``x`` and ``f0`` each tick; the other 3 keep every
#: field object steady, so their replica rows never reship (delta *hits*).
SENSOR_ACTIVE_STRIDE = 4
SENSOR_WORLD_LENGTH = 400.0
SENSOR_WORLD_WIDTH = 30.0


def _sensor_update(self, ctx):
    if self.agent_id % SENSOR_ACTIVE_STRIDE == 0:
        self.x = min(self.x + 0.125, SENSOR_WORLD_LENGTH - 1e-6)
        self.f0 = self.f0 + 0.001


def _sensor_namespace() -> dict:
    namespace = {
        "__doc__": "Wide-state agent whose replica rows dominate tick traffic.",
        # Built through the metaclass call, so pin the module: pool processes
        # and spawned nodes unpickle the class as ``bench.workloads.Sensor``.
        "__module__": __name__,
        "__qualname__": "Sensor",
        "x": StateField(0.0, spatial=True, visibility=None, reachability=2.0),
        "y": StateField(0.0, spatial=True, visibility=None, reachability=2.0),
        "update": _sensor_update,
    }
    for index in range(SENSOR_PAYLOAD_FIELDS):
        namespace[f"f{index}"] = StateField(0.0)
    return namespace


#: Built via ``type`` so 50 fields don't need 50 assignment lines.
Sensor = type(Agent)("Sensor", (Agent,), _sensor_namespace())


def build_sensor_world(num_agents: int, seed: int) -> World:
    """Sensors spread evenly along the strip, payload drawn from ``seed``."""
    world = World(
        bounds=BBox(((0.0, SENSOR_WORLD_LENGTH), (0.0, SENSOR_WORLD_WIDTH))), seed=seed
    )
    rng = np.random.default_rng(seed)
    slot = SENSOR_WORLD_LENGTH / num_agents
    for index in range(num_agents):
        payload = {
            f"f{j}": float(rng.uniform(0.0, 1.0)) for j in range(SENSOR_PAYLOAD_FIELDS)
        }
        x = (index + float(rng.uniform(0.0, 1.0))) * slot
        world.add_agent(
            Sensor(
                x=min(x, SENSOR_WORLD_LENGTH - 1e-6),
                y=float(rng.uniform(0.0, SENSOR_WORLD_WIDTH)),
                **payload,
            )
        )
    return world


# ----------------------------------------------------------------------
# Sources: seed -> unconfigured session
# ----------------------------------------------------------------------
PREDATOR_AGENTS = 8000
PREDATOR_HALF_WIDTH = 85.0
#: Predators drift outwards by up to one unit per tick, and a strip's owned
#: region ends at the world box in y: an agent more than one visibility
#: radius outside the box is replicated to no neighbouring strip, so a
#: partitioned run silently diverges from the serial one (seen at tick 13 of
#: the 8000-agent world).  Until the runtime treats edge regions as
#: unbounded, the world box gets head-room in y — the axis the strips do not
#: cut, so the partitioning of the populated square is unchanged.  165 units
#: cover every run ``--seconds`` <= 60 can ask for.
PREDATOR_Y_MARGIN = 165.0


def _predator_source(script: str, effect_inversion: str):
    def source(seed: int, agents: int) -> Simulation:
        # Constant density: a smaller check world keeps the neighbourhood
        # sizes (and so the code paths) of the full-size one.
        half = PREDATOR_HALF_WIDTH * math.sqrt(agents / PREDATOR_AGENTS)
        session = Simulation.from_script(
            script,
            effect_inversion=effect_inversion,
            num_agents=agents,
            bounds=((-half, half), (-half, half)),
            seed=seed,
        )
        y_limit = half + PREDATOR_Y_MARGIN
        session.world.bounds = BBox(((-half, half), (-y_limit, y_limit)))
        return session

    return source


def _vehicle_source(seed: int, agents: int) -> Simulation:
    return Simulation.from_agents(build_traffic_world(seed=seed, num_vehicles=agents))


def _sensor_source(seed: int, agents: int) -> Simulation:
    return Simulation.from_agents(build_sensor_world(agents, seed))


# ----------------------------------------------------------------------
# Configurations: session -> configured session
# ----------------------------------------------------------------------
def _predator_serial(session: Simulation, scratch: Path) -> Simulation:
    return (
        session.with_workers(1)
        .with_executor("serial")
        .with_load_balancing(False)
        .with_checkpointing(enabled=False)
    )


def _vehicle_history(session: Simulation, scratch: Path) -> Simulation:
    return (
        session.with_workers(2)
        .with_executor("serial")
        .with_epochs(10)
        .with_checkpointing(1)
        .with_load_balancing(True)
        .with_history(scratch / "history", checkpoint_every=10)
    )


def _sensor_process(session: Simulation, scratch: Path) -> Simulation:
    return (
        session.with_workers(2)
        .with_executor("process", max_workers=2)
        .with_index(None)
        .with_load_balancing(False)
        .with_checkpointing(enabled=False)
    )


def _predator_cluster(session: Simulation, scratch: Path) -> Simulation:
    return (
        session.with_workers(4)
        .with_executor("cluster")
        .with_nodes(2, secret=CLUSTER_SECRET)
        .with_epochs(10)
        .with_checkpointing(1)
        .with_load_balancing(False)
    )


def serial_reference(session: Simulation, naive: bool) -> Simulation:
    """The oracle configuration: serial executor, one worker, nothing else.

    ``naive=True`` additionally forces the interpreted plan backend and the
    per-probe Python spatial backend — the deliberately slow reference the
    small live check compares against.
    """
    session = (
        session.with_workers(1)
        .with_executor("serial")
        .with_load_balancing(False)
        .with_checkpointing(enabled=False)
    )
    if naive:
        session = session.with_plan_backend("interpreted").with_spatial_backend("python")
    return session


@dataclass(frozen=True)
class Workload:
    """One fixed input set: who builds it, how it runs, how long."""

    name: str
    agents: int
    ticks: int
    source: Callable[[int, int], Simulation]
    configure: Callable[[Simulation, Path], Simulation]

    def session(self, seed: int, agents: int, scratch: Path) -> Simulation:
        """A configured, not yet started session of this workload."""
        return self.configure(self.source(seed, agents), scratch)

    def reference(self, seed: int, agents: int, naive: bool) -> Simulation:
        """The same world under :func:`serial_reference`."""
        return serial_reference(self.source(seed, agents), naive)

    def ticks_for(self, seconds: float) -> int:
        """The window for ``--seconds``: proportional, at least 3 ticks."""
        return max(3, round(self.ticks * seconds / REFERENCE_SECONDS))


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "predator-serial",
            PREDATOR_AGENTS,
            16,
            _predator_source(PREDATOR_LOCAL_SCRIPT, "auto"),
            _predator_serial,
        ),
        Workload("vehicle-history", 2000, 48, _vehicle_source, _vehicle_history),
        Workload("sensor-process", 12000, 120, _sensor_source, _sensor_process),
        Workload(
            "predator-cluster",
            PREDATOR_AGENTS,
            28,
            _predator_source(PREDATOR_NON_LOCAL_SCRIPT, "off"),
            _predator_cluster,
        ),
    )
}
