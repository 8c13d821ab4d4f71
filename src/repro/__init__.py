"""repro — a from-scratch Python reproduction of BRACE/BRASIL.

The package reproduces *Behavioral Simulations in MapReduce* (Wang et al.,
VLDB 2010).  It contains the agent model and state-effect tick engine
(:mod:`repro.core`), a spatial substrate (:mod:`repro.spatial`), the
executors BRACE's map–reduce–reduce shard rounds run on
(:mod:`repro.mapreduce`), a simulated shared-nothing cluster
(:mod:`repro.cluster`), the BRACE runtime (:mod:`repro.brace`), the BRASIL
language (:mod:`repro.brasil`), the paper's
simulation workloads (:mod:`repro.simulations`), single-node baselines
(:mod:`repro.baselines`), statistics (:mod:`repro.stats`) and the experiment
harness regenerating every table and figure (:mod:`repro.harness`).

The recommended entry point is the unified session layer (:mod:`repro.api`):
:class:`Simulation` runs both Python agent models and BRASIL scripts on any
executor backend and returns a structured :class:`RunResult`.
"""

from repro.core.agent import Agent
from repro.core.fields import StateField, EffectField
from repro.core.combinators import (
    SUM,
    COUNT,
    MIN,
    MAX,
    MEAN,
    PRODUCT,
    ANY,
    ALL,
    COLLECT,
)
from repro.core.world import World
from repro.core.engine import SequentialEngine
from repro.brace.runtime import BraceRuntime
from repro.brace.config import BraceConfig
from repro.api import Provenance, RunResult, Simulation, TickEvent
from repro.history import History

__version__ = "1.2.0"

__all__ = [
    "Agent",
    "StateField",
    "EffectField",
    "SUM",
    "COUNT",
    "MIN",
    "MAX",
    "MEAN",
    "PRODUCT",
    "ANY",
    "ALL",
    "COLLECT",
    "World",
    "SequentialEngine",
    "BraceRuntime",
    "BraceConfig",
    "Simulation",
    "RunResult",
    "Provenance",
    "TickEvent",
    "History",
    "__version__",
]
