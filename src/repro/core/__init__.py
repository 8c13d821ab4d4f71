"""Core agent model: the state-effect pattern and the tick engine.

This package implements the programming model that the whole reproduction is
built on (Section 2.1 of the paper):

* agents declare **state fields** (public, read-only during the query phase,
  updated only at tick boundaries) and **effect fields** (write-only during
  the query phase, aggregated with a commutative combinator);
* a tick is split into a **query phase** (agents read neighbours and assign
  effects) and an **update phase** (agents read their own state and
  aggregated effects and write their new state);
* spatial state fields carry **visibility** and **reachability** bounds — the
  neighborhood property that makes spatial partitioning effective.

:class:`repro.core.engine.SequentialEngine` is the single-node, deliberately
naive reference (linear scan, per-agent interpreter); the BRACE runtime must
produce identical agent states.
"""

from repro.core.agent import Agent
from repro.core.combinators import (
    ALL,
    ANY,
    COLLECT,
    COUNT,
    MAX,
    MEAN,
    MIN,
    PRODUCT,
    SUM,
    Combinator,
    get_combinator,
)
from repro.core.context import QueryContext, UpdateContext
from repro.core.engine import SequentialEngine, TickStatistics
from repro.core.fields import EffectField, StateField
from repro.core.phase import Phase, current_phase, phase
from repro.core.world import World

__all__ = [
    "Agent",
    "StateField",
    "EffectField",
    "Combinator",
    "get_combinator",
    "SUM",
    "COUNT",
    "MIN",
    "MAX",
    "MEAN",
    "PRODUCT",
    "ANY",
    "ALL",
    "COLLECT",
    "QueryContext",
    "UpdateContext",
    "SequentialEngine",
    "TickStatistics",
    "Phase",
    "phase",
    "current_phase",
    "World",
]
