"""Reading a recorded trajectory back: time travel and analytics.

:class:`History` is the query surface over a :class:`~repro.history.store
.HistoryStore`.  Its core operation is **time travel**: ``state_at(t)``
reconstructs the agent states after tick ``t`` executed, bit-identical to
what a fresh run truncated at ``t`` would report — the nearest checkpoint
at or before ``t`` is loaded and the delta frames ``(checkpoint, t]`` are
rolled forward.  Everything else is built on top of that one primitive:

* sequential replay (:meth:`History.walk`), which pays for each delta once
  instead of re-rolling from a checkpoint per tick;
* per-agent time series (:meth:`History.series`) and cross-agent per-tick
  aggregates (:meth:`History.aggregate_series`), with windowed reductions
  (:meth:`History.window_aggregate`) for Table 2-style statistics;
* cross-run comparison (:meth:`History.diff`), reporting the first
  divergent tick and a per-agent field-level delta at that tick.

A history only answers for ticks it retains: requests outside the recorded
range, or for ticks whose deltas a retention policy thinned away, raise
:class:`~repro.core.errors.HistoryError` (checkpoint ticks always stay
queryable — thinning never drops checkpoints).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.core.agent import Agent
from repro.core.errors import HistoryError
from repro.core.ordering import agent_sort_key
from repro.core.soa import cells_equal, states_equal
from repro.core.world import World
from repro.history.recorder import unpack_column
from repro.history.store import HistoryStore
from repro.spatial.bbox import BBox

#: Named reducers accepted wherever a ``reduce`` argument takes a string.
REDUCERS: dict[str, Callable[[list[float]], float]] = {
    "mean": lambda values: statistics.fmean(values) if values else 0.0,
    "sum": lambda values: sum(values),
    "min": lambda values: min(values),
    "max": lambda values: max(values),
    "count": lambda values: float(len(values)),
}


def _reducer(reduce: str | Callable[[list[Any]], Any]) -> Callable[[list[Any]], Any]:
    if callable(reduce):
        return reduce
    try:
        return REDUCERS[reduce]
    except KeyError:
        known = ", ".join(sorted(REDUCERS))
        raise HistoryError(
            f"unknown reducer {reduce!r}; expected a callable or one of: {known}"
        ) from None


@dataclass(frozen=True)
class HistoryDiff:
    """The comparison of two recorded trajectories.

    ``first_divergent_tick`` is the earliest compared tick at which the two
    runs' agent states differ (None when they agree on every compared tick);
    ``agent_deltas`` reports, for that tick, each divergent agent's fields as
    ``{field: (value_in_left, value_in_right)}``, and ``only_in_left`` /
    ``only_in_right`` the agents present in one run but not the other.
    """

    ticks_compared: tuple[int, int]
    first_divergent_tick: int | None = None
    agent_deltas: dict[Any, dict[str, tuple[Any, Any]]] = field(default_factory=dict)
    only_in_left: tuple[Any, ...] = ()
    only_in_right: tuple[Any, ...] = ()

    @property
    def identical(self) -> bool:
        """True when both runs agree bit for bit over the compared range."""
        return self.first_divergent_tick is None

    def summary(self) -> str:
        """A short human-readable report of the comparison."""
        start, stop = self.ticks_compared
        if self.identical:
            return f"identical over ticks {start}..{stop}"
        lines = [
            f"first divergence at tick {self.first_divergent_tick} "
            f"(compared ticks {start}..{stop})"
        ]
        if self.only_in_left:
            lines.append(f"  agents only in left: {list(self.only_in_left)}")
        if self.only_in_right:
            lines.append(f"  agents only in right: {list(self.only_in_right)}")
        for agent_id in sorted(self.agent_deltas, key=agent_sort_key):
            deltas = self.agent_deltas[agent_id]
            rendered = ", ".join(
                f"{name}: {left!r} != {right!r}" for name, (left, right) in deltas.items()
            )
            lines.append(f"  agent {agent_id}: {rendered}")
        return "\n".join(lines)


class History:
    """Query surface over one recorded trajectory."""

    def __init__(self, store: HistoryStore):
        self.store = store

    @classmethod
    def open(cls, path: str | Path) -> "History":
        """Attach to the recorded trajectory at ``path``."""
        return cls(HistoryStore.open(path))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """Directory the trajectory is stored in."""
        return self.store.path

    @property
    def base_tick(self) -> int:
        """Tick at which recording began (the base checkpoint's tick)."""
        base = self.store.manifest.get("base_tick")
        if base is None:
            raise HistoryError(f"the store at {self.path} has recorded nothing yet")
        return base

    @property
    def last_tick(self) -> int:
        """The most recent recorded tick."""
        last = self.store.manifest.get("last_tick")
        if last is None:
            raise HistoryError(f"the store at {self.path} has recorded nothing yet")
        return last

    @property
    def provenance(self) -> dict[str, Any] | None:
        """What produced the run (model, config, seed, backend), if recorded."""
        return self.store.manifest.get("provenance")

    def ticks(self) -> list[int]:
        """Every tick :meth:`state_at` can answer for, ascending.

        The base tick and every checkpoint tick are always included;
        delta-reachable ticks are those with a contiguous delta chain back
        to some checkpoint (retention thinning can remove them).
        """
        reachable = set(self.store.checkpoint_ticks())
        delta_ticks = set(self.store.delta_ticks())
        for checkpoint in sorted(reachable):
            tick = checkpoint + 1
            while tick in delta_ticks:
                reachable.add(tick)
                tick += 1
        return sorted(tick for tick in reachable if tick <= self.last_tick)

    # ------------------------------------------------------------------
    # Time travel
    # ------------------------------------------------------------------
    def state_at(self, tick: int) -> dict[Any, dict[str, Any]]:
        """Agent states after tick ``tick`` executed, keyed by agent id.

        Bit-identical to what ``Simulation.states()`` reports after running
        exactly ``tick - base_tick`` ticks from the recorded initial state —
        the replay guarantee the differential tests enforce.
        """
        agents = self._agents_at(tick)
        return {
            agent_id: agents[agent_id].state_dict()
            for agent_id in sorted(agents, key=repr)
        }

    def world_at(self, tick: int) -> World:
        """A reconstructed :class:`World` as of tick ``tick``.

        State fields are authoritative (bit-identical to the recorded run);
        effect accumulators hold whatever the recording captured and are
        reset by the next tick's map phase anyway.
        """
        agents = self._agents_at(tick)
        manifest = self.store.manifest
        bounds = None
        if manifest.get("bounds") is not None:
            bounds = BBox(tuple(tuple(interval) for interval in manifest["bounds"]))
        world = World(bounds=bounds, seed=manifest.get("seed") or 0)
        world.tick = tick
        for agent_id in sorted(agents, key=repr):
            world.add_agent(agents[agent_id])
        world._next_id = self._next_id_at(tick)
        return world

    def walk(
        self, start: int | None = None, stop: int | None = None
    ) -> Iterator[tuple[int, dict[Any, dict[str, Any]]]]:
        """Yield ``(tick, states)`` for every tick in ``[start, stop]``.

        Sequential replay: the checkpoint is loaded once and each delta is
        applied exactly once, so walking a range costs O(range) rather than
        O(range * cadence) repeated ``state_at`` calls would.
        """
        start = self.base_tick if start is None else start
        stop = self.last_tick if stop is None else stop
        self._check_range(start)
        self._check_range(stop)
        if stop < start:
            return
        agents = self._agents_at(start)
        yield start, {
            agent_id: agents[agent_id].state_dict()
            for agent_id in sorted(agents, key=repr)
        }
        for tick in range(start + 1, stop + 1):
            self._apply_delta(agents, self.store.read_delta(tick))
            yield tick, {
                agent_id: agents[agent_id].state_dict()
                for agent_id in sorted(agents, key=repr)
            }

    # ------------------------------------------------------------------
    # Analytics
    # ------------------------------------------------------------------
    def series(
        self,
        agent_id: Any,
        fields: str | list[str],
        start: int | None = None,
        stop: int | None = None,
    ) -> list[tuple[int, Any]]:
        """One agent's field value(s) per tick: ``[(tick, value), ...]``.

        Ticks where the agent does not exist (before it spawned, after it
        was killed) are skipped.  Passing a list of field names yields a
        dict of values per tick instead of a scalar.
        """
        single = isinstance(fields, str)
        names = [fields] if single else list(fields)
        out: list[tuple[int, Any]] = []
        for tick, states in self.walk(start, stop):
            state = states.get(agent_id)
            if state is None:
                continue
            out.append((tick, state[names[0]] if single else {n: state[n] for n in names}))
        return out

    def aggregate_series(
        self,
        fields: str,
        reduce: str | Callable[[list[Any]], Any] = "mean",
        start: int | None = None,
        stop: int | None = None,
        where: Callable[[Any, dict[str, Any]], bool] | None = None,
    ) -> list[tuple[int, Any]]:
        """Per-tick reduction of one field across agents.

        ``reduce`` is a named reducer (``"mean"``, ``"sum"``, ``"min"``,
        ``"max"``, ``"count"``) or any callable taking the tick's list of
        values.  ``where(agent_id, state)`` optionally filters which agents
        contribute — e.g. one lane of the traffic ring.
        """
        reducer = _reducer(reduce)
        out: list[tuple[int, Any]] = []
        for tick, states in self.walk(start, stop):
            values = [
                state[fields]
                for agent_id, state in states.items()
                if where is None or where(agent_id, state)
            ]
            out.append((tick, reducer(values)))
        return out

    def window_aggregate(
        self,
        series: list[tuple[int, Any]],
        window: int,
        reduce: str | Callable[[list[Any]], Any] = "mean",
    ) -> list[tuple[int, Any]]:
        """Reduce a tick series over consecutive non-overlapping windows.

        Each output entry is ``(first tick of the window, reduced value)``;
        a trailing partial window is reduced over the ticks it has.
        """
        if window < 1:
            raise HistoryError("window must be at least 1 tick")
        reducer = _reducer(reduce)
        out: list[tuple[int, Any]] = []
        for index in range(0, len(series), window):
            chunk = series[index : index + window]
            out.append((chunk[0][0], reducer([value for _, value in chunk])))
        return out

    def diff(
        self,
        other: "History",
        start: int | None = None,
        stop: int | None = None,
    ) -> HistoryDiff:
        """Compare two trajectories tick by tick over their common range.

        Returns a :class:`HistoryDiff` with the first divergent tick and a
        per-agent, per-field delta report at that tick — the cross-run
        debugging primitive: two runs that should be bit-identical either
        come back ``identical``, or the report pinpoints exactly where and
        how they split.  "Differ" is the exact oracle's definition
        (:func:`repro.core.soa.cells_equal`): a NaN equals the same NaN,
        ``0.0`` and ``-0.0`` are different cells.
        """
        start = max(self.base_tick, other.base_tick) if start is None else start
        stop = min(self.last_tick, other.last_tick) if stop is None else stop
        if stop < start:
            raise HistoryError(
                f"the trajectories share no ticks to compare "
                f"({self.base_tick}..{self.last_tick} vs "
                f"{other.base_tick}..{other.last_tick})"
            )
        mine = self.walk(start, stop)
        theirs = other.walk(start, stop)
        for (tick, left), (_, right) in zip(mine, theirs):
            if states_equal(left, right):
                continue
            only_left = tuple(sorted(set(left) - set(right), key=agent_sort_key))
            only_right = tuple(sorted(set(right) - set(left), key=agent_sort_key))
            deltas: dict[Any, dict[str, tuple[Any, Any]]] = {}
            for agent_id in set(left) & set(right):
                ours, others = left[agent_id], right[agent_id]
                changed = {
                    name: (ours.get(name), others.get(name))
                    for name in {**ours, **others}
                    if name not in ours
                    or name not in others
                    or not cells_equal(ours[name], others[name])
                }
                if changed:
                    deltas[agent_id] = changed
            return HistoryDiff(
                ticks_compared=(start, stop),
                first_divergent_tick=tick,
                agent_deltas=deltas,
                only_in_left=only_left,
                only_in_right=only_right,
            )
        return HistoryDiff(ticks_compared=(start, stop))

    # ------------------------------------------------------------------
    # Replay internals
    # ------------------------------------------------------------------
    def _check_range(self, tick: int) -> None:
        if not self.base_tick <= tick <= self.last_tick:
            raise HistoryError(
                f"tick {tick} is outside the recorded range "
                f"{self.base_tick}..{self.last_tick}"
            )

    def _agents_at(self, tick: int) -> dict[Any, Agent]:
        """Replay to ``tick``: nearest checkpoint + contiguous deltas."""
        self._check_range(tick)
        checkpoint_tick = self.store.nearest_checkpoint_at_or_before(tick)
        payload = self.store.read_checkpoint(checkpoint_tick)
        agents = {agent.agent_id: agent for agent in payload["agents"]}
        for delta_tick in range(checkpoint_tick + 1, tick + 1):
            self._apply_delta(agents, self.store.read_delta(delta_tick))
        return agents

    def _next_id_at(self, tick: int) -> int:
        checkpoint_tick = self.store.nearest_checkpoint_at_or_before(tick)
        if checkpoint_tick == tick:
            return self.store.read_checkpoint(checkpoint_tick)["next_id"]
        return self.store.read_delta(tick)["next_id"]

    @staticmethod
    def _apply_delta(agents: dict[Any, Agent], delta: dict[str, Any]) -> None:
        for agent_id in delta["killed"]:
            agents.pop(agent_id, None)
        for spawned in delta["spawned"]:
            agents[spawned.agent_id] = spawned
        for group in delta["groups"]:
            fields = group["fields"]
            columns = {name: unpack_column(group["columns"][name]) for name in fields}
            for row, agent_id in enumerate(group["ids"]):
                agents[agent_id].set_state_dict(
                    {name: columns[name][row] for name in fields}
                )

    def __repr__(self) -> str:
        recorded = self.store.manifest.get("base_tick")
        span = f"{self.base_tick}..{self.last_tick}" if recorded is not None else "empty"
        return f"<History path={str(self.path)!r} ticks={span}>"
