"""Turning a live run into a persisted trajectory, one tick at a time.

The :class:`HistoryRecorder` sits behind the session layer's per-tick loop:
``start()`` captures the initial world as the base checkpoint, then every
``record()`` call diffs the (already synced) world against the recorder's
shadow of the previous tick and appends a columnar delta frame — killed ids,
spawned agent clones, and per-class columns of every changed agent's state.
Every ``checkpoint_every`` ticks a full checkpoint is written so replay
never rolls forward more than one cadence worth of deltas.

Two invariants make the replay guarantee hold:

* **Continuity** — ``record()`` demands ``world.tick`` be exactly one past
  the last recorded tick.  Ticks executed outside the recording session
  (e.g. directly through the runtime escape hatch) leave a gap the store
  cannot represent, so they raise :class:`~repro.core.errors.HistoryError`
  immediately instead of silently corrupting the trajectory.
* **Rewind on recovery** — checkpoint recovery rewinds the run; the
  recorder (registered as a runtime recovery listener) truncates the store
  back to the restored tick and re-shadows the restored world, so the
  re-executed ticks overwrite the lost tail.

Agent state is persisted as instance *clones*, never class objects:
compiled BRASIL agent classes are dynamic and not picklable by reference,
but their instances pickle through the compiler's class-spec registry.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.errors import HistoryError
from repro.core.ordering import agent_sort_key
from repro.core.soa import PackedColumn, cells_equal, pack_cells, unpack_cells
from repro.core.world import World
from repro.history.store import HistoryStore


def _pack_column(values: list[Any]) -> PackedColumn:
    """Pack one field's values through the shared delta-cell codec.

    Delegates to :func:`repro.core.soa.pack_cells` — the same column layout
    the resident-shard IPC frames use — so bool columns pack as bit arrays
    and mixed columns get per-cell kind tags with a pickle escape list
    instead of falling back to a plain Python list.  The round trip is
    bit-identical for arbitrary cells, which is exactly the replay
    guarantee's requirement.
    """
    return pack_cells(values)


def unpack_column(column: Any) -> list[Any]:
    """Restore a column written by :func:`_pack_column` to Python values.

    Accepts all three on-disk generations: :class:`PackedColumn` (current),
    bare ``float64``/``int64`` arrays (earlier stores) and plain lists
    (the original format), so old trajectories stay replayable.
    """
    if isinstance(column, PackedColumn):
        return unpack_cells(column)
    if isinstance(column, np.ndarray):
        return column.tolist()
    return list(column)


class HistoryRecorder:
    """Streams a run's ticks into a :class:`HistoryStore`."""

    def __init__(self, store: HistoryStore):
        self.store = store
        self._started = False
        self._last_tick: int | None = None
        self._base_tick: int | None = None
        #: Shadow of the previous recorded tick: id -> state dict / class name.
        self._shadow_states: dict[Any, dict[str, Any]] = {}
        self._shadow_classes: dict[Any, str] = {}

    @property
    def started(self) -> bool:
        """True once :meth:`start` has captured the base checkpoint."""
        return self._started

    @property
    def last_tick(self) -> int | None:
        """The most recently recorded tick (None before :meth:`start`)."""
        return self._last_tick

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, world: World, provenance: dict[str, Any] | None = None) -> None:
        """Capture ``world`` as the trajectory's base state.

        The world's current tick becomes the base tick; ``provenance`` (a
        JSON-safe description of what produced the run) is stored in the
        manifest so a replayed trajectory knows where it came from.
        """
        if self._started:
            raise HistoryError("this recorder has already started recording")
        base = world.tick
        bounds = None
        if world.bounds is not None:
            bounds = [list(interval) for interval in world.bounds.intervals]
        self.store.set_metadata(
            base_tick=base,
            last_tick=base,
            seed=world.seed,
            bounds=bounds,
            provenance=provenance,
        )
        self._write_checkpoint(world)
        self._shadow(world)
        self._base_tick = base
        self._last_tick = base
        self._started = True

    def record(self, world: World) -> None:
        """Persist the tick that just executed (the world must be synced).

        ``world.tick`` must be exactly ``last_tick + 1`` — the continuity
        invariant that makes replay chains contiguous.
        """
        if not self._started:
            raise HistoryError("record() called before start()")
        assert self._last_tick is not None and self._base_tick is not None
        tick = world.tick
        if tick != self._last_tick + 1:
            raise HistoryError(
                f"recording gap: the world is at tick {tick} but the last recorded "
                f"tick is {self._last_tick}; ticks executed outside the recording "
                "session (e.g. directly through the runtime escape hatch) cannot "
                "be reconstructed"
            )
        self.store.append_delta(tick, self._build_delta(world))
        manifest = self.store.manifest
        if (tick - self._base_tick) % manifest["checkpoint_every"] == 0:
            self._write_checkpoint(world)
            if manifest["thin_to_checkpoints"]:
                # Checkpoint-only retention: everything up to (and including)
                # the fresh checkpoint is now reachable without deltas.
                self.store.thin_through(tick)
        self._apply_max_ticks(tick)
        self.store.set_metadata(last_tick=tick)
        self._shadow(world)
        self._last_tick = tick

    def handle_restore(self, world: World, restored_tick: int, failed_tick: int) -> None:
        """Rewind the store after checkpoint recovery restored ``world``.

        Registered on :attr:`BraceRuntime.recovery_listeners`; the ticks
        between ``restored_tick`` and ``failed_tick`` are about to be
        re-executed and re-recorded, so their stale frames are dropped.
        """
        if not self._started:
            return
        assert self._base_tick is not None
        if restored_tick < self._base_tick:
            raise HistoryError(
                f"recovery restored tick {restored_tick}, before recording "
                f"began at tick {self._base_tick}; the trajectory cannot rewind "
                "past its base checkpoint"
            )
        self.store.truncate_after(restored_tick)
        self._shadow(world)
        self._last_tick = restored_tick

    def close(self) -> None:
        """Flush and release the store's append handle."""
        self.store.close()

    # ------------------------------------------------------------------
    # Frame construction
    # ------------------------------------------------------------------
    def _shadow(self, world: World) -> None:
        self._shadow_states = {
            agent.agent_id: agent.state_dict() for agent in world.agents()
        }
        self._shadow_classes = {
            agent.agent_id: type(agent).__name__ for agent in world.agents()
        }

    def _write_checkpoint(self, world: World) -> None:
        self.store.write_checkpoint(
            world.tick,
            {
                "tick": world.tick,
                "next_id": world.next_agent_id,
                "seed": world.seed,
                "agents": [agent.clone() for agent in world.agents()],
            },
        )

    def _build_delta(self, world: World) -> dict[str, Any]:
        killed = sorted(
            (agent_id for agent_id in self._shadow_states if not world.has_agent(agent_id)),
            key=agent_sort_key,
        )
        spawned = []
        changed_by_class: dict[str, tuple[list[Any], list[dict[str, Any]]]] = {}
        for agent in world.agents():
            agent_id = agent.agent_id
            previous = self._shadow_states.get(agent_id)
            if previous is None:
                spawned.append(agent.clone())
                continue
            state = agent.state_dict()
            # ``==`` hides a 0.0 -> -0.0 or a 1 -> 1.0 write: a row it calls
            # unchanged is decided cell by cell under the repo's one equality.
            if state != previous or not all(
                cells_equal(value, previous[name]) for name, value in state.items()
            ):
                ids, rows = changed_by_class.setdefault(
                    type(agent).__name__, ([], [])
                )
                ids.append(agent_id)
                rows.append(state)
        groups = []
        for class_name in sorted(changed_by_class):
            ids, rows = changed_by_class[class_name]
            fields = list(rows[0])
            groups.append(
                {
                    "class": class_name,
                    "ids": ids,
                    "fields": fields,
                    "columns": {
                        name: _pack_column([row[name] for row in rows])
                        for name in fields
                    },
                }
            )
        return {
            "tick": world.tick,
            "next_id": world.next_agent_id,
            "killed": killed,
            "spawned": spawned,
            "groups": groups,
        }

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def _apply_max_ticks(self, tick: int) -> None:
        """Thin old deltas once the trajectory exceeds ``max_ticks``.

        The cutoff rounds *down* to a checkpoint tick: every retained tick
        keeps a complete replay chain (checkpoint + contiguous deltas), so
        thinning can never break the bit-identical guarantee — only narrow
        the range it covers.
        """
        max_ticks = self.store.manifest["max_ticks"]
        if max_ticks is None:
            return
        floor = tick - max_ticks
        if floor <= (self._base_tick or 0):
            return
        candidates = [cp for cp in self.store.checkpoint_ticks() if cp <= floor]
        if candidates:
            self.store.thin_through(candidates[-1])

    def __repr__(self) -> str:
        return f"<HistoryRecorder last_tick={self._last_tick} store={self.store!r}>"
