"""One front door to the engine: the :class:`Simulation` session object.

A session runs Python agents and BRASIL scripts alike behind a single
lifecycle (``BraceRuntime(world, config)`` stays the engine underneath):

1. **construct** from either source: :meth:`Simulation.from_agents` or
   :meth:`Simulation.from_script`;
2. **configure** with the fluent, eagerly validated ``with_*`` builder
   (:class:`~repro.api.builder.FluentConfig`), which compiles down to a
   :class:`~repro.brace.config.BraceConfig`;
3. **execute** — blocking :meth:`run`, or incrementally with
   :meth:`stream`, which yields one :class:`~repro.api.events.TickEvent`
   per tick and fires registered observers (:meth:`on_tick`,
   :meth:`on_epoch`, :meth:`on_checkpoint`);
4. **pause/resume** at any tick boundary — :meth:`pause` captures the
   shards' state images through the checkpoint machinery and releases the
   resident shards, :meth:`resume` restores them bit-identically;
5. **close** (or leave a ``with`` block), which guarantees resident-shard
   teardown and executor shutdown.

Every way of executing returns (or leads to) the same structured
:class:`~repro.api.result.RunResult`, whose provenance records the model,
configuration, seed, backend and script hash that produced it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Generator, Iterable, Iterator, Sequence

from repro.api.builder import ConfigBuilder, FluentConfig
from repro.api.events import TickEvent
from repro.api.result import Provenance, RunResult, script_sha256
from repro.brace.checkpoint import CheckpointManager
from repro.brace.config import BraceConfig
from repro.brace.metrics import BraceRunMetrics, EpochStatistics
from repro.brace.runtime import BraceRuntime
from repro.brasil.compiler import CompiledScript
from repro.core.agent import Agent
from repro.core.errors import BraceError, SimulationSessionError
from repro.core.world import World
from repro.history.query import History
from repro.history.recorder import HistoryRecorder
from repro.history.store import HistoryStore
from repro.spatial.bbox import BBox


def _as_bbox(bounds: BBox | Sequence[Sequence[float]]) -> BBox:
    """Accept a BBox or a sequence of per-dimension (lo, hi) intervals."""
    if isinstance(bounds, BBox):
        return bounds
    return BBox(tuple(tuple(float(edge) for edge in interval) for interval in bounds))


class Simulation(FluentConfig):
    """A configurable, observable, pausable simulation session.

    Construct with :meth:`from_agents` or :meth:`from_script`; never
    directly.  Sessions are single-use: once closed they cannot run again
    (build a new one — construction is cheap and deterministic).
    """

    def __init__(self, world: World, source: str, config: BraceConfig | None = None):
        if source not in ("agents", "script"):
            raise SimulationSessionError(
                "construct sessions with Simulation.from_agents(...) or "
                "Simulation.from_script(...)"
            )
        self._world = world
        self._source = source
        self._builder = ConfigBuilder(config)
        self._compiled: CompiledScript | None = None
        self._script_hash: str | None = None
        self._script_label: str | None = None

        self._runtime: BraceRuntime | None = None
        self._closed = False
        self._paused = False
        self._streaming = False
        self._pause_requested = False
        self._active_stream: Generator[TickEvent, None, None] | None = None

        #: Pause points are checkpoints: the same images, the same restore.
        self._pause_points = CheckpointManager(keep_last=1)
        self._epoch_events: list[EpochStatistics] = []
        self._checkpoints_taken: list[int] = []
        self._tick_observers: list[Callable[[TickEvent], None]] = []
        self._epoch_observers: list[Callable[[EpochStatistics], None]] = []
        self._checkpoint_observers: list[Callable[[EpochStatistics], None]] = []
        self._recorder: HistoryRecorder | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_agents(
        cls,
        agents_or_world: World | Iterable[Agent],
        *,
        bounds: BBox | Sequence[Sequence[float]] | None = None,
        seed: int = 0,
        config: BraceConfig | None = None,
    ) -> "Simulation":
        """Create a session from a :class:`World` or an iterable of agents.

        A bare iterable of agents needs ``bounds`` (the BRACE runtime
        partitions space); a :class:`World` brings its own bounds and seed.
        ``config`` seeds the builder — every ``with_*`` call overrides it.
        """
        if isinstance(agents_or_world, World):
            world = agents_or_world
            if bounds is not None:
                world.bounds = _as_bbox(bounds)
        else:
            if bounds is None:
                raise BraceError(
                    "Simulation.from_agents needs bounds when given bare agents "
                    "(pass bounds=BBox(...) or a sequence of (lo, hi) intervals, "
                    "or construct a World yourself)"
                )
            world = World(bounds=_as_bbox(bounds), seed=seed)
            world.add_agents(agents_or_world)
        return cls(world, "agents", config)

    @classmethod
    def from_script(
        cls,
        script: str,
        *,
        config: BraceConfig | None = None,
        class_name: str | None = None,
        effect_inversion: str = "auto",
        num_agents: int = 50,
        initial_states: Sequence[dict[str, Any]] | None = None,
        bounds: BBox | Sequence[Sequence[float]] | None = None,
        seed: int = 0,
    ) -> "Simulation":
        """Create a session by compiling a BRASIL script (path or source).

        The one way to run a script.  Compilation happens here — eagerly —
        so script errors surface at construction.  The world is populated
        deterministically by :func:`repro.brasil.runner.build_script_world`,
        and ``non_local_effects`` (the reduce-pass structure) is set from the
        effect-inversion outcome when the session starts.
        """
        from repro.brasil.runner import (
            _compile_with_label,
            build_script_world,
            load_script_source,
        )

        source_text, label = load_script_source(script)
        compiled = _compile_with_label(
            source_text, label, class_name, effect_inversion
        )
        world = build_script_world(
            compiled,
            num_agents=num_agents,
            initial_states=initial_states,
            bounds=bounds,
            seed=seed,
        )
        session = cls(world, "script", config)
        session._compiled = compiled
        session._script_hash = script_sha256(source_text)
        session._script_label = label
        return session

    # ------------------------------------------------------------------
    # Lifecycle state
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """True once the runtime has been materialized (first run/stream)."""
        return self._runtime is not None

    @property
    def paused(self) -> bool:
        """True while the session is paused (see :meth:`pause`)."""
        return self._paused

    @property
    def closed(self) -> bool:
        """True after :meth:`close` (or leaving the ``with`` block)."""
        return self._closed

    @property
    def world(self) -> World:
        """The session's world: the agents and their current states.

        Once running, reading it is reading
        :attr:`BraceRuntime.world <repro.brace.runtime.BraceRuntime.world>`
        — on the in-process executors the agents are brought up to the
        shards first, so an observer sees (and may write) the state the
        last tick produced.
        """
        if self._runtime is not None:
            return self._runtime.world
        return self._world

    @property
    def tick(self) -> int:
        """The world's current tick."""
        return self._world.tick

    @property
    def compiled(self) -> CompiledScript | None:
        """The compilation result for script sessions, None for agent ones."""
        return self._compiled

    @property
    def config(self) -> BraceConfig:
        """The configuration the session runs (will run) with.

        Before the session starts this is computed from the builder (and,
        for script sessions, the compiler's ``non_local_effects``);
        afterwards it is the exact config the runtime was built with.
        """
        if self._runtime is not None:
            return self._runtime.config
        return self._compile_config()

    @property
    def metrics(self) -> BraceRunMetrics:
        """Statistics accumulated so far (empty before the first tick)."""
        if self._runtime is None:
            return BraceRunMetrics()
        return self._runtime.metrics

    @property
    def runtime(self) -> BraceRuntime:
        """The underlying :class:`BraceRuntime` — an escape hatch.

        Accessing it starts the session (freezing configuration), exactly
        like the first :meth:`run`/:meth:`stream` call does.  Ticks driven
        directly through the runtime still land in the session's metrics,
        but bypass its observers and pause bookkeeping.
        """
        self._check_open()
        return self._ensure_started()

    def _check_open(self) -> None:
        if self._closed:
            raise SimulationSessionError(
                "this session is closed; construct a new Simulation to run again"
            )

    def _check_not_started(self) -> None:
        self._check_open()
        if self._runtime is not None:
            raise SimulationSessionError(
                "configuration is frozen once the session has started; "
                "configure before the first run()/stream() call"
            )

    def _compile_config(self) -> BraceConfig:
        config = self._builder.build()
        if self._compiled is not None:
            config = dataclasses.replace(
                config, non_local_effects=self._compiled.has_non_local_effects
            )
        return config

    def _ensure_started(self) -> BraceRuntime:
        if self._runtime is None:
            runtime = BraceRuntime(self._world, self._compile_config())
            runtime.epoch_listeners.append(self._epoch_events.append)
            self._runtime = runtime
            if self._recorder is not None:
                provenance = dataclasses.asdict(self._provenance(runtime))
                provenance["model"] = list(provenance["model"])
                self._recorder.start(self._world, provenance=provenance)
                runtime.recovery_listeners.append(self._recorder.handle_restore)
        return self._runtime

    # ------------------------------------------------------------------
    # History recording
    # ------------------------------------------------------------------
    def _attach_history(self, path: Any, **options: Any) -> "Simulation":
        """Create the store + recorder behind ``with_history`` (pre-start)."""
        if self._recorder is not None:
            raise SimulationSessionError(
                "a history store is already attached to this session "
                f"({self._recorder.store.path}); one session records one trajectory"
            )
        self._recorder = HistoryRecorder(HistoryStore.create(path, **options))
        return self

    @property
    def history(self) -> History:
        """Query surface over the attached history store.

        Live during the run — every tick is replayable the moment its
        observers fire — and still valid after :meth:`close`.  Requires a
        prior ``with_history(path)``.
        """
        if self._recorder is None:
            raise SimulationSessionError(
                "no history attached; configure with_history(path) before the "
                "session starts to record a queryable trajectory"
            )
        return History(self._recorder.store)

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def on_tick(self, observer: Callable[[TickEvent], None]) -> "Simulation":
        """Call ``observer(event)`` after every executed tick."""
        self._tick_observers.append(observer)
        return self

    def on_epoch(self, observer: Callable[[EpochStatistics], None]) -> "Simulation":
        """Call ``observer(stats)`` after every completed epoch boundary."""
        self._epoch_observers.append(observer)
        return self

    def on_checkpoint(self, observer: Callable[[EpochStatistics], None]) -> "Simulation":
        """Call ``observer(stats)`` whenever a coordinated checkpoint is taken."""
        self._checkpoint_observers.append(observer)
        return self

    def unsubscribe(self, observer: Callable[..., None]) -> "Simulation":
        """Remove ``observer`` from every list it is registered on.

        Safe to call from inside the observer itself (each dispatch iterates
        a copy of the list); unknown observers are ignored, so unsubscribing
        twice is harmless.
        """
        for observers in (
            self._tick_observers,
            self._epoch_observers,
            self._checkpoint_observers,
        ):
            while observer in observers:
                observers.remove(observer)
        return self

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, ticks: int, *, snapshot_states: bool = False) -> RunResult:
        """Execute ``ticks`` ticks (observers fire) and return the result.

        If an observer calls :meth:`pause`, execution stops at that tick
        boundary and the result covers the ticks executed so far; call
        :meth:`resume` and :meth:`run` again to continue.
        """
        for _ in self.stream(ticks, snapshot_states=snapshot_states):
            pass
        return self.result()

    def stream(self, ticks: int, *, snapshot_states: bool = False) -> Iterator[TickEvent]:
        """Execute up to ``ticks`` ticks lazily, yielding one event per tick.

        The returned iterator drives the runtime: each ``next()`` runs one
        distributed tick, fires the registered observers, and yields its
        :class:`TickEvent`.  Abandoning the iterator is safe — the world is
        synced on the way out — and a :meth:`pause` (from an observer or
        between pulls) ends the stream at the next tick boundary after
        snapshotting.  Starting a new stream (or a blocking :meth:`run`)
        finalizes any previously active stream at its tick boundary, and a
        run consumed tick-by-tick is bit-identical to a blocking
        :meth:`run`.

        ``snapshot_states=True`` attaches a full per-tick copy of every
        agent's state to each event; on the process and cluster backends
        this forces a world-sized sync per tick, defeating the delta
        protocol's IPC savings — use it for debugging and visualisation, not
        benchmarking.
        """
        self._check_open()
        if self._active_stream is not None:
            # Finalize an abandoned (or still-suspended) earlier stream at
            # its tick boundary: its cleanup syncs the world, frees the
            # stream slot and honours any pending pause() request.
            self._active_stream.close()
        if self._paused:
            raise SimulationSessionError(
                "session is paused; call resume() before running more ticks"
            )
        self._ensure_started()
        stream = self._stream_ticks(int(ticks), snapshot_states)
        self._streaming = True
        self._active_stream = stream
        return stream

    def _stream_ticks(self, ticks: int, snapshot_states: bool) -> Iterator[TickEvent]:
        runtime = self._runtime
        assert runtime is not None
        # Node losses are absorbed by the runtime's supervision policy; a
        # tick re-executed after a recovery is yielded (and recorded) again.
        supervised = runtime.supervised_ticks(ticks)
        try:
            while not self._pause_requested:
                self._epoch_events.clear()
                stats = next(supervised, None)
                if stats is None:
                    break
                epoch = self._epoch_events[-1] if self._epoch_events else None
                states = None
                if snapshot_states:
                    states = self.states()
                persisted = False
                if self._recorder is not None:
                    if not snapshot_states:
                        # Recording needs the authoritative post-tick world;
                        # states() above already synced it otherwise.
                        runtime.metrics.add_sync_ipc(runtime.sync_world())
                    self._recorder.record(self._world)
                    persisted = True
                event = TickEvent(
                    tick=stats.tick,
                    stats=stats,
                    epoch=epoch,
                    states=states,
                    persisted=persisted,
                )
                for observer in list(self._tick_observers):
                    observer(event)
                if epoch is not None:
                    for observer in list(self._epoch_observers):
                        observer(epoch)
                    if epoch.checkpointed:
                        self._checkpoints_taken.append(epoch.epoch)
                        for observer in list(self._checkpoint_observers):
                            observer(epoch)
                yield event
        finally:
            # Runs on exhaustion, consumer break and pause alike; always at a
            # tick boundary, so pausing and syncing here is safe.
            self._streaming = False
            self._active_stream = None
            if self._pause_requested and not self._paused:
                self._do_pause()
            self._pause_requested = False
            runtime.metrics.add_sync_ipc(runtime.sync_world())

    def states(self) -> dict[Any, dict[str, Any]]:
        """Current state of every agent (resident shards synced first)."""
        if self._runtime is not None:
            self._runtime.metrics.add_sync_ipc(self._runtime.sync_world())
        return {agent.agent_id: agent.state_dict() for agent in self._world.agents()}

    def result(self) -> RunResult:
        """The unified result for everything this session has executed."""
        self._check_open()
        runtime = self._ensure_started()
        return RunResult(
            final_states=self.states(),
            metrics=runtime.metrics,
            ticks=len(runtime.metrics.ticks),
            provenance=self._provenance(runtime),
            checkpoints_taken=list(self._checkpoints_taken),
            fault_events=list(runtime.fault_events),
            history_path=(
                str(self._recorder.store.path) if self._recorder is not None else None
            ),
        )

    def _provenance(self, runtime: BraceRuntime) -> Provenance:
        model = tuple(sorted({type(agent).__name__ for agent in self._world.agents()}))
        # The recorded config reproduces the run without re-deriving the
        # defaults: the seed is the effective one.  The spatial and plan
        # backends need no resolving: every shard runs the configured ones
        # (kernel_fallback_reasons says which phases of a class compiled).
        config = dataclasses.replace(
            runtime.config,
            seed=runtime.seed,
            # Never let the cluster auth secret leak into provenance (it is
            # persisted with history recordings and serialized in results);
            # record only *that* auth was configured.
            cluster_secret=(
                "<scrubbed>" if runtime.config.cluster_secret is not None else None
            ),
        )
        # A wire executor knows which node process hosts which shard; record
        # the resolved topology (addresses, pids, placement) so a result can
        # say where its shards physically ran.
        executor = runtime.executor
        return Provenance(
            source=self._source,
            model=model,
            backend=runtime.config.executor,
            seed=runtime.seed,
            config=config,
            script_hash=self._script_hash,
            script_label=self._script_label,
            nodes=None if executor.shares_memory else executor.node_topology(),
        )

    # ------------------------------------------------------------------
    # Pause / resume
    # ------------------------------------------------------------------
    def pause(self) -> "Simulation":
        """Suspend at the current (or next) tick boundary.

        Captures the shards' state images through the checkpoint machinery,
        rebuilds the world from them and releases the executor-hosted
        shards, so a paused session holds no state in node processes.  From
        inside an observer (or between ``next()`` calls on an active stream)
        the pause takes effect at the next tick boundary and ends the
        stream; otherwise it is immediate.
        """
        self._check_open()
        if self._paused:
            return self
        if self._runtime is None:
            raise SimulationSessionError(
                "nothing to pause: the session has not started running"
            )
        if self._streaming:
            self._pause_requested = True
        else:
            self._do_pause()
        return self

    def _do_pause(self) -> None:
        runtime = self._runtime
        assert runtime is not None
        checkpoint, ipc_bytes = runtime.checkpoint(self._pause_points)
        runtime.metrics.add_sync_ipc(ipc_bytes)
        runtime.restore(checkpoint, release_shards=True)
        self._paused = True
        self._pause_requested = False

    def resume(self) -> "Simulation":
        """Restore the pause point; the next run/stream continues bit-identically,
        per-tick statistics included."""
        self._check_open()
        if not self._paused:
            raise SimulationSessionError("resume() called but the session is not paused")
        runtime = self._runtime
        assert runtime is not None
        runtime.restore(self._pause_points.latest())
        self._paused = False
        return self

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Sync state back, tear down resident shards and stop the executor.

        Idempotent; after closing, the session's :attr:`world` holds the
        final agent states and the session cannot run further ticks.
        """
        if self._closed:
            return
        self._closed = True
        if self._runtime is not None:
            self._runtime.close()
        if self._recorder is not None:
            self._recorder.close()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = (
            "closed"
            if self._closed
            else "paused"
            if self._paused
            else "running"
            if self._runtime is not None
            else "ready"
        )
        return (
            f"<Simulation source={self._source!r} agents={self._world.agent_count()} "
            f"tick={self._world.tick} state={state}>"
        )
