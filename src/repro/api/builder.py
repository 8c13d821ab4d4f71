"""The fluent, eagerly validated configuration builder behind ``with_*``.

:class:`ConfigBuilder` accumulates overrides on top of a base
:class:`~repro.brace.config.BraceConfig` and *compiles* them into a
validated config with :meth:`build`.  Every setter re-validates the whole
configuration immediately, so a bad knob fails at the call that introduced
it::

    Simulation.from_agents(world).with_executor("proces")
    # BraceError: unknown executor 'proces'; expected one of 'serial', 'thread', ...

rather than as a deep ``KeyError`` ticks into a run.  The builder is shared
by both session sources; a script session sets ``non_local_effects`` from
the compiler's effect-inversion outcome on top of the built config.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

from repro.brace.config import BraceConfig
from repro.core.errors import BraceError

#: Field names a builder may override — exactly BraceConfig's surface.
_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(BraceConfig))


class ConfigBuilder:
    """Accumulates validated overrides that compile down to a BraceConfig."""

    def __init__(self, base: BraceConfig | None = None):
        self._base = base if base is not None else BraceConfig()
        self._overrides: dict[str, Any] = {}

    def set(self, **overrides: Any) -> "ConfigBuilder":
        """Record ``overrides`` and fail fast if they produce a bad config."""
        for name in overrides:
            if name not in _CONFIG_FIELDS:
                known = ", ".join(sorted(_CONFIG_FIELDS))
                raise BraceError(
                    f"unknown configuration option {name!r}; BraceConfig fields are: {known}"
                )
        candidate = dict(self._overrides)
        candidate.update(overrides)
        dataclasses.replace(self._base, **candidate).validate()
        self._overrides = candidate
        return self

    def build(self) -> BraceConfig:
        """Compile the accumulated overrides into a validated BraceConfig."""
        config = dataclasses.replace(self._base, **self._overrides)
        config.validate()
        return config


class FluentConfig:
    """Mixin providing the ``with_*`` surface on :class:`~repro.api.Simulation`.

    Every method validates eagerly, mutates the session's builder and
    returns ``self``, so configuration chains fluently::

        sim = (Simulation.from_agents(world)
               .with_executor("process", max_workers=8)
               .with_partitioning("strip", num_workers=8)
               .with_index("grid")
               .with_checkpointing(every_epochs=2)
               .with_seed(7))

    Concrete classes must provide ``self._builder`` (a :class:`ConfigBuilder`)
    and ``self._check_not_started()`` (configuration is frozen once the
    runtime exists).
    """

    _builder: ConfigBuilder

    def _check_not_started(self) -> None:
        raise NotImplementedError

    def _attach_history(self, path: Any, **options: Any) -> Any:
        raise NotImplementedError

    def with_executor(self, executor: str, max_workers: int | None = None) -> Any:
        """Choose the execution backend: "serial", "thread", "process" or "cluster".

        ``max_workers`` is the number of parallel hosts: threads for
        "thread", node processes for "process" and "cluster".  "serial" and
        "thread" host the worker shards in this process and hand deltas over
        by reference; "process" and "cluster" ship them as columnar frames.
        The "cluster" backend hosts shards on socket-connected node
        processes — tune the node topology with :meth:`with_nodes`.
        """
        self._check_not_started()
        overrides: dict[str, Any] = {"executor": executor}
        if max_workers is not None:
            overrides["max_workers"] = max_workers
        self._builder.set(**overrides)
        return self

    def with_nodes(
        self,
        num_nodes: int,
        listen: str | None = None,
        spawn: bool | None = None,
        heartbeat_interval: float | None = None,
        heartbeat_timeout: float | None = None,
        secret: str | None = None,
        readmission_timeout: float | None = None,
    ) -> Any:
        """Configure the wire backends' node topology.

        ``num_nodes`` is how many node processes host the shards — the
        same host count as ``with_executor(..., max_workers=num_nodes)``;
        ``listen`` the ``host:port`` the driver accepts them on (port 0
        picks a free port); ``spawn=False`` waits for externally started
        nodes (``python -m repro.cluster.node --connect host:port``) instead
        of spawning localhost subprocesses.  The heartbeat knobs tune
        failure detection: a node silent for ``heartbeat_timeout`` seconds
        is declared dead; supervision then respawns it (or waits
        ``readmission_timeout`` seconds for an external replacement to dial
        in, falling back to re-homing the lost shards onto the survivors)
        and the run recovers from the last checkpoint.  ``secret`` is the
        shared HMAC key nodes must prove knowledge of before joining —
        mandatory for non-localhost listeners, and scrubbed from provenance.
        The listen, spawn and secret settings apply to
        ``with_executor("cluster")`` only.
        """
        self._check_not_started()
        overrides: dict[str, Any] = {"max_workers": int(num_nodes)}
        if listen is not None:
            overrides["cluster_listen"] = listen
        if spawn is not None:
            overrides["cluster_spawn"] = bool(spawn)
        if heartbeat_interval is not None:
            overrides["heartbeat_interval_seconds"] = float(heartbeat_interval)
        if heartbeat_timeout is not None:
            overrides["heartbeat_timeout_seconds"] = float(heartbeat_timeout)
        if secret is not None:
            overrides["cluster_secret"] = secret
        if readmission_timeout is not None:
            overrides["readmission_timeout_seconds"] = float(readmission_timeout)
        self._builder.set(**overrides)
        return self

    def with_partitioning(
        self,
        scheme: str = "strip",
        num_workers: int | None = None,
        grid_cells: Sequence[int] | None = None,
    ) -> Any:
        """Choose how space is split across workers ("strip" or "grid")."""
        self._check_not_started()
        overrides: dict[str, Any] = {"partitioning": scheme, "grid_cells": grid_cells}
        if num_workers is not None:
            overrides["num_workers"] = num_workers
        self._builder.set(**overrides)
        return self

    def with_workers(self, num_workers: int) -> Any:
        """Set the number of simulated workers (partitions)."""
        self._check_not_started()
        self._builder.set(num_workers=num_workers)
        return self

    def with_index(self, index: str | None, check_visibility: bool | None = None) -> Any:
        """Index the query phase's spatial join, or not.

        ``"grid"`` is the columnar grid (the default) and ``None`` the
        un-indexed linear scan — the two series of Figures 3–5.  This is
        :meth:`with_spatial_backend` under the paper's names: ``"grid"``
        sets ``"vectorized"`` and ``None`` sets ``"python"``.
        """
        self._check_not_started()
        if index not in (None, "grid"):
            raise BraceError(
                f"unknown spatial index {index!r}; expected 'grid' (the columnar "
                "grid) or None (the linear scan)"
            )
        overrides: dict[str, Any] = {
            "spatial_backend": "vectorized" if index == "grid" else "python"
        }
        if check_visibility is not None:
            overrides["check_visibility"] = check_visibility
        self._builder.set(**overrides)
        return self

    def with_spatial_backend(self, backend: str) -> Any:
        """Choose how the query phase's spatial joins execute.

        ``"vectorized"`` (the default) runs the columnar grid's batch
        kernels (one position snapshot per worker per tick, all probes
        answered in a handful of array ops), ``"python"`` a linear scan of
        the extent per probe — the oracle.  Agent states are bit-identical
        whichever backend runs — this knob only trades speed.
        """
        self._check_not_started()
        # Validation happens in ConfigBuilder.set() -> BraceConfig.validate(),
        # the single source of truth for legal backend names.
        self._builder.set(spatial_backend=backend)
        return self

    def with_plan_backend(self, backend: str) -> Any:
        """Choose how BRASIL query/update plans execute.

        ``"compiled"`` (the default) runs whole-phase columnar kernels
        (effect aggregation as scatter-reductions over the spatial join's
        match lists, update rules as column math over a structure-of-arrays
        snapshot) wherever the plan compiler proved one, and the interpreter
        elsewhere; ``"interpreted"`` runs the reference per-agent AST walk
        everywhere — the oracle.  Agent states are bit-identical whichever
        backend runs — this knob only trades speed.
        """
        self._check_not_started()
        # Validation happens in ConfigBuilder.set() -> BraceConfig.validate(),
        # the single source of truth for legal backend names.
        self._builder.set(plan_backend=backend)
        return self

    def with_load_balancing(self, enabled: bool = True, threshold: float | None = None) -> Any:
        """Enable/disable epoch-boundary load balancing and tune its trigger."""
        self._check_not_started()
        overrides: dict[str, Any] = {"load_balance": bool(enabled)}
        if threshold is not None:
            overrides["load_balance_threshold"] = threshold
        self._builder.set(**overrides)
        return self

    def with_epochs(self, ticks_per_epoch: int) -> Any:
        """Set how many ticks pass between master interactions (an epoch)."""
        self._check_not_started()
        self._builder.set(ticks_per_epoch=ticks_per_epoch)
        return self

    def with_checkpointing(self, every_epochs: int = 1, enabled: bool = True) -> Any:
        """Take a coordinated checkpoint every ``every_epochs`` epochs.

        A checkpoint is every shard's state image, captured in one shard
        round.  ``enabled=False`` turns checkpointing off (``pause()`` keeps
        working — it captures the same images on demand rather than on the
        epoch schedule).
        """
        self._check_not_started()
        self._builder.set(
            checkpointing=bool(enabled), checkpoint_interval_epochs=every_epochs
        )
        return self

    def with_seed(self, seed: int) -> Any:
        """Seed the run's randomness (defaults to the world's seed)."""
        self._check_not_started()
        self._builder.set(seed=int(seed))
        return self

    def with_non_local_effects(self, enabled: bool = True) -> Any:
        """Run the second reduce pass for models assigning non-local effects.

        Script sessions configure this automatically from the effect-inversion
        outcome; agent sessions whose ``query`` writes effects on *other*
        agents must enable it explicitly.
        """
        self._check_not_started()
        self._builder.set(non_local_effects=bool(enabled))
        return self

    def with_history(
        self,
        path: Any,
        *,
        checkpoint_every: int = 16,
        max_ticks: int | None = None,
        thin_to_checkpoints: bool = False,
        overwrite: bool = False,
    ) -> Any:
        """Persist every executed tick into a queryable history store.

        ``path`` names a directory; recording begins when the session starts
        and every tick is appended live, so ``session.history`` (or
        :meth:`repro.history.History.open` on the path, even from another
        process) can time-travel to any recorded tick with
        ``state_at(t)`` — bit-identical to a fresh run truncated at ``t``.

        ``checkpoint_every`` sets the full-checkpoint cadence (replay rolls
        at most that many deltas); ``max_ticks`` keeps only the most recent
        window of ticks and ``thin_to_checkpoints=True`` retains only
        checkpoint ticks for the older range — both thin without ever
        breaking a retained tick's replay chain.  Recording forces a world
        sync per tick on the process and cluster backends (like
        ``snapshot_states=True``), trading the delta protocol's IPC savings
        for the persisted trajectory.
        """
        self._check_not_started()
        return self._attach_history(
            path,
            checkpoint_every=checkpoint_every,
            max_ticks=max_ticks,
            thin_to_checkpoints=thin_to_checkpoints,
            overwrite=overwrite,
        )

    def with_options(self, **overrides: Any) -> Any:
        """Escape hatch: override any :class:`BraceConfig` field by name.

        Unknown names and invalid values fail immediately with the list of
        valid fields / the violated constraint.
        """
        self._check_not_started()
        self._builder.set(**overrides)
        return self
